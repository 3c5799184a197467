"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Placement failures are *not*
exceptions: placers return rejection results, because a rejected tenant is
an expected outcome of admission control, not a programming error.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class TagError(ReproError):
    """Raised for malformed Tenant Application Graphs."""


class UnknownComponentError(TagError):
    """Raised when an edge or query references a component not in the TAG."""


class DuplicateComponentError(TagError):
    """Raised when a component name is added twice to one TAG."""


class DuplicateEdgeError(TagError):
    """Raised when the same directed edge is added twice to one TAG."""


class InvalidGuaranteeError(TagError):
    """Raised for negative or non-finite bandwidth guarantees."""


class InvalidSizeError(TagError):
    """Raised for non-positive component sizes."""


class TopologyError(ReproError):
    """Raised for malformed topology construction or queries."""


class LedgerError(ReproError):
    """Raised when the reservation ledger is used inconsistently.

    Note: *insufficient capacity* is reported via return values, not this
    exception.  LedgerError signals bugs such as releasing more bandwidth
    than was reserved.
    """


class ModelError(ReproError):
    """Raised for malformed hose / VOC / pipe abstractions."""


class SimulationError(ReproError):
    """Raised for inconsistent simulation configuration."""


class InferenceError(ReproError):
    """Raised for invalid inputs to the TAG inference pipeline."""


class EnforcementError(ReproError):
    """Raised for malformed enforcement-simulation setups."""


class EngineError(ReproError):
    """Raised for invalid scenario definitions or engine configuration."""


class ResultsError(ReproError):
    """Raised for results-store misuse: missing codecs, undecodable
    rows, or stores that cannot be opened."""
