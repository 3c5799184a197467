"""Runtime-dispatched hot-loop kernels (pure-Python or compiled).

The placement inner loops — the ledger's fused reservation adjusts, the
SecondNet path-link machinery, the per-tag Eq. 1 / VOC requirement
evaluation — live behind this package so the interpreter loop itself can
be swapped out without touching semantics:

``repro._kernels.pyref``
    The pure-Python reference implementation (always present).  It *is*
    the semantic contract; see its docstring for the exact record
    shapes and conventions.
``repro._kernels._ckernels``
    A hand-written C extension with bit-identical behavior, built
    opt-in with ``REPRO_BUILD_EXT=1 pip install -e .`` (or ``python
    setup.py build_ext --inplace``).

Backend selection happens once at import time from ``REPRO_KERNELS``:

=========  ==========================================================
``auto``   (default) the compiled backend when built, else pure Python
``py``     force the pure-Python kernels
``c``      force the compiled kernels; if the extension is not built,
           warn and fall back to pure Python
=========  ==========================================================

An extension that imports but lacks one of the kernels (a stale build
from before that kernel existed) counts as not built: ``auto`` and ``c``
warn, naming what is missing, and run pure Python.

Consumers (``topology/ledger.py``, ``temporal/admission.py``,
``placement/state.py``, ``placement/secondnet.py``) call through the
module attributes (``_kernels.ledger_adjust(...)``), which keeps the
dispatch cost at one attribute load and lets :func:`use_backend` rebind
the active backend in-process — the hook the differential parity suite
and the before/after benchmarks are built on.  The active backend is
surfaced in ``repro --version`` diagnostics and, whenever a ledger is
constructed under instrumentation, in the ``kernels.backend.<name>``
obs counter.
"""

from __future__ import annotations

import os
import warnings

from repro._kernels import pyref

__all__ = [
    "ENV_FLAG",
    "available_backends",
    "backend",
    "commit_pipes",
    "compiled_available",
    "eq1_requirement",
    "expand_edges",
    "kernels_info",
    "ledger_adjust",
    "note_backend",
    "path_link_ids",
    "pipes_feasible",
    "placed_peers",
    "rack_order",
    "temporal_adjust",
    "use_backend",
    "voc_requirement",
]

ENV_FLAG = "REPRO_KERNELS"
_CHOICES = ("auto", "py", "c")

_KERNEL_NAMES = (
    "ledger_adjust",
    "temporal_adjust",
    "path_link_ids",
    "expand_edges",
    "placed_peers",
    "rack_order",
    "pipes_feasible",
    "commit_pipes",
    "eq1_requirement",
    "voc_requirement",
)

try:  # The compiled backend is optional by design.
    from repro._kernels import _ckernels as _compiled
except ImportError:  # pragma: no cover - depends on the build
    _compiled = None


def _stale_reason(module: object | None) -> str | None:
    """Why a loaded extension cannot serve; ``None`` if it can or is absent."""
    if module is None:
        return None
    missing = [name for name in _KERNEL_NAMES if not hasattr(module, name)]
    if not missing:
        return None
    return (
        f"the compiled extension is stale: it lacks {', '.join(missing)} "
        f"(REPRO_BUILD_EXT=1 python setup.py build_ext --inplace rebuilds it)"
    )


# Set when an extension was found but ignored; 'repro version' shows it.
stale = _stale_reason(_compiled)
if stale is not None:
    _compiled = None


def _select_backend(
    requested: str, compiled_built: bool, stale: str | None = None
) -> tuple[str, str | None]:
    """Resolve a ``REPRO_KERNELS`` value to ``(backend, warning | None)``.

    Pure so the dispatch policy is unit-testable without rebuilding the
    extension or re-importing the package.  ``stale`` is
    :func:`_stale_reason`'s verdict on an extension that was found but
    cannot serve (``compiled_built`` is then false).
    """
    requested = (requested or "auto").strip().lower() or "auto"
    if requested not in _CHOICES:
        return (
            "c" if compiled_built else "py",
            f"unknown {ENV_FLAG}={requested!r} (expected auto/py/c); "
            f"using auto",
        )
    if requested == "py":
        return "py", None
    if compiled_built:
        return "c", None
    if stale is not None:
        return "py", f"{stale}; falling back to the pure-Python kernels"
    if requested == "c":
        return (
            "py",
            f"{ENV_FLAG}=c requested but the compiled extension is not "
            f"built; falling back to the pure-Python kernels "
            f"(REPRO_BUILD_EXT=1 pip install -e . builds it)",
        )
    return "py", None


requested = os.environ.get(ENV_FLAG, "auto")
compiled_available = _compiled is not None
backend, _warning = _select_backend(requested, compiled_available, stale)
if _warning is not None:
    warnings.warn(_warning, RuntimeWarning, stacklevel=2)


def use_backend(name: str) -> str:
    """Rebind the module-level kernel functions to one backend.

    ``name`` follows the ``REPRO_KERNELS`` vocabulary.  Forcing ``c``
    without the extension built raises instead of warning — in-process
    callers (tests, benchmarks) want a hard failure, not a silent py
    run.  Returns the backend now active.
    """
    global backend
    if name not in _CHOICES:
        raise ValueError(f"unknown kernel backend {name!r} (expected auto/py/c)")
    if name == "c" and _compiled is None:
        raise RuntimeError(
            "compiled kernels are not built (REPRO_BUILD_EXT=1 pip "
            "install -e . builds them)"
        )
    backend, _ = _select_backend(name, compiled_available)
    impl = _compiled if backend == "c" else pyref
    for fn in _KERNEL_NAMES:
        globals()[fn] = getattr(impl, fn)
    return backend


def available_backends() -> tuple[str, ...]:
    return ("py", "c") if compiled_available else ("py",)


def kernels_info() -> dict:
    """Diagnostics for ``repro --version`` and the tests."""
    return {
        "backend": backend,
        "requested": (requested or "auto").strip().lower() or "auto",
        "compiled_available": compiled_available,
        "stale": stale,
        "env": ENV_FLAG,
    }


def note_backend() -> None:
    """Bump the ``kernels.backend.<name>`` obs counter (if collecting).

    Called from the ledger constructors, so an instrumented run records
    which backend actually served it.
    """
    from repro.obs import core as _obs

    c = _obs.counters
    if c is not None:
        c.bump(f"kernels.backend.{backend}")


# Bind the selected backend's functions as module attributes.
use_backend(backend)
