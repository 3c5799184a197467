"""The undo log a commit drops, captured for the tests that read it.

A committed allocation keeps no undo log: ``TenantAllocation._commit``
empties its journal and state ops.  A test that pins what a search
journalled reads the log here instead — as ``_commit`` saw it, just
before dropping it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.placement.state import TenantAllocation


@contextmanager
def committed_logs() -> Iterator[dict]:
    """While open, every commit records ``(journal ops, state ops)``.

    Yields ``{allocation: [(ops, state_ops), ...]}``, one pair per
    commit of that allocation, in commit order (subclasses included).
    """
    logs: dict = {}
    commit = TenantAllocation._commit

    def capturing(self):
        logs.setdefault(self, []).append(
            (list(self.journal.ops), list(self._state_ops))
        )
        commit(self)

    TenantAllocation._commit = capturing
    try:
        yield logs
    finally:
        TenantAllocation._commit = commit
