"""One cooperative deadline per call, held in a context variable.

solve, analyze_system and t_nonzerodivisor each run their whole call in
one deadline_after(timeout) scope.  The work below them calls
check_deadline() at its check points (each solve degree, each block of
Schur rows and of a read-back, each S-pair division, each Hilbert value
and rank-pass degree) and learns nothing else about the deadline.

A nested scope never outlives the one around it: it keeps the earlier
of the two deadlines, and timeout=None keeps the enclosing deadline, or
none at top level.  Leaving a scope, normally or by an exception,
restores the deadline it found.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar


class SolveTimeout(RuntimeError):
    """The cooperative deadline expired; carries the partial trace."""

    def __init__(self, message: str, trace: tuple):
        super().__init__(message)
        self.trace = trace


# A time.monotonic() value, or None for no deadline.
_deadline: ContextVar[float | None] = ContextVar("deadline", default=None)


@contextmanager
def deadline_after(timeout: float | None):
    """Run the block with a deadline `timeout` seconds from now, or the
    enclosing one if that is earlier or `timeout` is None."""
    deadline = _deadline.get()
    if timeout is not None:
        own = time.monotonic() + timeout
        deadline = own if deadline is None else min(deadline, own)
    token = _deadline.set(deadline)
    try:
        yield
    finally:
        _deadline.reset(token)


def check_deadline() -> None:
    """Raise SolveTimeout once the deadline is reached: a deadline equal
    to the clock counts as expired, so timeout=0 always stops."""
    deadline = _deadline.get()
    if deadline is not None and time.monotonic() >= deadline:
        raise SolveTimeout("deadline expired", ())
