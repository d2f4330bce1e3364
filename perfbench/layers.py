"""Per-layer tracing for the benchmark, from outside the program.

``LayerProbe`` replaces public functions of solvdeg's modules with timing
wrappers, on the module or class where the callers look them up, and
puts the originals back on ``restore``.  The wrappers add busy seconds,
call counts and work counts to a plain dict of layer totals, keyed by the
metric names the benchmark reports.  Nothing is wrapped unless
``install`` is called, so an untraced pass runs the program untouched.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from solvdeg import analyze, bounds, groebner, linalg, macaulay


def new_totals() -> defaultdict:
    return defaultdict(float)


def _timed(fn, totals, key):
    """Wrap fn so each call adds to totals[key_s] and totals[key_calls]."""
    seconds, calls = key + "_s", key + "_calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[seconds] += perf_counter() - t
            totals[calls] += 1

    return wrapper


def _mod_p(fn, totals):
    @functools.wraps(fn)
    def wrapper(a, p):
        t = perf_counter()
        try:
            return fn(a, p)
        finally:
            totals["linalg.mod_p_s"] += perf_counter() - t
            totals["linalg.mod_p_calls"] += 1
            # Computed from the array size, not measured memory traffic.
            totals["linalg.mod_p_bytes"] += a.nbytes

    return wrapper


def _add_rows(fn, totals):
    @functools.wraps(fn)
    def wrapper(self, rows):
        rank0 = self.rank
        mod0 = totals["linalg.mod_p_s"]
        t = perf_counter()
        try:
            return fn(self, rows)
        finally:
            dt = perf_counter() - t
            totals["linalg.add_rows_s"] += dt
            totals["linalg.other_s"] += dt - (totals["linalg.mod_p_s"] - mod0)
            totals["linalg.add_rows_calls"] += 1
            totals["linalg.rows_in"] += rows.shape[0]
            totals["linalg.pivots"] += self.rank - rank0

    return wrapper


def _reducer_init(fn, totals):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        totals["linalg.reducers_built"] += 1
        return fn(self, *args, **kwargs)

    return wrapper


def _wrapper_factories():
    """(owner, attribute, factory(original, totals)) for every wrapped name."""
    return [
        (linalg, "mod_p", _mod_p),
        (linalg.RowReducer, "__init__", _reducer_init),
        (linalg.RowReducer, "add_rows", _add_rows),
        (macaulay, "is_groebner_basis",
         lambda fn, t: _timed(fn, t, "groebner.certify")),
        (macaulay, "reduce_basis",
         lambda fn, t: _timed(fn, t, "groebner.reduce_basis")),
        (groebner, "normal_form",
         lambda fn, t: _timed(fn, t, "groebner.normal_form")),
        (analyze, "hilbert_function",
         lambda fn, t: _timed(fn, t, "analyze.hilbert")),
        (bounds, "regularity_from_series",
         lambda fn, t: _timed(fn, t, "bounds.series")),
        (bounds, "quadratic_regularity",
         lambda fn, t: _timed(fn, t, "bounds.closed_form")),
    ]


class LayerProbe:
    """Installs and removes the layer wrappers."""

    def __init__(self):
        self._targets = [
            (owner, name, owner.__dict__[name], factory)
            for owner, name, factory in _wrapper_factories()
        ]

    def install(self, totals) -> None:
        for owner, name, original, factory in self._targets:
            setattr(owner, name, factory(original, totals))

    def restore(self) -> None:
        for owner, name, original, _ in self._targets:
            setattr(owner, name, original)

    def is_clean(self) -> bool:
        """True when every wrapped name holds its original again."""
        return all(owner.__dict__[name] is original
                   for owner, name, original, _ in self._targets)
