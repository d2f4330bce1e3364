"""Serialise the solver's observable output, to compare two checkouts.

Writes one JSON file holding, for the gap, pair and triple presets and
the 120-system corpus of the `small-solve` benchmark workload, the
per-degree trace (degree, rows, cols, rank, degree_falls), the solving
degree and the reduced basis; and the Hilbert profiles of the six
`semireg-sweep` systems, of the top systems of the corpus (p in {2, 7,
101, 2^31-1}, degrees 2 and 3 mixed) and of the three presets' top
systems; and the analysis report `analyze_system(F,
include_groebner=False)` of the three presets and of the corpus.  It
prints two SHA-256 digests: `full` of the JSON as written, and `results`
of the same JSON without the per-degree `rows` and `degree_falls`
columns, which count the solver's work rather than its answers.  A
refactor that must not change results gives the same `full` digest on
both checkouts; one that changes how many rows the solver feeds, on
purpose, must still give the same `results` digest:

    PYTHONPATH=<old checkout>/src python tools/output_fingerprint.py old.json
    PYTHONPATH=src python tools/output_fingerprint.py new.json
    cmp old.json new.json

The triple preset dominates the run time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys

from solvdeg import solve
from solvdeg.analyze import (
    analyze_system,
    hilbert_function_profile,
    is_artinian,
)
from solvdeg.presets import (
    gap_quartic_system,
    pair_product_system,
    triple_product_system,
)
from solvdeg.poly import top_system
from solvdeg.randsys import random_system


def _solve_record(F) -> dict | str:
    try:
        rep = solve(F)
    except Exception as exc:  # a failure is part of the output to compare
        return repr(exc)
    return {
        "trace": [[t.degree, t.rows, t.cols, t.rank, t.degree_falls]
                  for t in rep.trace],
        "solving_degree": rep.solving_degree,
        "basis": [[(list(m.exps), c.value) for m, c in g.terms]
                  for g in rep.basis],
    }


def _analysis_record(F) -> dict | str:
    try:
        rep = analyze_system(F, include_groebner=False)
    except Exception as exc:  # a failure is part of the output to compare
        return repr(exc)
    return dataclasses.asdict(rep)


def _top_profile(F) -> list[int]:
    """Hilbert function of F's top system through its first zero, or
    through four degrees past its largest input degree."""
    T = top_system(F)
    artinian, witness = is_artinian(T)
    dmax = witness if artinian else max(T.degrees) + 4
    return list(hilbert_function_profile(T, dmax))


def _small_solve_corpus() -> list:
    """The `small-solve` workload's systems, generated the same way."""
    rng = random.Random(20240808)
    systems = []
    for i in range(120):
        p = (2, 7, 101)[i % 3] if i < 100 else 2**31 - 1
        n = (1, 2, 3)[(i // 3) % 3]
        m = n + (i % 3)
        degrees = [rng.choice((2, 3)) for _ in range(max(m, 1))]
        systems.append(random_system(p, n, degrees, seed=5000 + i))
    return systems


def fingerprint() -> dict:
    out = {}
    for label, F in [("gap", gap_quartic_system()),
                     ("pair", pair_product_system()),
                     ("triple", triple_product_system())]:
        out[label] = _solve_record(F)
        out[f"hilbert_{label}"] = _top_profile(F)
        out[f"analysis_{label}"] = _analysis_record(F)
    for i, F in enumerate(_small_solve_corpus()):
        out[f"small{i}"] = _solve_record(F)
        out[f"hilbert_small{i}"] = _top_profile(F)
        out[f"analysis_small{i}"] = _analysis_record(F)
    for n in (6, 8, 10):
        for s in (0, 1):
            F = random_system(7919, n, [2] * (n + 2),
                              seed=7000 + 100 * n + s, homogeneous=True)
            out[f"hilbert{n}_{s}"] = list(
                hilbert_function_profile(F, 6 if n == 10 else 5))
    return out


def _results_only(out: dict) -> dict:
    """`out` with each trace entry cut to (degree, cols, rank); records
    without a trace pass through."""
    return {
        key: ({**rec, "trace": [[t[0], t[2], t[3]] for t in rec["trace"]]}
              if isinstance(rec, dict) and "trace" in rec else rec)
        for key, rec in out.items()
    }


def _digest(out: dict) -> str:
    return hashlib.sha256(
        json.dumps(out, sort_keys=True).encode()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    out = fingerprint()
    with open(argv[1], "w") as f:
        f.write(json.dumps(out, sort_keys=True))
    print("full   ", _digest(out))
    print("results", _digest(_results_only(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
