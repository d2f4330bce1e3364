"""The paper's claims: one table behind `solvdeg verify-paper` and the
acceptance tests.

Each `Claim` recomputes a published or hand-derived value and compares it
exactly with the expected value; a claim with a budget must also finish
within that many seconds of wall time.  `--fast` skips the slow claims.
`evaluate` checks one claim, and `run_verification` checks the table and
prints one line per claim with its timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from random import Random
from typing import Callable, TextIO

from .analyze import (
    NotArtinian,
    degree_of_regularity,
    max_groebner_degree,
    regularity_from_hilbert,
    semiregular_test,
    t_nonzerodivisor,
)
from .bounds import (
    _egh_alpha,
    aci_bound,
    egh_bound,
    inhomogeneous_bound,
    macaulay_bound,
    macaulay_expansion,
    macaulay_shift,
    many_equations_bound,
    quadratic_regularity,
    regularity_from_series,
)
from .groebner import buchberger_oracle, normal_form, s_polynomial
from .macaulay import solve
from .poly import PolySystem, top_system
from .presets import (
    gap_quartic_system,
    pair_product_system,
    triple_product_system,
)
from .randsys import random_corpus, random_system
from .tabledata import reference_entries


@dataclass(frozen=True)
class Claim:
    """A check, the exact value it must return, and its wall budget."""

    name: str
    check: Callable[[], object]
    expected: object
    budget: float | None = None  # seconds
    slow: bool = False


@dataclass(frozen=True)
class Outcome:
    claim: Claim
    got: object
    seconds: float

    @property
    def passed(self) -> bool:
        budget = self.claim.budget
        return (self.got == self.claim.expected
                and (budget is None or self.seconds < budget))

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.claim.name} ({self.seconds:.2f}s)"
        if self.got != self.claim.expected:
            text += f"  (got {self.got!r}, expected {self.claim.expected!r})"
        elif not self.passed:
            text += f"  (over the {self.claim.budget:g}s budget)"
        return text


def oracle_corpus() -> list[PolySystem]:
    """The 100 seeded systems checked against the Buchberger oracle.

    They are also the GF(2), GF(7) and GF(101) systems of the
    `small-solve` benchmark workload.
    """
    return random_corpus(100, seed=20240808, first_seed=5000)


def _oracle_corpus_check() -> tuple[list[int], int, str]:
    """Systems whose basis differs from Buchberger's, S-polynomials of
    the solver's bases that do not reduce to zero, and the solving
    degrees, one digit per system."""
    mismatches, spair_failures, degrees = [], 0, ""
    for i, F in enumerate(oracle_corpus()):
        rep = solve(F)
        degrees += str(rep.solving_degree)
        basis = list(rep.basis)
        if basis != buchberger_oracle(F):
            mismatches.append(i)
            continue
        spair_failures += sum(
            not normal_form(s_polynomial(f, g), basis).is_zero()
            for k, f in enumerate(basis) for g in basis[:k])
    return mismatches, spair_failures, degrees


def _egh_window_violations() -> int:
    """How many of 10^4 random pairs (m, n) have an alpha outside its
    window C(n+1,2) - C(n-a,2) < m <= C(n+1,2) - C(n-a-1,2)."""
    rng = Random(2024)
    bad = 0
    for _ in range(10_000):
        n = rng.randrange(2, 200)
        m = rng.randrange(n, comb(n + 1, 2) + 1)
        a = _egh_alpha(n, m)
        total = comb(n + 1, 2)
        bad += not (total - comb(n - a, 2) < m <= total - comb(n - a - 1, 2))
    return bad


def _gap_solution() -> tuple[object, ...]:
    gap = gap_quartic_system()
    rep = solve(gap)
    return (tuple(str(g) for g in rep.basis), rep.solving_degree,
            degree_of_regularity(gap),
            semiregular_test(top_system(gap), "crypto"))


def _product_solutions() -> tuple[tuple[int, int, bool], ...]:
    """(solving degree, basis size, solving degree > d_reg) per system."""
    out = []
    for F in (triple_product_system(), pair_product_system()):
        rep = solve(F)
        out.append((rep.solving_degree, len(rep.basis),
                    rep.solving_degree > degree_of_regularity(F)))
    return tuple(out)


def _semiregular_predictions_hold() -> bool:
    """At least 95 of 100 random quadric systems (m = n+2, p = 7919) are
    crypto semi-regular with the tabulated regularity."""
    passes = 0
    for n, count in ((6, 34), (8, 33), (10, 33)):
        expect = reference_entries()[(2, n)]
        for s in range(count):
            F = random_system(7919, n, [2] * (n + 2), seed=7000 + 100 * n + s,
                              homogeneous=True)
            try:
                passes += (semiregular_test(F, "crypto")
                           and regularity_from_hilbert(F) == expect)
            except NotArtinian:
                pass
    return passes >= 95


CLAIMS: tuple[Claim, ...] = (
    Claim("series regularity r(12,10)",
          lambda: regularity_from_series(10, [2] * 12), 6),
    Claim("series regularity r(14,11)",
          lambda: regularity_from_series(11, [2] * 14), 5),
    Claim("closed form r(n+2,10)", lambda: quadratic_regularity(12, 10), 6),
    Claim("closed form r(n+3,11)", lambda: quadratic_regularity(14, 11), 5),
    Claim("closed form r(n+4,26)", lambda: quadratic_regularity(30, 26), 11),
    Claim("n+1 quadrics bound, n=9", lambda: aci_bound(9, [2] * 10), 6),
    Claim("n+1 cubics bound, n=5", lambda: aci_bound(5, [3] * 6), 7),
    Claim("large-m cubic bound, n=7", lambda: many_equations_bound(7, 3), 9),
    Claim("large-m quadric bound, n=20",
          lambda: many_equations_bound(20, 2), 8),
    Claim("large-m quadric bound, n=2", lambda: many_equations_bound(2, 2), 2),
    Claim("inhomogeneous quadrics m=n+1, n=6",
          lambda: inhomogeneous_bound(7, 6, [2] * 7), 8),
    Claim("inhomogeneous cubics m=n+1, n=4",
          lambda: inhomogeneous_bound(5, 4, [3] * 5), 11),
    Claim("inhomogeneous quadrics m=n+3, n=11",
          lambda: inhomogeneous_bound(14, 11, [2] * 14), 6),
    Claim("Macaulay bound, 3 quadrics in 3 vars",
          lambda: macaulay_bound(3, [2, 2, 2]), 4),
    Claim("Macaulay expansion 8 wrt 3",
          lambda: macaulay_expansion(8, 3).terms, ((4, 3), (3, 2), (1, 1))),
    Claim("Macaulay expansion 10 wrt 3",
          lambda: macaulay_expansion(10, 3).terms, ((5, 3), (1, 2), (0, 1))),
    Claim("Macaulay shift 8^(3)", lambda: macaulay_shift(8, 3), 2),
    Claim("Macaulay shift 10^(3)", lambda: macaulay_shift(10, 3), 5),
    Claim("EGH m=n recovers Macaulay bound (n=10)",
          lambda: egh_bound(10, 10), 11),
    Claim("EGH edges: m=n gives n+1, m=C(n+1,2) gives 2, n <= 100",
          lambda: [n for n in range(2, 101)
                   if egh_bound(n, n) != n + 1
                   or egh_bound(comb(n + 1, 2), n) != 2], []),
    Claim("EGH alpha window on 10^4 random (m, n) pairs",
          _egh_window_violations, 0),
    Claim("closed form == series, m-n in 2..5, n <= 500",
          lambda: [(r, n) for r in (2, 3, 4, 5) for n in range(2, 501)
                   if quadratic_regularity(n + r, n)
                   != regularity_from_series(n, [2] * (n + r))],
          [], budget=120.0),
    Claim("n+1 quadrics match floor((n+1)/2)+1, n <= 500",
          lambda: [n for n in range(2, 501)
                   if regularity_from_series(n, [2] * (n + 1))
                   != (n + 1) // 2 + 1], []),
    Claim("reference grid, every printed entry",
          lambda: [(k, n) for (k, n), v in reference_entries().items()
                   if regularity_from_series(n, [2] * (n + k)) != v],
          [], budget=60.0),
    Claim("solver == Buchberger on 100 seeded systems, S-pairs reduce, "
          "solving degrees", _oracle_corpus_check,
          ([], 0, "22343354433333334422323355322344343332334354433333"
                  "35442332336352324344543333437442333336442332345533"),
          budget=300.0),
    Claim("gap system: basis {y-1, x^4-1}, solving degree, d_reg, "
          "top parts crypto semi-regular", _gap_solution,
          (("1*x1 + 6*1", "1*x0^4 + 6*1"), 5, 4, True), budget=1.0),
    Claim("gap system: regularity of top ideal",
          lambda: regularity_from_hilbert(top_system(gap_quartic_system())),
          4),
    Claim("gap system: homogenization variable divides zero",
          lambda: t_nonzerodivisor(gap_quartic_system()), False),
    Claim("gap system: max basis degree",
          lambda: max_groebner_degree(gap_quartic_system()), 4),
    Claim("triple-product system: degree of regularity",
          lambda: degree_of_regularity(triple_product_system()), 15),
    Claim("pair-product system: degree of regularity",
          lambda: degree_of_regularity(pair_product_system()), 13),
    Claim("triple- and pair-product systems: solving degree above d_reg, "
          "basis size", _product_solutions,
          ((18, 5, True), (14, 8, True)), budget=900.0, slow=True),
    Claim("random quadric systems match tabulated regularity, 95 of 100",
          _semiregular_predictions_hold, True, slow=True),
)


def evaluate(claim: Claim) -> Outcome:
    """Run one claim's check and time it; an exception fails the claim."""
    t0 = time.perf_counter()
    try:
        got = claim.check()
    except Exception as exc:  # reported as a failed claim
        got = f"error: {exc!r}"
    return Outcome(claim, got, time.perf_counter() - t0)


def run_verification(fast: bool = False,
                     out: TextIO | None = None) -> list[Outcome]:
    """Evaluate every claim (skipping slow ones when fast), writing each
    outcome's line to `out` as it finishes."""
    outcomes = []
    for claim in CLAIMS:
        if fast and claim.slow:
            continue
        outcome = evaluate(claim)
        outcomes.append(outcome)
        if out is not None:
            out.write(outcome.line + "\n")
            out.flush()
    return outcomes
