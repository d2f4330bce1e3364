"""Acceptance gate: every claim of `solvdeg.verify.CLAIMS`, slow ones
included, plus the Hilbert-function oracle check.  The gap and product
system claims run under their criterion numbers 4 and 5.

Each test prints one PASS line (visible with -s or in failure output).
"""

import pytest

from solvdeg import buchberger_oracle, hilbert_function, top_system
from solvdeg.verify import CLAIMS, Claim, evaluate, oracle_corpus

from conftest import oracle_standard_monomials


# Claims that keep a criterion test of their own, by number.
_CRITERIA = {
    4: "gap system: basis {y-1, x^4-1}, solving degree, d_reg, "
       "top parts crypto semi-regular",
    5: "triple- and pair-product systems: solving degree above d_reg, "
       "basis size",
}
_TABLE = [c for c in CLAIMS if c.name not in _CRITERIA.values()]


def _check(claim):
    outcome = evaluate(claim)
    print(outcome.line)
    assert outcome.passed, outcome.line


def _criterion(num):
    (claim,) = [c for c in CLAIMS if c.name == _CRITERIA[num]]
    _check(claim)


@pytest.mark.parametrize("claim", _TABLE, ids=[c.name for c in _TABLE])
def test_claim(claim):
    _check(claim)


def test_criterion_04_gap_example_exact():
    _criterion(4)


def test_criterion_05_large_f7_examples():
    _criterion(5)


def test_failed_claims_say_why():
    # The gate's failure path: a wrong value, an overrun budget and a
    # check that raises each fail the claim, and its line says why.
    def broken():
        raise ValueError("no value")

    wrong, slow, error = (evaluate(c) for c in (
        Claim("wrong", lambda: 2, 3),
        Claim("slow", lambda: 3, 3, budget=0.0),
        Claim("error", broken, 3)))
    assert not (wrong.passed or slow.passed or error.passed)
    assert wrong.line.startswith("[FAIL] wrong (")
    assert wrong.line.endswith("s)  (got 2, expected 3)")
    assert slow.got == 3
    assert slow.line.endswith("s)  (over the 0s budget)")
    assert error.got == "error: ValueError('no value')"
    assert error.line.endswith(
        "s)  (got \"error: ValueError('no value')\", expected 3)")


def test_criterion_09_hilbert_oracle():
    bad = 0
    checked = 0
    for F in oracle_corpus()[:40]:
        T = top_system(F)
        gb = buchberger_oracle(T)
        if not gb:
            continue
        leads = [g.leading_monomial.exps for g in gb]
        for d in range(0, 7):
            expect = oracle_standard_monomials(leads, T.ring.n, d)
            if hilbert_function(T, d) != expect:
                bad += 1
            checked += 1
    ok = bad == 0 and checked > 100
    print(f"ACCEPTANCE 9: {'PASS' if ok else 'FAIL'} - rank-based Hilbert "
          f"function == standard-monomial counts on {checked} (system, "
          f"degree) pairs; mismatches: {bad}")
    assert ok
