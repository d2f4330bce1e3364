"""Bounds: series, closed forms, expansions, EGH windows, reference grid."""

import random
from math import comb

import pytest

from solvdeg.bounds import (
    OutOfRange,
    PreconditionViolated,
    TruncatedSeries,
    Underdetermined,
    UnsupportedGap,
    _egh_alpha,
    aci_bound,
    egh_bound,
    egh_bound_inhomogeneous,
    egh_bound_weil,
    egh_bound_weil_inhomogeneous,
    inhomogeneous_bound,
    macaulay_bound,
    macaulay_expansion,
    macaulay_shift,
    many_equations_bound,
    quadratic_regularity,
    regularity_from_series,
    regularity_table,
    render_table_tsv,
    semiregular_series,
    truncate_positive,
)

from conftest import oracle_series


# -- truncation ------------------------------------------------------------------


def test_truncate_examples():
    assert truncate_positive(TruncatedSeries((1, 2, -1, 1))).coeffs == (1, 2)
    assert truncate_positive(TruncatedSeries((1, 2, 0, 5))).coeffs == (1, 2)
    assert truncate_positive(TruncatedSeries((0, 3))).coeffs == (0,)
    assert truncate_positive(TruncatedSeries((-2, 3))).coeffs == (0,)
    assert truncate_positive(TruncatedSeries((4,))).coeffs == (4,)


def test_truncate_cubed_binomial_product():
    # (1-z)(1+z)^3 = 1 + 2z - 2z^3 - z^4, truncating to [1, 2]
    raw = oracle_series(2, [2, 2, 2], 6)
    assert raw[:5] == [1, 2, 0, -2, -1]
    assert truncate_positive(TruncatedSeries(tuple(raw))).coeffs == (1, 2)


# -- series ----------------------------------------------------------------------


def test_semiregular_series_examples():
    assert semiregular_series(2, [2, 2, 2]).coeffs == (1, 2)
    assert semiregular_series(2, [2, 2]).coeffs == (1, 2, 1)
    assert semiregular_series(3, [2, 2, 2, 2]).coeffs == (1, 3, 2)


def test_series_against_naive_oracle():
    rng = random.Random(3)
    from solvdeg.bounds import quotient_series_coeffs

    for _ in range(40):
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 7)
        degrees = sorted(rng.choice((2, 3, 4)) for _ in range(m))
        cap = sum(d - 1 for d in degrees) + 1
        assert quotient_series_coeffs(n, degrees, cap) == oracle_series(
            n, degrees, cap
        )


def test_regularity_from_series_examples():
    assert regularity_from_series(2, [2, 2]) == 3
    assert regularity_from_series(2, [2]) is None  # underdetermined


def test_quadratic_fast_path_matches_generic():
    # all-quadric systems take a binomial shortcut; spot-check against the
    # generic series machinery
    from solvdeg.bounds import quotient_series_coeffs

    for n in range(2, 25):
        for k in range(0, 6):
            m = n + k
            cap = m + 1
            coeffs = quotient_series_coeffs(n, [2] * m, cap)
            first = next((i for i, c in enumerate(coeffs) if c <= 0), None)
            assert regularity_from_series(n, [2] * m) == first


# -- closed forms -----------------------------------------------------------------


def test_quadratic_regularity_equals_series_small():
    for r in (2, 3, 4, 5):
        for n in range(2, 80):
            assert quadratic_regularity(n + r, n) == regularity_from_series(
                n, [2] * (n + r)
            ), (r, n)


def test_quadratic_regularity_gap_validation():
    with pytest.raises(UnsupportedGap):
        quadratic_regularity(11, 10)
    with pytest.raises(UnsupportedGap):
        quadratic_regularity(16, 10)


def test_macaulay_bound():
    assert macaulay_bound(2, [2, 2, 3, 3]) == 5
    assert macaulay_bound(2, [2, 2]) == 3 == regularity_from_series(2, [2, 2])
    with pytest.raises(Underdetermined):
        macaulay_bound(3, [2, 2])


def test_regular_sequence_regularity_is_macaulay_bound():
    # for m = n the series regularity must equal the Macaulay bound
    import itertools

    for n in range(1, 7):
        for degrees in itertools.combinations_with_replacement((2, 3, 4), n):
            assert regularity_from_series(n, list(degrees)) == macaulay_bound(
                n, list(degrees)
            ), (n, degrees)


def test_aci_bound():
    assert aci_bound(2, [2, 2, 2]) == 2 == regularity_from_series(2, [2, 2, 2])
    with pytest.raises(PreconditionViolated):
        aci_bound(2, [2, 2, 9])
    with pytest.raises(ValueError):
        aci_bound(3, [2, 2, 2])


def test_aci_consistency_with_series():
    # n+1 quadrics: floor((n+1)/2) + 1 against the series, a wide sweep
    for n in range(2, 120):
        assert aci_bound(n, [2] * (n + 1)) == (n + 1) // 2 + 1
        assert regularity_from_series(n, [2] * (n + 1)) == (n + 1) // 2 + 1


def test_many_equations_bound():
    with pytest.raises(UnsupportedGap):
        many_equations_bound(5, 4)


def test_inhomogeneous_bound():
    # cubic cases: m = n+2 via the generic route equals n+3
    assert inhomogeneous_bound(8, 6, [3] * 8) == 9
    assert inhomogeneous_bound(12, 6, [3] * 12) == 9
    # large quadratic m
    assert inhomogeneous_bound(40, 10, [2] * 40) == many_equations_bound(11, 2)
    with pytest.raises(Underdetermined):
        inhomogeneous_bound(5, 5, [2] * 5)
    with pytest.raises(UnsupportedGap):
        inhomogeneous_bound(9, 5, [2] * 8 + [3])


# -- Macaulay expansions ------------------------------------------------------------


def test_expansion_examples():
    assert macaulay_expansion(0, 5).terms == ()
    assert macaulay_shift(0, 5) == 0


def test_expansion_round_trip_sweep():
    for d in range(1, 11):
        for ell in range(0, 3000):
            e = macaulay_expansion(ell, d)
            assert e.value == ell
            tops = [a for a, _ in e.terms]
            assert tops == sorted(tops, reverse=True)
            assert len(set(tops)) == len(tops)
            assert all(a >= 0 for a in tops)


def test_expansion_round_trip_random_large():
    rng = random.Random(8)
    for _ in range(800):
        d = rng.randrange(1, 11)
        ell = rng.randrange(3000, 100001)
        e = macaulay_expansion(ell, d)
        assert e.value == ell
        tops = [a for a, _ in e.terms]
        assert tops == sorted(tops, reverse=True) and len(set(tops)) == len(tops)


# -- EGH windows ----------------------------------------------------------------------


def test_egh_examples():
    assert egh_bound_weil(2, 3, 15) == 5
    with pytest.raises(OutOfRange):
        egh_bound(comb(11, 2) + 1, 10)
    with pytest.raises(OutOfRange):
        egh_bound(9, 10)


def test_egh_window_inequalities_random():
    rng = random.Random(17)
    for _ in range(2000):
        n = rng.randrange(2, 120)
        m = rng.randrange(n, comb(n + 1, 2) + 1)
        a = _egh_alpha(n, m)
        total = comb(n + 1, 2)
        assert total - comb(n - a, 2) < m <= total - comb(n - a - 1, 2)
        assert egh_bound(m, n) == n - a


def test_egh_inhomogeneous_and_weil_variants():
    # inhomogeneous window lives one variable up
    for n in (3, 7, 12):
        for m in (n, n + 1, 2 * n, comb(n + 2, 2)):
            assert egh_bound_inhomogeneous(m, n) == (n + 1) - _egh_alpha(n + 1, m)
    assert egh_bound_weil_inhomogeneous(2, 3, 15) == 9 - _egh_alpha(9, 15)


# -- reference grid ---------------------------------------------------------------------


def test_table_generation_and_layout():
    ks = [2, 3, 4]
    ns = [2, 3, 4, 5]
    table = regularity_table(ks, ns)
    assert table[0] == [2, 3, 3, 3]
    tsv = render_table_tsv(ks, ns, table)
    lines = tsv.strip().splitlines()
    assert lines[0] == "k/n\t2\t3\t4\t5"
    assert lines[1].startswith("2\t2\t3\t3")


def test_table_monotonicity_full_grid():
    # non-increasing down a column (more equations), non-decreasing along
    # a row (more variables), over the whole generated 2..100 grid
    ks = list(range(2, 101))
    ns = list(range(2, 101))
    table = regularity_table(ks, ns)
    for i in range(len(ks) - 1):
        for j in range(len(ns)):
            assert table[i + 1][j] <= table[i][j]
    for i in range(len(ks)):
        for j in range(len(ns) - 1):
            assert table[i][j] <= table[i][j + 1]
