"""Hilbert functions, regularity diagnostics, semi-regularity tests."""

import math
from math import comb
import time

import numpy as np
import pytest

from solvdeg import (
    HomogeneousInput,
    NotArtinian,
    NotHomogeneous,
    PolySystem,
    PolynomialRing,
    PrimeField,
    analyze_system,
    buchberger_oracle,
    degree_of_regularity,
    field_equations,
    hilbert_function,
    hilbert_function_profile,
    is_artinian,
    max_groebner_degree,
    regularity_from_hilbert,
    semiregular_test,
    solve,
    t_nonzerodivisor,
    top_system,
)
from solvdeg import analyze
from solvdeg.analyze import _rank_pass
from solvdeg.linalg import RowReducer, _back_substitute
from solvdeg.macaulay import SolveTimeout
from solvdeg.poly import monomials_of_degree
from solvdeg.presets import gap_quartic_system
from solvdeg.randsys import random_system
from solvdeg.verify import oracle_corpus

from conftest import (
    oracle_rank,
    oracle_rref_rows,
    oracle_standard_monomials,
    oracle_t_nonzerodivisor,
)

# p = 2^31 - 1 fails the float64 gate: the int64 path.
KERNEL_PRIMES = [2, 7, 7919, 2**31 - 1]


def _monomial_system(ring, *exps):
    return PolySystem(ring, tuple(ring.poly({e: 1}) for e in exps))


def test_hilbert_function_monomial_examples(ring_xy):
    F = _monomial_system(ring_xy, (2, 0), (0, 2))
    assert hilbert_function_profile(F, 4) == (1, 2, 1, 0, 0)
    G = _monomial_system(ring_xy, (4, 0), (2, 1), (0, 2))
    # brute-force monomial containment gives 1, 2, 2, 1, 0
    leads = [(4, 0), (2, 1), (0, 2)]
    expect = tuple(
        oracle_standard_monomials(leads, 2, d) for d in range(6)
    )
    assert expect == (1, 2, 2, 1, 0, 0)
    assert hilbert_function_profile(G, 5) == expect


def test_hilbert_function_three_quadrics(ring_xy):
    F = PolySystem(ring_xy, (
        ring_xy.poly({(2, 0): 1}),
        ring_xy.poly({(1, 1): 1}),
        ring_xy.poly({(0, 2): 1}),
    ))
    assert hilbert_function(F, 2) == 0


def test_hilbert_function_requires_homogeneous():
    gap = gap_quartic_system()
    with pytest.raises(NotHomogeneous):
        hilbert_function(gap, 2)


def test_hilbert_function_against_groebner_oracle(corpus):
    # rank-based values must equal standard-monomial counts of the top ideal
    for F in corpus[:15]:
        T = top_system(F)
        gb = buchberger_oracle(T)
        if not gb:
            continue
        leads = [g.leading_monomial.exps for g in gb]
        n = T.ring.n
        for d in range(0, 7):
            assert hilbert_function(T, d) == oracle_standard_monomials(
                leads, n, d
            ), (F, d)


# -- the Faugere-Lachartre rank against an explicit degree-d block ---------


def _explicit_block(F, d):
    """Rows u*f of the nonzero inputs of degree <= d, multiplied out term
    by term, over the degree-d monomials."""
    col = {m.exps: i for i, m in enumerate(monomials_of_degree(F.ring.n, d))}
    rows = []
    for f in F.polys:
        if f.is_zero() or f.degree > d:
            continue
        for u in monomials_of_degree(F.ring.n, d - f.degree):
            row = [0] * len(col)
            for m, c in (f * u).terms:
                row[col[m.exps]] = c.value
            rows.append(row)
    return rows


def _block_rank(F, d):
    """Rank of the explicit block: the pure-Python oracle when small,
    else a RowReducer fed the whole block in one add_rows call."""
    rows = _explicit_block(F, d)
    p = F.ring.modulus.p
    if not rows:
        return 0
    if len(rows) * len(rows[0]) <= 20_000:
        return oracle_rank(rows, p)
    eng = RowReducer(p, len(rows[0]))
    eng.add_rows(np.array(rows, dtype=np.int64))
    return eng.rank


def _echelon_leads(F, d):
    """Leading exponents of the inputs' RREF rows, per input degree <= d."""
    leads = {}
    for e in sorted(set(F.degrees)):
        if e > d:
            break
        group = PolySystem(F.ring, tuple(f for f in F.nonzero()
                                         if f.degree == e))
        monos = monomials_of_degree(F.ring.n, e)  # descending: lead first
        for row in oracle_rref_rows(_explicit_block(group, e),
                                    F.ring.modulus.p):
            lead = next(i for i, c in enumerate(row) if c)
            leads.setdefault(e, []).append(monos[lead].exps)
    return leads


@pytest.fixture
def extra_row_degrees(monkeypatch):
    """The degrees at which a rank pass takes extra rows, in order, from
    cold rank caches."""
    degrees = []
    extra_rows = analyze._RankPass._extra_rows

    def spy(self, d, *args):
        rows = extra_rows(self, d, *args)
        if rows is not None:
            degrees.append(d)
        return rows

    monkeypatch.setattr(analyze._RankPass, "_extra_rows", spy)
    _rank_pass.cache_clear()
    return degrees


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_graded_rank_mixed_degrees_with_colliding_leads(p,
                                                        extra_row_degrees):
    # Degrees 2, 3 and 4 in 4 variables: a multiple of a degree-2 lead is
    # also a multiple of a degree-3 or degree-4 lead, so the known pivot
    # rows must pick one row per lead column across the degree groups,
    # and the extra rows from the degree below only where no product of
    # any degree group leads.
    F = random_system(p, 4, [2, 3, 4, 3, 2], seed=61 + p % 97,
                      homogeneous=True)
    leads = _echelon_leads(F, 4)
    assert any(all(a <= b for a, b in zip(l2, lh))
               for l2 in leads[2] for e in (3, 4) for lh in leads[e])
    for d in range(9):
        assert _rank_pass(F).rank(d) == _block_rank(F, d), d
    assert extra_row_degrees
    # x0*x2^2 = x0*(x0*x1 + x2^2) - x1*x0^2 is the Schur row of a product
    # at degree 3, and the cubic's Schur row is x0*x2^2 + x3^3.  Fed in
    # one add_rows call with that product, the cubic would leave the
    # stored row x0*x2^2, a generator that loses x3^3.
    G = PolySystem(F.ring, (F.ring.poly({(2, 0, 0, 0): 1}),
                            F.ring.poly({(1, 1, 0, 0): 1, (0, 0, 2, 0): 1}),
                            F.ring.poly({(1, 0, 2, 0): 1, (0, 0, 0, 3): 1})))
    # A degree computed without the rows found below it, as after a
    # capped walk, has the same rank: the generators alone must span the
    # inputs.
    for H in (F, G):
        _rank_pass.cache_clear()
        for d in range(9):
            _rank_pass(H).found = None
            assert _rank_pass(H).rank(d) == _block_rank(H, d), (H, d)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_graded_rank_redundant_and_degenerate_inputs(p):
    # Duplicates, a scalar multiple, the zero polynomial and an input of
    # degree above d change nothing the explicit block does not show.
    F = random_system(p, 4, [2, 2, 3], seed=71 + p % 89, homogeneous=True)
    f0, f1, f2 = F.polys
    (high,) = random_system(p, 4, [6], seed=72, homogeneous=True).polys
    G = PolySystem(F.ring, (f0, f1, f0, f0 * (p - 1), F.ring.zero(), f2,
                            f1 * 2 if p > 2 else f1, high))
    for d in range(8):
        expect = _block_rank(G, d)
        assert _rank_pass(G).rank(d) == expect, d
        if d < 6:
            assert expect == _block_rank(F, d)
    assert _rank_pass(PolySystem(F.ring, (F.ring.zero(),))).rank(3) == 0


@pytest.mark.parametrize("n, m, p", [
    pytest.param(6, 8, 2, id="6-2"),
    pytest.param(7, 9, 7, id="7-7"),
    pytest.param(8, 10, 7919, id="8-7919"),
    pytest.param(6, 8, 2**31 - 1, id="6-2147483647"),
    pytest.param(6, 4, 7, id="6-4-7"),
    pytest.param(7, 2, 2**31 - 1, id="7-2-2147483647"),
])
def test_graded_rank_schur_complement_full_and_deficient(n, m, p,
                                                         extra_row_degrees):
    # Random quadrics.  With m = n + 2, below the degree of regularity the
    # Schur complement is rank deficient, at and above it the rank fills
    # every column, including the columns no known pivot covers.  With
    # m < n it stays deficient.  Extra rows come in at every degree from
    # 4 on: at d = 3, x_i times a generator s of degree 2 is a product,
    # so it leads no column that a product does not.
    F = random_system(p, n, [2] * m, seed=80 + n, homogeneous=True)
    seen = set()
    for d in range(2, 7):
        ncols = len(monomials_of_degree(n, d))
        free = oracle_standard_monomials(_echelon_leads(F, d)[2], n, d)
        rank = _rank_pass(F).rank(d)
        assert rank == _block_rank(F, d), d
        assert free > 0
        seen.add(rank == ncols)
        if rank == ncols and len(seen) == 2:
            break
    assert seen == ({False, True} if m > n else {False})
    assert extra_row_degrees == list(range(4, d + 1))
    # One call for one degree, from cold caches, computes the degrees
    # below it in a loop: past the first full degree the rank is the
    # column count, and below it the block's rank.
    _rank_pass.cache_clear()
    if m > n:
        assert _rank_pass(F).rank(40) == comb(n + 39, 40)
    else:
        assert _rank_pass(F).rank(6) == _block_rank(F, 6)


def test_analyze_computes_each_degree_of_each_system_once(monkeypatch):
    # The walk and the crypto test share F's rank pass, and the prefix
    # test checks F itself first, while that pass is cached: ascending
    # prefixes would evict it from _rank_pass's four entries before
    # reaching F, and compute its degrees again.
    calls = []
    degree_rank = analyze._RankPass._degree_rank

    def spy(self, d, *args):
        calls.append((self.F, d))
        return degree_rank(self, d, *args)

    monkeypatch.setattr(analyze._RankPass, "_degree_rank", spy)
    _rank_pass.cache_clear()
    F = random_system(7919, 6, [2] * 8, seed=1, homogeneous=True)
    rep = analyze_system(F, include_groebner=False)
    assert rep.pardue_prefix_semiregular is not None
    assert len(calls) == len(set(calls)) == 43


def test_rank_pass_deadline_holds_inside_a_degree(monkeypatch):
    # A deadline reached while a degree feeds its Schur rows stops the
    # degree at its next block.  The interrupted degree records nothing,
    # so the pass, asked again, gives the ranks of a fresh pass.
    F = random_system(7919, 6, [2] * 8, seed=1, homogeneous=True)
    fresh = analyze._RankPass(F)
    want = [fresh.rank(d) for d in range(8)]
    clock = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    feed = analyze.KnownPivotSplit.feed

    def expire_at_products(split, *args):
        if split.npiv:  # degree 3: the first with known pivots
            clock[0] = 1e9
        return feed(split, *args)

    monkeypatch.setattr(analyze.KnownPivotSplit, "feed", expire_at_products)
    _rank_pass.cache_clear()
    rank_pass = _rank_pass(F)
    with pytest.raises(SolveTimeout):
        hilbert_function(F, 7, deadline=10.0)
    assert rank_pass.ranks == want[:3]
    assert [e for e, _, _ in rank_pass.gens] == [2] * 8
    assert rank_pass.found is not None
    monkeypatch.setattr(analyze.KnownPivotSplit, "feed", feed)
    clock[0] = 0.0
    assert [rank_pass.rank(d, 10.0) for d in range(8)] == want


def test_back_substitute_rejects_backward_dependency():
    # Row 1 depending on row 0 would make the depth count circular.  The
    # callers never build such entries, so it is an internal error, not
    # bad input (which the CLI maps to exit 2).
    X = np.zeros((3, 2))
    with pytest.raises(RuntimeError, match="at or above"):
        _back_substitute(X, np.array([0, 1]), np.array([2, 0]),
                         np.array([1.0, 1.0]), 7)
    _back_substitute(X, np.array([0, 1]), np.array([2, 2]),
                     np.array([1.0, 1.0]), 7)


def test_degree_of_regularity_gap():
    assert degree_of_regularity(gap_quartic_system()) == 4


def test_degree_of_regularity_infinite(ring_xy):
    F = PolySystem(ring_xy, (ring_xy.poly({(2, 0): 1}),))
    assert degree_of_regularity(F) == math.inf


def test_degree_of_regularity_equals_top_regularity(corpus):
    for F in corpus[:12]:
        T = top_system(F)
        dreg = degree_of_regularity(F)
        ok, wit = is_artinian(T)
        if ok:
            assert dreg == wit == regularity_from_hilbert(T)
        else:
            assert dreg == math.inf


def test_is_artinian_examples(ring_xy):
    assert is_artinian(_monomial_system(ring_xy, (2, 0), (0, 2))) == (True, 3)
    assert is_artinian(_monomial_system(ring_xy, (2, 0))) == (False, None)
    assert is_artinian(
        _monomial_system(ring_xy, (4, 0), (2, 1), (0, 2))
    ) == (True, 4)


def test_unit_ideal_fills_degree_0(ring_xy):
    # {1, 2}: the Macaulay bound is -1, but degree 0 is always walked.
    F = PolySystem(ring_xy, (ring_xy.poly({(0, 0): 1}),
                             ring_xy.poly({(0, 0): 2})))
    assert is_artinian(F) == (True, 0)
    assert degree_of_regularity(F) == 0
    assert regularity_from_hilbert(F) == 0
    assert hilbert_function_profile(F, 2) == (0, 0, 0)


def test_unit_ideal_is_semiregular(ring_xy):
    three = ring_xy.poly({(0, 0): 3})
    x = ring_xy.poly({(1, 0): 1})
    F = PolySystem(ring_xy, (three, x))
    assert semiregular_test(F, "crypto") is True
    assert semiregular_test(F, "pardue_prefix") is True
    R1 = PolynomialRing(("x",), PrimeField(7))
    G = PolySystem(R1, (R1.poly({(2,): 1, (0,): 1}), R1.poly({(0,): 3})))
    assert semiregular_test(G, "inhomogeneous") is True
    rep = analyze_system(F)
    assert (rep.d_reg, rep.is_artinian, rep.artinian_witness_degree) == (
        0, True, 0)
    assert rep.hilbert_function == (0,)
    assert rep.max_groebner_degree == 0
    rep = analyze_system(G, include_groebner=False)
    assert rep.d_reg == 0 and rep.hilbert_function == (0,)
    assert rep.crypto_semiregular is True and rep.t_nonzerodivisor is True


def test_regularity_from_hilbert(ring_xy):
    F = _monomial_system(ring_xy, (2, 0), (0, 2), (1, 1))
    assert regularity_from_hilbert(F) == 2
    with pytest.raises(NotArtinian):
        regularity_from_hilbert(_monomial_system(ring_xy, (2, 0)))


def test_semiregular_examples(ring_xy):
    full = _monomial_system(ring_xy, (2, 0), (1, 1), (0, 2))
    assert semiregular_test(full, "crypto") is True
    partial = _monomial_system(ring_xy, (2, 0), (1, 1))
    assert semiregular_test(partial, "crypto") is False


def test_semiregular_modes_and_errors(ring_xy):
    gap = gap_quartic_system()
    with pytest.raises(NotHomogeneous):
        semiregular_test(gap, "crypto")
    with pytest.raises(NotHomogeneous):
        semiregular_test(gap, "pardue_prefix")
    # new-style inhomogeneous notion: the homogenization of a solvable
    # system is never Artinian, so the test comes out False here
    assert semiregular_test(gap, "inhomogeneous") is False
    with pytest.raises(ValueError):
        semiregular_test(gap, "bogus")


def test_pardue_prefix_implies_crypto():
    for seed in range(8):
        F = random_system(101, 3, [2, 2, 2, 2], seed=400 + seed,
                          homogeneous=True)
        if semiregular_test(F, "pardue_prefix"):
            assert semiregular_test(F, "crypto")


def test_t_nonzerodivisor_principal():
    R1 = PolynomialRing(("x",), PrimeField(7))
    F = PolySystem(R1, (R1.poly({(2,): 1, (0,): 1}),))  # x^2 + 1
    assert t_nonzerodivisor(F) is True
    G = PolySystem(R1, (R1.poly({(2,): 1, (1,): 1}),))  # x^2 + x
    assert t_nonzerodivisor(G) is True


def test_t_nonzerodivisor_rejects_homogeneous(ring_xy):
    F = _monomial_system(ring_xy, (2, 0), (0, 2))
    with pytest.raises(HomogeneousInput):
        t_nonzerodivisor(F)


def test_t_nzd_true_implies_sd_at_most_dreg():
    # When the homogenization variable is a nonzerodivisor, the measured
    # solving degree is bounded by the degree of regularity.  Random
    # systems essentially never take that branch (the condition forces the
    # input to be close to a basis already), so the positive cases are
    # built from field equations, whose coprime leading terms make them
    # bases outright.
    R3 = PolynomialRing(("x", "y"), PrimeField(3))
    cases = [PolySystem(R3, tuple(field_equations(R3)))]
    R2 = PolynomialRing(("x", "y"), PrimeField(2))
    fx, fy = field_equations(R2)
    cases.append(PolySystem(R2, (fx, fy, R2.poly({(1, 1): 1}))))
    checked = 0
    for G in cases:
        assert t_nonzerodivisor(G) is True
        sd = solve(G).solving_degree
        assert sd <= degree_of_regularity(G)
        checked += 1
    # and the typical random-system outcome is the False branch
    for seed in range(6):
        F = random_system(3, 2, [2, 2], seed=500 + seed)
        polys = list(F.polys) + field_equations(F.ring)
        G = PolySystem(F.ring, tuple(polys))
        if not G.is_homogeneous:
            assert t_nonzerodivisor(G) == oracle_t_nonzerodivisor(G)
    assert checked == 2


def test_t_nonzerodivisor_matches_strip_and_divide_oracle():
    # The Hilbert-function test against the strip-and-divide route it
    # replaced: the inhomogeneous oracle-corpus systems, the gap preset
    # and two GF(7919) quadric systems, with both outcomes present.
    systems = [F for F in oracle_corpus() if not F.is_homogeneous]
    systems.append(gap_quartic_system())
    systems += [random_system(7919, n, [2] * (n + 1), seed=1)
                for n in (4, 5)]
    outcomes = set()
    for i, F in enumerate(systems):
        got = t_nonzerodivisor(F)
        assert got == oracle_t_nonzerodivisor(F), i
        outcomes.add(got)
    assert outcomes == {True, False}


def test_maxgb_values(ring_xy):
    F = _monomial_system(ring_xy, (2, 0), (0, 2))
    assert max_groebner_degree(F) == 2


def test_maxgb_regular_quadrics_bounded():
    # 2 random quadrics in 2 vars over GF(101): Macaulay bound 3
    for seed in range(50):
        F = random_system(101, 2, [2, 2], seed=600 + seed)
        assert max_groebner_degree(F) <= 3


def test_maxgb_at_most_solving_degree(corpus):
    for F in corpus[:10]:
        rep = solve(F)
        assert rep.max_gb_degree <= rep.solving_degree


def test_analyze_system_bundle():
    gap = gap_quartic_system()
    rep = analyze_system(gap)
    assert rep.d_reg == degree_of_regularity(gap)
    assert rep.is_artinian and rep.artinian_witness_degree == rep.d_reg
    assert rep.crypto_semiregular is False  # homogenized notion
    assert rep.pardue_prefix_semiregular is None
    assert rep.t_nonzerodivisor == t_nonzerodivisor(gap)
    assert rep.max_groebner_degree == max_groebner_degree(gap)
    assert rep.hilbert_function == (1, 2, 2, 1, 0)


def test_analyze_bundle_internal_consistency(corpus):
    for F in corpus[:8]:
        rep = analyze_system(F)
        assert rep.is_artinian == (rep.d_reg != math.inf)
        if rep.is_artinian:
            assert rep.artinian_witness_degree == rep.d_reg
            assert rep.hilbert_function[-1] == 0
            assert all(v > 0 for v in rep.hilbert_function[:-1])
        if F.is_homogeneous:
            assert rep.t_nonzerodivisor is None
            assert rep.pardue_prefix_semiregular is not None
            if rep.pardue_prefix_semiregular:
                assert rep.crypto_semiregular
        else:
            assert rep.pardue_prefix_semiregular is None
            assert rep.t_nonzerodivisor is not None
        assert rep.max_groebner_degree is not None
        assert rep.max_groebner_degree <= solve(F).solving_degree


def test_analyze_homogeneous_bundle(ring_xy):
    # prefix mode is order-sensitive: with xy in the middle the length-2
    # prefix {x^2, xy} leaves y^d alive forever and fails its series
    F = _monomial_system(ring_xy, (2, 0), (1, 1), (0, 2))
    rep = analyze_system(F)
    assert rep.d_reg == 2
    assert rep.crypto_semiregular is True
    assert rep.pardue_prefix_semiregular is False
    assert rep.t_nonzerodivisor is None
    assert rep.hilbert_function == (1, 2, 0)
    # reordered so every prefix is semi-regular, the stronger test passes
    G = _monomial_system(ring_xy, (2, 0), (0, 2), (1, 1))
    rep2 = analyze_system(G)
    assert rep2.crypto_semiregular is True
    assert rep2.pardue_prefix_semiregular is True


def test_analyze_timeout_bounds_all_work():
    # The Hilbert-function loops, not only the solves, answer to the
    # deadline: at timeout=0 the call stops before its first degree.
    F = random_system(7919, 8, [2] * 10, seed=7800, homogeneous=True)
    start = time.monotonic()
    with pytest.raises(SolveTimeout):
        analyze_system(F, timeout=0)
    assert time.monotonic() - start < 1.0
    with pytest.raises(SolveTimeout):
        analyze_system(gap_quartic_system(), timeout=0)


@pytest.mark.parametrize("run", [solve, analyze_system, t_nonzerodivisor])
def test_timeout_zero_expires_on_a_frozen_clock(monkeypatch, run):
    # A deadline that has been reached counts as expired, even when the
    # clock has not moved since it was set.
    monkeypatch.setattr(time, "monotonic", lambda: 1000.0)
    with pytest.raises(SolveTimeout):
        run(gap_quartic_system(), timeout=0)
