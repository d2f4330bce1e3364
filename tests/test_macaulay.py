"""Macaulay matrices, the no-swap solver, and the Buchberger oracle."""

import json
import random
import time
from math import comb

import numpy as np
import pytest

from solvdeg import (
    DegreeCapExceeded,
    PolySystem,
    SolveTimeout,
    buchberger_oracle,
    is_groebner_basis,
    normal_form,
    reduce_basis,
    s_polynomial,
    solve,
)
from solvdeg import macaulay
from solvdeg.analyze import regularity_from_hilbert, semiregular_test
from solvdeg.linalg import RowReducer
from solvdeg.macaulay import _Elimination, _extract_reduced_basis, _monic_terms
from solvdeg.poly import Monomial, monomials_up_to
from solvdeg.presets import (
    gap_quartic_system,
    pair_product_system,
    triple_product_system,
)
from solvdeg.randsys import random_system
from solvdeg.verify import oracle_corpus

from conftest import oracle_rank


def _product_rows(F, d):
    """The rows u*f_j of degree <= d, by source, multipliers ascending.

    Built apart from the solver: each product by Polynomial * Monomial,
    its terms placed by exponent lookup over monomials_up_to(n, d).
    """
    n = F.ring.n
    col_of = {m.exps: i for i, m in enumerate(monomials_up_to(n, d))}
    rows = []
    for f in F.nonzero():
        for u in reversed(monomials_up_to(n, d - f.degree)):
            row = np.zeros(len(col_of), dtype=np.int64)
            for m, c in (f * u).terms:
                row[col_of[m.exps]] = c.value
            rows.append(row)
    return np.array(rows)


def _no_swap_rref(rows, p):
    """Row k of rows after elimination without row swaps: the content of
    the pivot slot it filled, or None if it reduced to zero."""
    eng = RowReducer(p, rows.shape[1])
    slots = eng.add_rows(rows)
    reduced = iter(eng.reduced_rows([s for s in slots if s is not None]))
    return [None if slot is None else next(reduced) for slot in slots]


def test_rref_identity_pattern_unchanged(ring_xy):
    F = PolySystem(ring_xy, (ring_xy.poly({(2, 0): 1}), ring_xy.poly({(0, 2): 1})))
    rows = _product_rows(F, 2)
    R = _no_swap_rref(rows, 7)
    assert all(np.array_equal(r, m) for r, m in zip(R, rows, strict=True))


def test_rref_single_elimination(ring_xy):
    F = PolySystem(ring_xy, (
        ring_xy.poly({(2, 0): 1, (0, 2): 1}),
        ring_xy.poly({(0, 2): 1}),
    ))
    columns = monomials_up_to(2, 2)
    rows = [
        {columns[i].exps: int(v) for i, v in enumerate(row) if v}
        for row in _no_swap_rref(_product_rows(F, 2), 7)
    ]
    assert rows == [{(2, 0): 1}, {(0, 2): 1}]


def test_rref_rank_matches_permutation_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        data = rng.integers(0, 7, (20, 30)).astype(np.int64)
        eng = RowReducer(7, 30)
        eng.add_rows(data)
        assert eng.rank == oracle_rank(data.tolist(), 7)


def test_rref_no_swap_row_correspondence(ring_xy):
    # The no-swap semantics, stated row by row: row k comes out zero
    # exactly when it depends on the rows before it, and otherwise its
    # pivot column is the leading column of row k reduced against those
    # earlier rows.  (A swapping eliminator has neither property.)
    p = 7
    gap = gap_quartic_system()
    rows = _product_rows(gap, 5)
    R = _no_swap_rref(rows, p)
    data = rows.tolist()

    echelon: list[list[int]] = []  # oracle RREF of the prefix rows

    def reduce_against(row):
        row = row[:]
        for e in echelon:
            lead = next(i for i, v in enumerate(e) if v)
            if row[lead]:
                f = row[lead]
                row = [(a - f * b) % p for a, b in zip(row, e)]
        return row

    for k, rin in enumerate(data):
        reduced = reduce_against(rin)
        out = [0] * len(rin) if R[k] is None else [int(v) for v in R[k]]
        if not any(reduced):
            assert not any(out), f"row {k} should have vanished"
        else:
            lead = next(i for i, v in enumerate(reduced) if v)
            out_lead = next(i for i, v in enumerate(out) if v)
            assert out_lead == lead, f"row {k} pivot moved"
            inv = pow(reduced[lead], -1, p)
            norm = [(v * inv) % p for v in reduced]
            # keep the oracle echelon reduced the same way
            echelon.append(norm)
            for e in echelon[:-1]:
                if e[lead]:
                    f = e[lead]
                    e[:] = [(a - f * b) % p for a, b in zip(e, norm)]
    # and the output rows span exactly the input row space
    assert oracle_rank([r for r in data], p) == oracle_rank(
        [[int(v) for v in row] for row in R if row is not None], p
    )


def test_solve_already_groebner(ring_xy):
    F = PolySystem(ring_xy, (ring_xy.poly({(2, 0): 1}), ring_xy.poly({(0, 2): 1})))
    rep = solve(F)
    assert rep.solving_degree == 2
    assert rep.stop_reason == "spair_check"
    assert [str(g) for g in rep.basis] == ["1*x1^2", "1*x0^2"]
    assert rep.max_gb_degree == 2


def test_solve_gap_system_exact():
    gap = gap_quartic_system()
    rep = solve(gap)
    assert rep.solving_degree == 5
    assert rep.max_gb_degree == 4
    basis = [
        {(m.exps, c.value) for m, c in g.terms} for g in rep.basis
    ]
    assert basis == [
        {((0, 1), 1), ((0, 0), 6)},       # y - 1
        {((4, 0), 1), ((0, 0), 6)},       # x^4 - 1
    ]
    # the degree-4 pass must have run and failed the certificate
    assert rep.trace[0].degree == 4 and rep.trace[-1].degree == 5
    assert rep.solving_degree >= max(f.degree for f in gap.polys)


@pytest.mark.parametrize("system, expected", [
    (gap_quartic_system, (5, 2)),
    (pair_product_system, (14, 8)),
    (triple_product_system, (18, 5)),
])
def test_presets_solving_degree_and_basis_size(system, expected):
    rep = solve(system())
    assert (rep.solving_degree, len(rep.basis)) == expected


@pytest.fixture
def split_every_degree(monkeypatch):
    # Small degrees take no known pivots by default; here every degree
    # goes through the known-pivot split, however few its rows.
    monkeypatch.setattr(macaulay, "_SPLIT_ROWS", 0)


def _elimination(F, d):
    polys = [f for f in F.polys if not f.is_zero()]
    return _Elimination(_monic_terms(polys), d, F.ring.modulus.p)


def _row_space(elim, p):
    """A RowReducer over all columns, fed the rows the degree's
    elimination keeps: the known pivot rows [I | X] and the stored rows
    of its Schur RowReducer, put back on their columns."""
    split = elim.split
    ncols = elim.index.size
    rank = split.npiv + split.reducer.rank
    rows = np.zeros((rank, ncols), dtype=np.int64)
    rows[np.arange(split.npiv), split.pivots] = 1
    rows[:split.npiv, split.free] = np.mod(split.X, p)
    rows[split.npiv:, split.free] = np.mod(split.reducer.stored_rows(), p)
    engine = RowReducer(p, ncols)
    engine.add_rows(rows)
    assert engine.rank == rank
    return engine


def _closure_violations(F, d):
    """Rows that the degree-d elimination of F fails to contain.

    The eliminator's row space must hold every product u*f_j of degree
    <= d and x_i * r for every pivot row r of degree < d.  Products are
    formed by monomial multiplication and placed by exponent lookup,
    apart from the solver's column index.
    """
    elim = _elimination(F, d)
    engine = _row_space(elim, F.ring.modulus.p)
    columns = monomials_up_to(F.ring.n, d)
    col_of = {m.exps: i for i, m in enumerate(columns)}
    variables = [Monomial(tuple(int(i == k) for i in range(F.ring.n)))
                 for k in range(F.ring.n)]
    bad = []
    for k, row in enumerate(_product_rows(F, d)):
        if np.any(engine.reduce_vector(row)):
            bad.append(("initial", k))
    reduced = engine.reduced_rows(range(engine.rank))
    for slot, (c, row) in enumerate(zip(engine.pivot_cols, reduced)):
        if columns[c].degree >= d:
            continue
        nz = np.flatnonzero(row)
        for x in variables:
            prod = np.zeros_like(row)
            for i in nz:
                prod[col_of[columns[i].mul(x).exps]] = row[i]
            if np.any(engine.reduce_vector(prod)):
                bad.append(("product", slot, x.exps))
    return bad


# Every 12th small-solve system from the 4th: nine systems, two of which
# (3 and 15) lose rank if closure-fed rows are not multiplied in turn.
_SMALL_SOLVE_SAMPLE = oracle_corpus()[3::12]


# Random quadrics that climb from degree 2 to their solving degree 5.
_CLIMB = random_system(7919, 6, [2] * 7, seed=1)
# Over p = 2^31 - 1 the split and the closure run on the int64 path.  At
# d = 3 six slots fall and close; at d = 4 the Schur rows fill every free
# column, and the rest are skipped.
_BIG = random_system(2**31 - 1, 3, [2] * 4, seed=1)

_CLOSED_CASES = [
    pytest.param(gap_quartic_system(), d, id=f"gap-{d}") for d in (4, 5, 6)
] + [pytest.param(pair_product_system(), 14, id="pair-14")] + [
    pytest.param(F, max(F.degrees) + extra, id=f"small{3 + 12 * i}+{extra}")
    for i, F in enumerate(_SMALL_SOLVE_SAMPLE) for extra in (0, 1, 2)
] + [pytest.param(_CLIMB, d, id=f"climb-{d}") for d in (2, 3, 4, 5)] + [
    pytest.param(_BIG, d, id=f"int64-{d}") for d in (2, 3, 4)
]


@pytest.mark.parametrize("F, d", _CLOSED_CASES)
def test_elimination_row_space_is_closed(F, d, split_every_degree):
    assert _closure_violations(F, d) == []


@pytest.mark.parametrize("F, d", _CLOSED_CASES)
def test_closed_row_space_certifies_itself(F, d, split_every_degree):
    # The facts solve relies on to skip work, checked by full division at
    # every degree, whether or not the basis is a Groebner basis yet:
    # (a) S-pairs with lcm of degree <= d reduce to zero, (b) so do the
    # inputs, (c) the extracted basis is already reduced.
    polys = [f for f in F.polys if not f.is_zero()]
    basis = _extract_reduced_basis(_elimination(F, d), F.ring.modulus)
    for i in range(len(basis)):
        for j in range(i):
            lcm = basis[i].leading_monomial.lcm(basis[j].leading_monomial)
            if lcm.degree <= d:
                s = s_polynomial(basis[i], basis[j])
                assert normal_form(s, basis).is_zero(), (i, j)
    assert all(normal_form(f, basis).is_zero() for f in polys)
    assert reduce_basis(basis) == basis


def test_triple_product_row_budget():
    # Multiplying fallen rows by every monomial of degree up to d - deg,
    # rather than closing under variables, feeds 112,442 rows here.
    (t,) = solve(triple_product_system()).trace
    assert (t.degree, t.cols, t.rank) == (18, 1330, 1320)
    assert t.rows < 2_000


def test_homogeneous_system_feeds_only_its_products():
    # Reducing homogeneous rows keeps their degree: no slot falls, none
    # closes, and only the products u*f_j are fed, m*C(n + d - 2, n) of
    # them for m quadrics at degree d.
    n, m = 6, 8
    F = random_system(7919, n, [2] * m, seed=3, homogeneous=True)
    assert semiregular_test(F)
    rep = solve(F)
    assert [t.degree for t in rep.trace] == [2, 3, 4]
    for t in rep.trace:
        assert t.degree_falls == 0
        assert t.rows == m * comb(n + t.degree - 2, n)


def test_deadline_holds_in_basis_extraction(monkeypatch):
    # The clock runs out once the closure has fed its last block, so only
    # the read-back of the kept rows is left: the cascade of the known
    # rows and the back-substitution of the kept Schur slots both check
    # the deadline before each block.  Certification checks it too, but
    # must not be reached.
    clock = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    close = _Elimination._close

    def close_then_expire(self):
        close(self)
        clock[0] = 1e9

    def certify(*args, **kwargs):
        raise AssertionError("the extraction did not check the deadline")

    monkeypatch.setattr(_Elimination, "_close", close_then_expire)
    monkeypatch.setattr(macaulay, "is_groebner_basis", certify)
    with pytest.raises(SolveTimeout, match="at degree 14") as exc:
        solve(pair_product_system(), timeout=10)
    assert [t.degree for t in exc.value.trace] == [14]


def test_deadline_holds_in_certification(monkeypatch):
    # The clock runs out once the basis is extracted: the S-pair division
    # of certification checks the deadline before each pair.
    clock = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    extract = macaulay._extract_reduced_basis

    def extract_then_expire(elim, fld):
        basis = extract(elim, fld)
        clock[0] = 1e9
        return basis

    monkeypatch.setattr(macaulay, "_extract_reduced_basis",
                        extract_then_expire)
    with pytest.raises(SolveTimeout, match="at degree 4") as exc:
        solve(gap_quartic_system(), timeout=10)
    assert [t.degree for t in exc.value.trace] == [4]


@pytest.mark.parametrize("p", [7, 2**31 - 1])
def test_solve_scales_inputs_to_unit_leads(p, split_every_degree):
    # The known pivot rows must lead with 1: solve makes its inputs monic.
    # Scaling each input by a non-unit constant changes neither the basis
    # nor any degree's rank.  (Without it, small-solve system 13 came out
    # as the basis {1}.)
    F = (oracle_corpus()[13] if p == 7
         else random_system(p, 3, [2, 2, 3], seed=1))
    assert F.ring.modulus.p == p and len(buchberger_oracle(F)) > 1
    rng = random.Random(p)
    G = PolySystem(F.ring, tuple(f * rng.randrange(2, p) for f in F.polys))
    assert any(f.leading_coefficient.value != 1 for f in G.polys)
    want, got = solve(F), solve(G)
    assert got.basis == want.basis == tuple(buchberger_oracle(F))
    assert ([(t.degree, t.rank) for t in got.trace]
            == [(t.degree, t.rank) for t in want.trace])


def test_solve_determinism_byte_identical():
    gap = gap_quartic_system()
    def dump(rep):
        return json.dumps({
            "basis": [str(g) for g in rep.basis],
            "sd": rep.solving_degree,
            "maxgb": rep.max_gb_degree,
            "stop": rep.stop_reason,
            "trace": [
                (t.degree, t.rows, t.cols, t.rank, t.degree_falls)
                for t in rep.trace
            ],
        }, sort_keys=True)
    assert dump(solve(gap)) == dump(solve(gap))


def test_solve_apriori_mode():
    gap = gap_quartic_system()
    rep = solve(gap, apriori_bound=6)
    assert rep.stop_reason == "apriori_bound"
    assert rep.solving_degree == 6
    # bound generous enough: the returned basis is the true one
    assert [str(g) for g in rep.basis] == ["1*x1 + 6*1", "1*x0^4 + 6*1"]
    with pytest.raises(ValueError):
        solve(gap, apriori_bound=3)


def test_solve_apriori_bound_alone_selects_apriori():
    # Giving the bound is what selects apriori mode: the solve runs to
    # degree 6 uncertified, past the certified solving degree 5.
    gap = gap_quartic_system()
    assert solve(gap).solving_degree == 5
    rep = solve(gap, apriori_bound=6)
    assert rep.stop_reason == "apriori_bound"
    assert [t.degree for t in rep.trace] == [4, 5, 6]


def test_solve_rejects_both_stop_rules():
    # max_degree caps certification, which apriori mode skips.
    with pytest.raises(ValueError, match="not both"):
        solve(gap_quartic_system(), apriori_bound=7, max_degree=4)


def test_solve_degree_cap():
    gap = gap_quartic_system()
    with pytest.raises(DegreeCapExceeded) as exc:
        solve(gap, max_degree=4)
    assert [t.degree for t in exc.value.trace] == [4]
    # A cap below the input degree 4 runs no degree: a usage error.
    with pytest.raises(ValueError, match="below the largest input degree"):
        solve(gap, max_degree=3)


def test_solve_timeout():
    gap = gap_quartic_system()
    with pytest.raises(SolveTimeout):
        solve(gap, timeout=0.0)


def test_solve_rejects_empty(ring_xy):
    with pytest.raises(ValueError):
        solve(PolySystem(ring_xy, (ring_xy.zero(),)))


def test_solve_unsolvable_system(ring_xy):
    # x^2 + 1 and x^2 + 2 force 1 into the ideal
    F = PolySystem(ring_xy, (
        ring_xy.poly({(2, 0): 1, (0, 0): 1}),
        ring_xy.poly({(2, 0): 1, (0, 0): 2}),
    ))
    rep = solve(F)
    assert [str(g) for g in rep.basis] == ["1*1"]


def test_buchberger_examples(ring_xy):
    F = PolySystem(ring_xy, (ring_xy.poly({(2, 0): 1}), ring_xy.poly({(0, 2): 1})))
    assert [str(g) for g in buchberger_oracle(F)] == ["1*x1^2", "1*x0^2"]
    gap = gap_quartic_system()
    assert [str(g) for g in buchberger_oracle(gap)] == [
        "1*x1 + 6*1", "1*x0^4 + 6*1"
    ]


def test_buchberger_membership(ring_xy):
    F = PolySystem(ring_xy, (
        ring_xy.poly({(2, 0): 1, (0, 1): -1}),
        ring_xy.poly({(0, 2): 1, (1, 0): -1}),
    ))
    gb = buchberger_oracle(F)
    member = ring_xy.poly({(4, 0): 1, (1, 0): -1})  # x^4 - x
    assert normal_form(member, gb).is_zero()
    outsider = ring_xy.poly({(1, 0): 1})
    assert not normal_form(outsider, gb).is_zero()


def test_oracle_equivalence_sample(corpus):
    for F in corpus:
        rep = solve(F)
        gb = buchberger_oracle(F)
        assert list(rep.basis) == gb
        assert is_groebner_basis(list(rep.basis), list(F.polys))
        # both directions of ideal equality
        for f in F.polys:
            assert normal_form(f, gb).is_zero()
        for g in gb:
            assert normal_form(g, list(rep.basis)).is_zero()
        assert rep.max_gb_degree <= rep.solving_degree


def test_spolynomials_of_solve_basis_reduce(corpus):
    for F in corpus[:12]:
        basis = list(solve(F).basis)
        for i in range(len(basis)):
            for j in range(i):
                s = s_polynomial(basis[i], basis[j])
                assert normal_form(s, basis).is_zero()


def test_oracle_equivalence_homogeneous():
    for seed in range(8):
        F = random_system(7, 3, [2, 2, 2, 2], seed=700 + seed,
                          homogeneous=True)
        rep = solve(F)
        assert list(rep.basis) == buchberger_oracle(F)


def test_generic_homogeneous_sd_at_most_regularity():
    # homogeneous Artinian quadric systems over a large prime: the measured
    # solving degree stays within the rank-computed regularity
    for seed in range(6):
        n = 3
        F = random_system(7919, n, [2] * (n + 2), seed=300 + seed,
                          homogeneous=True)
        reg = regularity_from_hilbert(F)
        rep = solve(F)
        assert rep.solving_degree <= reg


def test_reduce_basis_idempotent(corpus):
    for F in corpus[:8]:
        gb = buchberger_oracle(F)
        assert reduce_basis(gb) == gb


def test_solve_keeps_linear_polynomials(ring_xy):
    # degree-1 equations are solved along with everything else, never
    # substituted away
    F = PolySystem(ring_xy, (
        ring_xy.poly({(1, 0): 1, (0, 0): 1}),          # x + 1
        ring_xy.poly({(0, 2): 1, (1, 0): -1}),          # y^2 - x
    ))
    rep = solve(F)
    assert list(rep.basis) == buchberger_oracle(F)
    assert rep.solving_degree >= 2
    # y^2 + 1 must be in the ideal (substituting x = -1)
    member = ring_xy.poly({(0, 2): 1, (0, 0): 1})
    assert normal_form(member, list(rep.basis)).is_zero()


def test_solve_univariate_gcd():
    from solvdeg import PolynomialRing, PrimeField

    R = PolynomialRing(("x",), PrimeField(7))
    # gcd(x^2 - 1, x^3 - 1) = x - 1
    F = PolySystem(R, (
        R.poly({(2,): 1, (0,): -1}),
        R.poly({(3,): 1, (0,): -1}),
    ))
    rep = solve(F)
    assert [str(g) for g in rep.basis] == ["1*x0 + 6*1"]
    assert rep.basis == tuple(buchberger_oracle(F))


def test_solve_boolean_systems_with_field_equations():
    from solvdeg import PolynomialRing, PrimeField, field_equations

    R = PolynomialRing(("x", "y", "z"), PrimeField(2))
    eqs = field_equations(R)
    for extra in [
        R.poly({(1, 1, 0): 1, (0, 0, 1): 1}),            # xy + z
        R.poly({(1, 1, 1): 1, (1, 0, 0): 1, (0, 0, 0): 1}),  # xyz + x + 1
    ]:
        F = PolySystem(R, tuple(eqs) + (extra,))
        rep = solve(F)
        assert list(rep.basis) == buchberger_oracle(F)
        assert is_groebner_basis(list(rep.basis), list(F.polys))


def test_solve_huge_prime_int64_path():
    # p near 2^31 pushes the eliminator onto its int64 code path
    p = 2**31 - 1
    for seed in range(3):
        F = random_system(p, 2, [2, 2, 2], seed=800 + seed)
        rep = solve(F)
        assert list(rep.basis) == buchberger_oracle(F)


def test_solve_product_systems_cascade():
    # pairwise products plus field equations make the degree falls cascade
    # hard; the solver must still land on the oracle basis
    from solvdeg import PolynomialRing, PrimeField, field_equations
    from solvdeg.randsys import random_polynomial

    for seed in range(16):
        rng = random.Random(31337 + seed)
        p = (3, 5)[seed % 2]
        R = PolynomialRing(("x", "y"), PrimeField(p))
        base = [random_polynomial(R, rng.choice((1, 2)), rng)
                for _ in range(3)]
        polys = [base[i] * base[j] for i in range(3) for j in range(i, 3)]
        polys += field_equations(R)
        F = PolySystem(R, tuple(polys))
        rep = solve(F)
        assert list(rep.basis) == buchberger_oracle(F)
        assert rep.trace[-1].degree == rep.solving_degree


def test_solve_matches_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        p=st.sampled_from((2, 3, 7, 101)),
        n=st.integers(1, 3),
        extra=st.integers(0, 2),
        degrees=st.lists(st.integers(2, 3), min_size=5, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(p, n, extra, degrees, seed):
        F = random_system(p, n, degrees[:n + extra], seed=seed)
        assert list(solve(F).basis) == buchberger_oracle(F)

    check()
