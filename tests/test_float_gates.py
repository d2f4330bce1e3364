"""Property tests of linalg's float gates against Python-int arithmetic.

`mod_p`, `matmul_mod` and `_sub_matmul_mod` run in float32 or float64
only where `_float_ok` says every partial sum is an integer below 2^24 or
2^53, and `RowReducer` builds on them.  The Hilbert-function ranks lean on
the same gates for their back-substitution and Schur-complement products,
at every p.  A float result is a symmetric residue: it must be congruent
to the Python-int result mod p and lie inside the range mod_p proves,
which also makes a multiple of p exactly 0.  Inputs are drawn both as
residues in [0, p) and in symmetric form, |x| <= p - 1, the range mod_p
returns.  Examples are derandomized, so a run is reproducible.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solvdeg.linalg import (
    _FLOAT_EXACT,
    RowReducer,
    _float_ok,
    _sub_matmul_mod,
    matmul_mod,
    mod_p,
)

from conftest import assert_residues, oracle_rref_rows

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None)
F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def _cases(f64_primes, f32_primes):
    """(dtype, p) parameters; float64 ones are named by p alone."""
    return ([pytest.param(F64, p, id=str(p)) for p in f64_primes]
            + [pytest.param(F32, p, id=f"float32-{p}") for p in f32_primes])


GATED = _cases([2, 3, 7, 7919], [2, 3, 7, 101])
# Near each dtype's gate: the largest prime below 2^23 for float64, and
# 359 for float32.  Their longest gated inner lengths, 126 and 128, are
# short enough to run a real product on both sides of the gate.
NEAR_GATE = {F64: 8388593, F32: 359}


def _longest_inner(p: int, dtype, extra: int = 0) -> int:
    """The largest k with _float_ok(p, k + extra, dtype)."""
    return (_FLOAT_EXACT[dtype] - 1) // (p - 1) ** 2 - 2 - extra


def _residue_matrix(draw, p, rows, cols, symmetric=False):
    """Residues in [0, p), or symmetric ones in [-(p - 1), p - 1], with
    0, +-1 and the worst cases +-(p - 1) over-weighted."""
    lo = -(p - 1) if symmetric else 0
    worst = [0, 1, p - 1] + ([-1, -(p - 1)] if symmetric else [])
    entry = st.one_of(st.sampled_from(worst), st.integers(lo, p - 1))
    return np.array(draw(st.lists(st.lists(entry, min_size=cols,
                                           max_size=cols),
                                  min_size=rows, max_size=rows)),
                    dtype=np.int64).reshape(rows, cols)


def _exact(M: np.ndarray) -> np.ndarray:
    return M.astype(object)


@pytest.mark.parametrize("dtype, p", GATED + _cases(
    [NEAR_GATE[F64]], [NEAR_GATE[F32]]))
def test_float_ok_boundary_is_tight(dtype, p):
    k = _longest_inner(p, dtype)
    M = 2 ** (np.finfo(dtype).nmant + 1)
    assert _FLOAT_EXACT[dtype] == M
    assert _float_ok(p, k, dtype) and not _float_ok(p, k + 1, dtype)
    assert (p - 1) ** 2 * (k + 2) < M <= (p - 1) ** 2 * (k + 3)


@pytest.mark.parametrize("dtype", [F32, F64])
def test_reciprocal_of_three_is_off_by_half_an_ulp(dtype):
    # mod_p's proof for p = 3 needs fl(1/3) = (1 + e)/3 with |e| = u/2.
    u = Fraction(1, _FLOAT_EXACT[dtype])
    w = Fraction(float(1 / dtype.type(3)))
    assert abs(3 * w - 1) == u / 2


@pytest.mark.parametrize("dtype, p", GATED)
def test_mod_p_exact_over_the_gated_range(dtype, p):
    # The float products reach (p-1)^2 k for matmul_mod and down to
    # -(p-1)^2 k for _sub_matmul_mod, k the longest inner length each
    # gate lets through, with inputs in [0, p); inputs in symmetric form
    # give the same range with either sign.  mod_p must be exact over it,
    # and over its whole domain |a| <= M - p.
    top = (p - 1) ** 2 * _longest_inner(p, dtype)
    bottom = -(p - 1) ** 2 * _longest_inner(p, dtype, extra=1)
    domain = _FLOAT_EXACT[dtype] - p
    multiple = domain - domain % p

    @SETTINGS
    @given(st.lists(st.one_of(st.integers(bottom, top),
                              st.integers(-top, -bottom),
                              st.integers(-(p - 1), p - 1)),
                    min_size=1, max_size=40))
    @example([top, bottom, top - 1, bottom + 1, 0, p - 1, -1])
    @example([-top, -bottom, domain, -domain, multiple, -multiple,
              (p - 1) // 2, -(p - 1) // 2, p // 2 + 1, 1 - p])
    def check(values):
        got = mod_p(np.array(values, dtype=dtype), p)
        assert got.dtype == dtype
        assert_residues(got, values, p)

    check()


@pytest.mark.parametrize("dtype, p", GATED)
def test_products_match_python_ints(dtype, p):
    @SETTINGS
    @given(st.data(), st.integers(1, 6), st.integers(1, 40),
           st.integers(1, 6), st.booleans())
    def check(data, rows, inner, cols, symmetric):
        A = _residue_matrix(data.draw, p, rows, inner, symmetric)
        B = _residue_matrix(data.draw, p, inner, cols, symmetric)
        X = _residue_matrix(data.draw, p, rows, cols, symmetric)
        want = _exact(A) @ _exact(B)
        got = matmul_mod(A.astype(dtype), B.astype(dtype), p)
        assert got.dtype == dtype
        assert_residues(got, want, p)
        Y = X.astype(dtype)
        _sub_matmul_mod(Y, A.astype(dtype), B.astype(dtype), p)
        assert_residues(Y, _exact(X) - want, p)

    check()


def test_products_at_the_gate_boundary():
    # Worst-case entries at the longest inner length each gate allows
    # (float path) and one past it (int64 path): p - 1 times p - 1 for
    # the largest product, and times -(p - 1) in symmetric form for the
    # most negative one; X = 0 or +-(p - 1) for the extremes of X - A*B.
    # Past the gate the products run in int64 and come back in [0, p).
    for dtype, p in NEAR_GATE.items():
        longest = _longest_inner(p, dtype)
        for inner in (longest, longest + 1):
            for b in (p - 1, 1 - p):
                A = np.full((3, inner), p - 1, dtype=dtype)
                B = np.full((inner, 2), b, dtype=dtype)
                assert_residues(matmul_mod(A, B, p),
                                [[(p - 1) * b * inner] * 2] * 3, p,
                                canonical=inner > longest)
        longest = _longest_inner(p, dtype, extra=1)
        for inner in (longest, longest + 1):
            for b in (p - 1, 1 - p):
                A = np.full((2, inner), p - 1, dtype=dtype)
                B = np.full((inner, 3), b, dtype=dtype)
                for x in (0, p - 1, 1 - p):
                    X = np.full((2, 3), x, dtype=dtype)
                    _sub_matmul_mod(X, A, B, p)
                    want = x - (p - 1) * b * inner
                    assert_residues(X, [[want] * 3] * 2, p)


@pytest.mark.parametrize("p", [2, 3, 7, 7919, 2**31 - 1])
def test_row_reducer_matches_rref_oracle(p):
    @SETTINGS
    @given(st.data(), st.integers(1, 12), st.integers(1, 10),
           st.integers(1, 8))
    def check(data, rows, cols, chunk):
        M = _residue_matrix(data.draw, p, rows, cols)
        want = oracle_rref_rows(M.tolist(), p)
        eng = RowReducer(p, cols)
        for lo in range(0, rows, chunk):
            eng.add_rows(M[lo:lo + chunk])
        got = {tuple(int(v) for v in r)
               for r in eng.reduced_rows(range(eng.rank))}
        assert got == want
        assert eng.rank == len(want)

    check()


def test_row_reducer_across_the_float32_gate():
    # At p = 359 the widest float32 reducer has 128 columns; one more
    # column takes float64.  Both sides must give the oracle's RREF.
    p = NEAR_GATE[F32]
    widest = _longest_inner(p, F32)

    @settings(derandomize=True, max_examples=10, deadline=None,
              database=None)
    @given(st.integers(1, 40), st.integers(1, 16), st.integers(0, 2**32 - 1))
    def check(rows, chunk, seed):
        rng = np.random.default_rng(seed)
        for cols, dtype in ((widest, F32), (widest + 1, F64)):
            # A low-rank matrix, so rows also reduce to zero, with one
            # row of worst-case entries p - 1.
            k = int(rng.integers(1, rows + 1))
            M = (rng.integers(0, p, (rows, k)) @ rng.integers(0, p, (k, cols))
                 % p)
            M[int(rng.integers(rows))] = p - 1
            eng = RowReducer(p, cols)
            assert eng.dtype == dtype
            for lo in range(0, rows, chunk):
                eng.add_rows(M[lo:lo + chunk])
            got = {tuple(int(v) for v in r)
                   for r in eng.reduced_rows(range(eng.rank))}
            assert got == oracle_rref_rows(M.tolist(), p)

    check()


@pytest.mark.parametrize("p, dtype", [(2, F32), (3, F32), (7, F32),
                                      (7919, F64),
                                      (2**31 - 1, np.dtype(np.int64))])
def test_read_back_is_canonical_in_every_tier(p, dtype):
    # reduced_rows and reduce_vector hand out residues in [0, p),
    # whatever form the kernel keeps internally.
    @SETTINGS
    @given(st.data(), st.integers(1, 12), st.integers(1, 10))
    def check(data, rows, cols):
        M = _residue_matrix(data.draw, p, rows, cols)
        v = _residue_matrix(data.draw, p, 1, cols, symmetric=True)[0]
        eng = RowReducer(p, cols)
        assert eng.dtype == dtype
        eng.add_rows(M)
        pivots = eng.reduced_rows(range(eng.rank)).tolist()
        assert {tuple(map(int, r)) for r in pivots} == oracle_rref_rows(
            M.tolist(), p)
        want = [x % p for x in v.tolist()]
        for r, c in zip(pivots, eng.pivot_cols):
            f = want[c]
            want = [(w - f * int(x)) % p for w, x in zip(want, r)]
        got = eng.reduce_vector(v).tolist()
        assert all(0 <= x < p for r in pivots for x in r)
        assert all(0 <= x < p for x in got)
        assert got == want

    check()
