"""Property tests of linalg's float64 gates against Python-int arithmetic.

`mod_p`, `matmul_mod` and `_sub_matmul_mod` run in float64 only where
`_float_ok` says every partial sum is an integer below 2^53, and
`RowReducer` builds on them.  The Hilbert-function ranks lean on the same
gates for their back-substitution and Schur-complement products, at every
p.  Examples are derandomized, so a run is reproducible.
"""

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

from conftest import oracle_rref_rows

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None)
GATED = [2, 7, 7919]
# The largest prime below 2^23: its longest gated inner length is 126,
# short enough to run a real product on both sides of the gate.
NEAR_GATE = 8388593


def _longest_inner(p: int, extra: int = 0) -> int:
    """The largest k with _float_ok(p, k + extra)."""
    return (_FLOAT_EXACT - 1) // (p - 1) ** 2 - 2 - extra


def _residue_matrix(draw, p, rows, cols):
    """Residues mod p, with 0, 1 and the worst case p - 1 over-weighted."""
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    return np.array(draw(st.lists(st.lists(entry, min_size=cols,
                                           max_size=cols),
                                  min_size=rows, max_size=rows)),
                    dtype=np.int64).reshape(rows, cols)


def _exact(M: np.ndarray) -> np.ndarray:
    return M.astype(object)


@pytest.mark.parametrize("p", GATED + [NEAR_GATE])
def test_float_ok_boundary_is_tight(p):
    k = _longest_inner(p)
    assert _float_ok(p, k) and not _float_ok(p, k + 1)
    assert (p - 1) ** 2 * (k + 2) < 2**53 <= (p - 1) ** 2 * (k + 3)


@pytest.mark.parametrize("p", GATED)
def test_mod_p_exact_over_the_gated_range(p):
    # The float products reach (p-1)^2 k for matmul_mod and down to
    # -(p-1)^2 k for _sub_matmul_mod, k the longest inner length each
    # gate lets through; mod_p must be exact over that whole range.
    top = (p - 1) ** 2 * _longest_inner(p)
    bottom = -(p - 1) ** 2 * _longest_inner(p, extra=1)

    @SETTINGS
    @given(st.lists(st.integers(bottom, top), min_size=1, max_size=40))
    @example([top, bottom, top - 1, bottom + 1, 0, p - 1, -1])
    def check(values):
        got = mod_p(np.array(values, dtype=np.float64), p)
        assert got.tolist() == [v % p for v in values]

    check()


@pytest.mark.parametrize("p", GATED)
def test_products_match_python_ints(p):
    @SETTINGS
    @given(st.data(), st.integers(1, 6), st.integers(1, 40),
           st.integers(1, 6))
    def check(data, rows, inner, cols):
        A = _residue_matrix(data.draw, p, rows, inner)
        B = _residue_matrix(data.draw, p, inner, cols)
        X = _residue_matrix(data.draw, p, rows, cols)
        want = _exact(A) @ _exact(B)
        got = matmul_mod(A.astype(np.float64), B.astype(np.float64), p)
        assert got.tolist() == (want % p).tolist()
        Y = X.astype(np.float64)
        _sub_matmul_mod(Y, A.astype(np.float64), B.astype(np.float64), p)
        assert Y.tolist() == ((_exact(X) - want) % p).tolist()

    check()


def test_products_at_the_gate_boundary():
    # Worst-case residues p - 1 at the longest inner length each gate
    # allows (float64 path) and one past it (int64 path), with X = 0 for
    # the most negative X - A*B.
    p = NEAR_GATE
    for inner in (_longest_inner(p), _longest_inner(p) + 1):
        A = np.full((3, inner), p - 1, dtype=np.float64)
        B = np.full((inner, 2), p - 1, dtype=np.float64)
        want = (p - 1) ** 2 * inner % p
        assert matmul_mod(A, B, p).tolist() == [[want] * 2] * 3
    for inner in (_longest_inner(p, extra=1), _longest_inner(p, extra=1) + 1):
        A = np.full((2, inner), p - 1, dtype=np.float64)
        B = np.full((inner, 3), p - 1, dtype=np.float64)
        for x in (0, p - 1):
            X = np.full((2, 3), x, dtype=np.float64)
            _sub_matmul_mod(X, A, B, p)
            assert X.tolist() == [[(x - (p - 1) ** 2 * inner) % p] * 3] * 2


@pytest.mark.parametrize("p", [2, 7, 7919, 2**31 - 1])
def test_row_reducer_matches_rref_oracle(p):
    @SETTINGS
    @given(st.data(), st.integers(1, 12), st.integers(1, 10),
           st.integers(1, 8))
    def check(data, rows, cols, chunk):
        M = _residue_matrix(data.draw, p, rows, cols)
        want = oracle_rref_rows(M.tolist(), p)
        eng = RowReducer(p, cols, always_rref=True)
        rank_only = RowReducer(p, cols, always_rref=False)
        for lo in range(0, rows, chunk):
            eng.add_rows(M[lo:lo + chunk])
            rank_only.add_rows(M[lo:lo + chunk])
        got = {tuple(int(v) for v in eng.pivot_row(s))
               for s in range(eng.rank)}
        assert got == want
        assert rank_only.rank == len(want)

    check()
