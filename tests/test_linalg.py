"""The GF(p) elimination engine against pure-Python oracles."""

import numpy as np
import pytest

from solvdeg import linalg
from solvdeg.linalg import RowReducer, matmul_mod, mod_p

from conftest import assert_residues, oracle_rank, oracle_rref_rows

PRIMES = [2, 3, 5, 7, 101, 7919, 65537, 2**31 - 1]


def random_low_rank(rng, p, rows, cols):
    k = int(rng.integers(1, min(rows, cols) + 1))
    A = rng.integers(0, p, (rows, k)).astype(object)
    B = rng.integers(0, p, (k, cols)).astype(object)
    return np.array(((A @ B) % p).tolist(), dtype=np.int64)


def reduced(eng):
    """Every row of the reduced row echelon form, in slot order."""
    return eng.reduced_rows(range(eng.rank))


def feed(eng, rows, chunk):
    """add_rows in chunks of `chunk` rows; returns the slots of all rows."""
    slots = []
    for lo in range(0, len(rows), chunk):
        slots.extend(eng.add_rows(rows[lo : lo + chunk]))
    return slots


@pytest.mark.parametrize("p", PRIMES)
def test_rank_matches_oracle(p):
    rng = np.random.default_rng(p)
    for _ in range(12):
        rows = int(rng.integers(1, 50))
        cols = int(rng.integers(1, 40))
        M = random_low_rank(rng, p, rows, cols)
        expected = oracle_rank(M.tolist(), p)
        # The whole matrix in one add_rows call, then in chunks.
        for chunk in (rows, 16):
            eng = RowReducer(p, cols)
            feed(eng, M, chunk)
            assert eng.rank == expected


@pytest.mark.parametrize("p", [2, 7, 101, 7919])
def test_rref_content_is_canonical(p):
    rng = np.random.default_rng(100 + p)
    for _ in range(10):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 30))
        M = random_low_rank(rng, p, rows, cols)
        eng = RowReducer(p, cols)
        feed(eng, M, 8)
        got = {tuple(int(v) for v in r) for r in reduced(eng)}
        assert got == oracle_rref_rows(M.tolist(), p)


def test_rref_structure_and_membership():
    p = 7
    rng = np.random.default_rng(42)
    M = rng.integers(0, p, (45, 25))
    eng = RowReducer(p, 25)
    slots = feed(eng, M, 7)
    P = reduced(eng)
    pc = eng.pivot_cols
    # pivot columns form an identity across pivot rows
    assert np.allclose(P[:, pc], np.eye(len(pc)))
    # each pivot row leads at its pivot column
    for s, c in enumerate(pc):
        assert np.nonzero(P[s])[0][0] == c
    # every input row lies in the row space
    for row in M:
        assert not np.any(eng.reduce_vector(row))
    # slots map: non-None slots count the rank
    assert sum(1 for s in slots if s is not None) == eng.rank


def test_incremental_feeding_matches_bulk():
    p = 101
    rng = np.random.default_rng(9)
    M = random_low_rank(rng, p, 60, 35)
    bulk = RowReducer(p, 35)
    bulk.add_rows(M)
    inc = RowReducer(p, 35)
    for i in range(0, 60, 7):
        feed(inc, M[i : i + 7], 5)
    assert inc.rank == bulk.rank
    assert sorted(inc.pivot_cols) == sorted(bulk.pivot_cols)
    got_b = {tuple(int(v) for v in r) for r in reduced(bulk)}
    got_i = {tuple(int(v) for v in r) for r in reduced(inc)}
    assert got_b == got_i


@pytest.mark.parametrize("p, dtype", [(7, np.float32), (7919, np.float64),
                                      (2**31 - 1, np.int64)])
def test_read_back_matches_rref_oracle(p, dtype, monkeypatch):
    # Fed a few rows at a time, the reducer keeps many blocks, and its
    # stored rows are only semi-echelon: each leads with 1 at its pivot
    # column and is clear of the other pivot columns of its own and
    # earlier blocks.  The read-back of any chosen slots, in any order,
    # gives those slots' rows of the oracle's RREF, with one deadline
    # check per block after the first chosen slot's block.
    rng = np.random.default_rng(p % 1000)
    for _ in range(10):
        rows = int(rng.integers(5, 45))
        cols = int(rng.integers(5, 35))
        M = random_low_rank(rng, p, rows, cols)
        eng = RowReducer(p, cols)
        assert eng.dtype == dtype
        feed(eng, M, int(rng.integers(1, 6)))
        pc = eng.pivot_cols
        for s, e in eng._blocks:
            for slot in range(s, e):
                row = eng.stored_rows()[slot].astype(np.int64) % p
                assert row[pc[slot]] == 1 and not np.any(row[: pc[slot]])
                assert not np.any(np.delete(row[pc[:e]], slot))
        want = {r.index(1): r for r in oracle_rref_rows(M.tolist(), p)}
        chosen = rng.permutation(eng.rank)[: int(rng.integers(eng.rank + 1))]
        calls = []
        with monkeypatch.context() as m:
            m.setattr(linalg, "check_deadline", lambda: calls.append(None))
            got = eng.reduced_rows(chosen)
        assert got.shape == (len(chosen), cols)
        assert [tuple(int(v) for v in r) for r in got] == [
            want[pc[slot]] for slot in chosen]
        first = min(chosen, default=eng.rank)
        assert len(calls) == sum(s > first for s, _ in eng._blocks)


@pytest.mark.parametrize("two_calls", [True, False])
def test_pivot_store_grows_past_its_initial_size(two_calls):
    # Above 8192 columns the pivot store starts at 1024 rows and doubles.
    # Fed in two calls, the first fills most of the initial store, so the
    # second call must grow it while keeping the rows already stored.
    p, ncols, rank = 7, 8200, 1100
    rng = np.random.default_rng(8200)
    lead = rng.permutation(ncols - 1)[:rank]
    units = np.zeros((rank, ncols), dtype=np.int32)
    units[np.arange(rank), lead] = 1
    units[:, -1] = rng.integers(0, p, rank)
    # 40 dependent rows, each a combination of the unit rows before it.
    after = set(rng.choice(rank, 40, replace=False).tolist())
    rows, unit_of = [], []  # unit_of: the unit row fed, or None
    for k in range(rank):
        rows.append(units[k])
        unit_of.append(k)
        if k in after:
            coeffs = rng.integers(0, p, k + 1, dtype=np.int32)
            rows.append(coeffs @ units[: k + 1] % p)
            unit_of.append(None)
    eng = RowReducer(p, ncols)
    rows = np.array(rows)
    if two_calls:
        slots = eng.add_rows(rows[:1000])
        assert eng._cap == 1024
        slots += eng.add_rows(rows[1000:])
    else:
        slots = eng.add_rows(rows)
    assert eng.rank == rank and eng._cap == 2048
    assert [s is None for s in slots] == [k is None for k in unit_of]
    filled = [(slot, k) for slot, k in zip(slots, unit_of) if k is not None]
    got = eng.reduced_rows([slot for slot, _ in filled])
    for (slot, k), row in zip(filled, got):
        assert eng.pivot_cols[slot] == lead[k]
        assert np.array_equal(row, units[k])


def test_zero_and_duplicate_rows():
    p = 7
    eng = RowReducer(p, 5)
    rows = np.array([[0, 0, 0, 0, 0], [1, 2, 3, 4, 5], [2, 4, 6, 1, 4],
                     [1, 2, 3, 4, 5]])
    slots = eng.add_rows(rows)
    assert slots[0] is None
    assert slots[1] is not None
    assert slots[2] is not None
    assert slots[3] is None  # duplicate reduces to zero
    assert eng.rank == 2


def test_determinism():
    p = 7919
    rng = np.random.default_rng(1)
    M = rng.integers(0, p, (80, 50))
    a = RowReducer(p, 50)
    a.add_rows(M)
    b = RowReducer(p, 50)
    b.add_rows(M)
    assert a.pivot_cols == b.pivot_cols
    assert np.array_equal(reduced(a), reduced(b))


def assert_mod_p_exact(vals, dtype, p):
    got = mod_p(np.array(vals, dtype=dtype), p)
    assert got.dtype == dtype
    assert_residues(got, vals, p)


def test_mod_p_edge_values():
    p = 7919
    vals = [
        0, 1, p - 1, p, p * 12345,
        -1, -p, (p - 1) ** 2 * 500,
        2**53 - p - 1, -(2**53 - p - 1),
    ]
    # Inputs in symmetric form, and the ends of the domain |a| <= M - p.
    symmetric = [(p - 1) // 2, -(p - 1) // 2, (p + 1) // 2, 1 - p,
                 2**53 - p, p - 2**53]
    assert_mod_p_exact(vals + symmetric, np.float64, p)
    # Multiples of p reduce to exactly 0: the pivot search needs this.
    assert not np.any(mod_p(np.array([p, -p, p * 12345.0]), p))
    # p = 2: the reciprocal is exact, and odd values land on +-1.
    assert_mod_p_exact([2**52 + 1, 2**52, -3, 5, -1, 0], np.float64, 2)
    # float32: the same edges below 2^24.
    for q in (2, 3, 7, 359):
        assert_mod_p_exact([0, 1, q - 1, 1 - q, q, -q, (q - 1) ** 2 * 100,
                            2**24 - q, q - 2**24, 2**24 - q - 1],
                           np.float32, q)


def test_matmul_mod_large_prime_int_path():
    p = 2**31 - 1
    rng = np.random.default_rng(4)
    A = rng.integers(0, p, (8, 6)).astype(np.int64)
    B = rng.integers(0, p, (6, 5)).astype(np.int64)
    got = matmul_mod(A, B, p)
    exact = (A.astype(object) @ B.astype(object)) % p
    assert np.array_equal(got.astype(object), exact)


def test_mod_p_randomized_against_python_int():
    rng = np.random.default_rng(77)
    for p in (2, 3, 7, 101, 7919, 40009):
        bound = 2**53 - p - 1
        vals = rng.integers(-bound, bound, 4000).astype(np.float64)
        assert_mod_p_exact(vals.tolist(), np.float64, p)
    for p in (2, 3, 7, 101, 359, 4093):
        bound = 2**24 - p
        vals = rng.integers(-bound, bound + 1, 4000)
        assert_mod_p_exact(vals.tolist(), np.float32, p)
