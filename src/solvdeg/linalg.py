"""Exact dense linear algebra over GF(p) on top of numpy.

The central object is ``RowReducer``, an incremental eliminator that never
permutes rows: every incoming row is replaced by itself plus a combination
of other rows, so a row's tag (multiplier, source polynomial) stays
meaningful for the Macaulay solver.  Its pivot rows are kept in
semi-echelon form, as a cascade of internally reduced blocks, one block
per batch of rows: a stored row is clear of the pivot columns of its own
block and of every earlier one, and never changes once stored.  Rank,
pivot columns and normal forms need nothing more; the rows of the
reduced row echelon form are read back on demand, for the chosen slots
only (reduced_rows), by one pass over the later blocks (the
back-substitution of Faugere and Lachartre, PASCO 2010).

All arithmetic is exact.  For small p the working matrices are float32 or
float64 and the block updates run through BLAS, valid because every
intermediate value is an integer below the dtype's 2^24 or 2^53 (see
_float_ok); the narrowest dtype whose gate admits the row width is used,
so the smallest primes get single precision and twice the BLAS speed.
For large p the code falls back to int64 with chunked inner products.
Float arrays are reduced to symmetric residues, |r| <= p - 1, by one
rounded multiply (mod_p), which avoids the slow hardware fmod and any
correction pass; the residues are mapped to [0, p) only when read back.
"""

from __future__ import annotations

import numpy as np

# Every integer of magnitude <= 2^(mantissa bits + 1) is a float of the dtype.
_FLOAT_EXACT = {np.dtype(t): 2 ** (np.finfo(t).nmant + 1)
                for t in (np.float32, np.float64)}
_INT_SAFE = 2**62
_LEAF = 32
# Rows are eliminated, and fed by the row builders, in blocks of this many.
BLOCK_ROWS = 512


def _float_ok(p: int, inner: int, dtype) -> bool:
    """True if sums of `inner` products mod p are exact in float `dtype`.

    The gate is (p - 1)^2 (inner + 2) < M, where M = 2^24 for float32 and
    2^53 for float64.  Every kernel input is either a residue in [0, p)
    or a mod_p result, |r| <= p - 1, so in both forms each product has
    magnitude at most (p - 1)^2 < M and is exact, and every partial sum
    of `inner` products, in any order, is an integer of magnitude at most
    (p - 1)^2 inner < M, so exact as well.  The two spare terms keep the
    sums inside mod_p's domain |a| <= M - p, since
    (p - 1)^2 inner < M - 2 (p - 1)^2 and 2 (p - 1)^2 >= p for p >= 2.
    _sub_matmul_mod gates inner + 1, which leaves room for |X| <= p - 1:
    |X - A*B| <= (p - 1)^2 (inner + 1) < M - 2 (p - 1)^2.  The leaf loop
    of RowReducer defers mod_p over at most _LEAF - 1 updates f*row, with
    f in [0, p) and |row| <= p - 1, on entries of magnitude <= p - 1, so
    entries reach at most (p - 1)^2 _LEAF; it gates _LEAF + 2, which
    keeps them below M - 4 (p - 1)^2.
    """
    return (p - 1) ** 2 * (inner + 2) < _FLOAT_EXACT[np.dtype(dtype)]


def _kernel_dtype(p: int, inner: int) -> np.dtype:
    """The narrowest dtype whose gate admits products of length `inner`."""
    for dtype in _FLOAT_EXACT:
        if _float_ok(p, inner, dtype):
            return dtype
    return np.dtype(np.int64)


def mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Exact in-place reduction mod p of an array of integral values.

    An int array is reduced to [0, p).  A float array is reduced to
    symmetric residues, r = a - rint(a * fl(1/p)) * p: r is congruent to
    a, |r| <= p - 1, and r = 0 exactly when p divides a.  Callers map r
    to [0, p) where values leave the kernel.

    Proof.  Let the dtype carry t significand bits (24 for float32, 53
    for float64), M = 2^t and u = 2^-t, and let the gates (_float_ok)
    ensure |a| <= M - p.  Integers of magnitude <= M are floats, so a
    and p are exact, and a rounding to nearest has relative error at most
    u: w = fl(1/p) = (1 + e1)/p and q = fl(a w) = (a/p)(1 + e1)(1 + e2)
    with |e1|, |e2| <= u.  The quotient's error E = q - a/p is below 1/2:

    - p = 2: 1/2 and a/2 are exact, so E = 0.
    - p = 3: 1/3 = 0.0101..._2 is cut with relative error exactly u/2,
      so |E| <= (|a|/3) u (3/2 + u/2) <= (1 - 3u)(1/2 + u/6) < 1/2.
    - p >= 5: |E| <= (|a|/p) u (2 + u) < (2 + u)/5 < 1/2.

    Let k = rint(q), so |a/p - k| <= 1/2 + |E| < 1.  Then |k p| < |a| + p
    <= M, so k p is exact, and a - k p, an integer of magnitude at most
    p/2 + p |E|, is exact too.  If p divides a, a/p is an integer within
    |E| < 1/2 of q, so k = a/p and r = 0: the pivot search, which takes
    the first nonzero entry, relies on this.  The bound on |r|: for p = 2
    it is 1; for p = 3, |r| < 3/2 + 3/2, so |r| <= 2; for p >= 5,
    p |E| <= (M - p) u (2 + u) < 2, so |r| < p/2 + 2 and, p being odd,
    |r| <= (p + 3)/2 <= p - 1.
    """
    if a.dtype.kind == "f":
        q = a * (1 / a.dtype.type(p))
        np.rint(q, out=q)
        q *= p
        a -= q
        return a
    np.mod(a, p, out=a)
    return a


def matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact (A @ B) mod p for matrices of one dtype with |entries| < p.

    Entries may be residues in [0, p) or mod_p results.  The result is
    symmetric (mod_p) on the float path and in [0, p) on the int64 path.
    """
    inner = A.shape[1]
    if inner == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=A.dtype)
    if A.dtype.kind == "f" and _float_ok(p, inner, A.dtype):
        res = A @ B
        return mod_p(res, p)
    A64 = A.astype(np.int64, copy=False)
    B64 = B.astype(np.int64, copy=False)
    chunk = max(1, _INT_SAFE // ((p - 1) ** 2 + 1))
    if chunk >= inner:
        res = (A64 @ B64) % p
    else:
        res = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for lo in range(0, inner, chunk):
            hi = min(lo + chunk, inner)
            res = (res + A64[:, lo:hi] @ B64[lo:hi, :]) % p
    return res.astype(A.dtype, copy=False)


def _sub_matmul_mod(X: np.ndarray, A: np.ndarray, B: np.ndarray, p: int) -> None:
    """In place: X := (X - A @ B) mod p, with one fused mod_p."""
    if A.shape[1] == 0:
        return
    if X.dtype.kind == "f" and _float_ok(p, A.shape[1] + 1, X.dtype):
        X -= A @ B
    else:
        X -= matmul_mod(A, B, p)
    mod_p(X, p)


class RowReducer:
    """Incremental no-swap row reduction over GF(p)."""

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self.dtype = _kernel_dtype(p, ncols)
        # Deferral of mod inside a leaf accumulates up to _LEAF products.
        self._defer = (self.dtype.kind == "f"
                       and _float_ok(p, _LEAF + 2, self.dtype))
        # Rank never exceeds ncols; allocating the full pivot store up
        # front keeps views stable.  Only truly huge matrices grow lazily.
        self._cap = ncols if ncols <= 8192 else 1024
        self._P = np.zeros((self._cap, ncols), dtype=self.dtype)
        self.pivot_cols: list[int] = []
        self._pc_arr = np.zeros(0, dtype=np.intp)
        # Slot ranges [s, e) of the blocks, in order of creation.
        self._blocks: list[tuple[int, int]] = []

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def _grow(self, need: int) -> None:
        if need <= self._cap:
            return
        cap = self._cap
        while cap < need:
            cap *= 2
        cap = max(min(cap, self.ncols), need)
        P = np.zeros((cap, self.ncols), dtype=self.dtype)
        P[: self.rank] = self._P[: self.rank]
        self._P = P
        self._cap = cap

    # -- reading back ----------------------------------------------------------

    def stored_row(self, slot: int) -> np.ndarray:
        """The stored row of a pivot slot, as kept: a read-only view in the
        kernel's dtype, symmetric residues on the float path.

        It leads with 1 at its pivot column and is clear of the pivot
        columns of its own block and of every earlier block, but may
        still hold pivot columns of later blocks.  It never changes once
        add_rows has returned.
        """
        row = self._P[slot]
        row.flags.writeable = False
        return row

    def stored_rows(self) -> np.ndarray:
        """The stored rows of every slot, in slot order: a read-only view,
        each row as stored_row gives it."""
        rows = self._P[: self.rank]
        rows.flags.writeable = False
        return rows

    def reduced_rows(self, slots, before_block=None) -> np.ndarray:
        """The rows of the reduced row echelon form for the given slots,
        one per slot in the order given, residues in [0, p).

        A stored row is already clear of the pivot columns up to its own
        block, so it is cascaded only against the blocks after its own,
        in order: a later block's rows are clear of every earlier pivot
        column, so clearing one block's columns puts back none that an
        earlier block cleared.  The rows are taken in slot order, which
        makes the rows below each block a prefix of them: one product per
        block.  What is left is the unique row of the space that leads at
        the slot's pivot column with 1 and is zero at every other pivot
        column.  `before_block`, if given, is called before each block's
        product (solve uses it to check its deadline).
        """
        slots = np.asarray(slots, dtype=np.intp)
        order = np.argsort(slots, kind="stable")
        ranked = slots[order]
        X = self._P[ranked]
        for s, e in self._blocks:
            below = int(np.searchsorted(ranked, s))
            if not below:
                continue
            if before_block is not None:
                before_block()
            head = X[:below]
            coeffs = head[:, self._pc_arr[s:e]]
            if np.any(coeffs):
                _sub_matmul_mod(head, coeffs, self._P[s:e], self.p)
        out = np.empty_like(X)
        out[order] = np.mod(X, self.p)
        return out

    def reduce_vector(self, v: np.ndarray) -> np.ndarray:
        """Normal form of one row against the current pivot rows."""
        w = np.array(v, dtype=self.dtype).reshape(1, -1)
        mod_p(w, self.p)
        self._cascade(w)
        return np.mod(w[0], self.p)

    # -- feeding -------------------------------------------------------------

    def add_rows(self, rows: np.ndarray) -> list[int | None]:
        """Feed rows; returns one pivot slot id (or None) per input row."""
        out: list[int | None] = []
        for lo in range(0, rows.shape[0], BLOCK_ROWS):
            out.extend(self._add_batch(rows[lo : lo + BLOCK_ROWS]))
        return out

    def _cascade(self, B: np.ndarray) -> None:
        """Clear every existing pivot column from the rows of B, in place."""
        for s, e in self._blocks:
            cols = self._pc_arr[s:e]
            coeffs = B[:, cols]
            if np.any(coeffs):
                _sub_matmul_mod(B, coeffs, self._P[s:e], self.p)

    def _add_batch(self, rows: np.ndarray) -> list[int | None]:
        B = np.array(rows, dtype=self.dtype)
        mod_p(B, self.p)
        before = self.rank
        self._cascade(B)
        slots = self._process_new(B)
        if self.rank > before:
            self._pc_arr = np.asarray(self.pivot_cols, dtype=np.intp)
            self._blocks.append((before, self.rank))
        return slots

    def _process_new(self, B: np.ndarray) -> list[int | None]:
        """Recursively extract pivots from B (already clear of old pivots).

        On return the pivots created by this call are mutually reduced:
        each one's pivot column is zero in all the others.
        """
        n = B.shape[0]
        p = self.p
        if n <= _LEAF:
            slots: list[int | None] = []
            for i in range(n):
                row = B[i]
                mod_p(row, p)
                nz = np.nonzero(row)[0]
                if nz.size == 0:
                    slots.append(None)
                    continue
                c = int(nz[0])
                inv = pow(int(row[c]), -1, p)
                if inv != 1:
                    row *= inv
                    mod_p(row, p)
                rest = B[i + 1 :]
                if rest.shape[0]:
                    f = rest[:, c] % p
                    if np.any(f):
                        rest -= np.outer(f, row)
                        if not self._defer:
                            mod_p(rest, p)
                slot = self.rank
                self._grow(slot + 1)
                self._P[slot] = row
                self.pivot_cols.append(c)
                slots.append(slot)
            # Mutual reduction: row i may still contain pivot columns of
            # later rows (unit upper triangular pattern in creation order).
            created = [s for s in slots if s is not None]
            if len(created) > 1:
                N = self._P[created[0] : created[-1] + 1]
                cols = np.asarray(self.pivot_cols[created[0] :], dtype=np.intp)
                T = N[:, cols].copy()
                # N := T^-1 N, bottom row up.
                for i in range(len(created) - 2, -1, -1):
                    coeffs = T[i, i + 1 :].reshape(1, -1)
                    if np.any(coeffs):
                        _sub_matmul_mod(N[i].reshape(1, -1), coeffs,
                                        N[i + 1 :], p)
            return slots

        h = n // 2
        lo_before = self.rank
        slots = self._process_new(B[:h])
        lo_after = self.rank
        if lo_after > lo_before:
            # Views into _P are taken after any call that may grow it.
            cols = np.asarray(self.pivot_cols[lo_before:lo_after], dtype=np.intp)
            N1 = self._P[lo_before:lo_after]
            rest = B[h:]
            coeffs = rest[:, cols]  # reduced, like every row outside a leaf
            if np.any(coeffs):
                _sub_matmul_mod(rest, coeffs, N1, p)
        slots.extend(self._process_new(B[h:]))
        hi_after = self.rank
        if lo_after > lo_before and hi_after > lo_after:
            # Clear the second half's pivot columns from the first half.
            cols2 = np.asarray(self.pivot_cols[lo_after:hi_after], dtype=np.intp)
            N1 = self._P[lo_before:lo_after]
            N2 = self._P[lo_after:hi_after]
            coeffs = N1[:, cols2]
            if np.any(coeffs):
                _sub_matmul_mod(N1, coeffs, N2, p)
        return slots


def rank_mod_p(M: np.ndarray, p: int) -> int:
    """Rank of an integer matrix mod p (exact)."""
    M = np.asarray(M)
    if M.size == 0:
        return 0
    eng = RowReducer(p, M.shape[1])
    eng.add_rows(M)
    return eng.rank
