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

KnownPivotSplit is the one elimination of a Macaulay matrix, for the
solver and for the Hilbert ranks alike.  Its rows lead with 1 at
columns known without elimination; one row per distinct lead is a
known pivot row, back-substituted over its terms to [I | X], and only
the Schur rows D - C*X of the others reach a RowReducer, over the
columns no known row leads.

All arithmetic is exact.  For small p the working matrices are float32 or
float64 and the block updates run through BLAS, valid because every
intermediate value is an integer below the dtype's 2^24 or 2^53 (see
_float_ok); the narrowest dtype whose gate admits the row width is used,
so the smallest primes get single precision and twice the BLAS speed.
For large p the code falls back to int64 with chunked inner products.
The split's X, C and S take _kernel_dtype(p, npiv + 1), for npiv known
pivot rows: npiv + 1 bounds every inner product they enter.
Float arrays are reduced to symmetric residues, |r| <= p - 1, by one
rounded multiply (mod_p), which avoids the slow hardware fmod and any
correction pass; the residues are mapped to [0, p) only when read back.

The loops over blocks (the split's feed, a RowReducer's cascade and its
read-back) call deadline.check_deadline() before each block, so the
deadline of the enclosing scope holds inside one elimination.
"""

from __future__ import annotations

import numpy as np

from .deadline import check_deadline

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

    def stored_rows(self) -> np.ndarray:
        """The stored rows of every slot, in slot order, as kept: a
        read-only view in the kernel's dtype, symmetric residues on the
        float path.

        A stored row leads with 1 at its slot's pivot column and is clear
        of the pivot columns of its own block and of every earlier block,
        but may still hold pivot columns of later blocks.  It never
        changes once add_rows has returned.
        """
        rows = self._P[: self.rank]
        rows.flags.writeable = False
        return rows

    def reduced_rows(self, slots) -> np.ndarray:
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
        column.  The deadline is checked before each block's product.
        """
        slots = np.asarray(slots, dtype=np.intp)
        order = np.argsort(slots, kind="stable")
        ranked = slots[order]
        X = self._P[ranked]
        for s, e in self._blocks:
            below = int(np.searchsorted(ranked, s))
            if not below:
                continue
            check_deadline()
            head = X[:below]
            coeffs = head[:, self._pc_arr[s:e]]
            if np.any(coeffs):
                _sub_matmul_mod(head, coeffs, self._P[s:e], self.p)
        out = np.empty_like(X)
        out[order] = np.mod(X, self.p)
        return out

    def reduce_vector(self, v: np.ndarray) -> np.ndarray:
        """Normal form of one row, or of each row of a matrix, against the
        current pivot rows, residues in [0, p)."""
        w = np.array(v, dtype=self.dtype, ndmin=2)
        mod_p(w, self.p)
        self._cascade(w)
        return np.mod(w, self.p).reshape(np.shape(v))

    # -- feeding -------------------------------------------------------------

    def add_rows(self, rows: np.ndarray) -> list[int | None]:
        """Feed rows; returns one pivot slot id (or None) per input row."""
        out: list[int | None] = []
        for lo in range(0, rows.shape[0], BLOCK_ROWS):
            out.extend(self._add_batch(rows[lo : lo + BLOCK_ROWS]))
        return out

    def _cascade(self, B: np.ndarray) -> None:
        """Clear every existing pivot column from the rows of B, in place,
        checking the deadline before each block."""
        for s, e in self._blocks:
            check_deadline()
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


# -- the known-pivot split ------------------------------------------------------

# Rows per product in the back-substitution of the known pivot rows.
_RUN = 32


def product_rows(parts, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of every (cols, coeffs) part, in order, as one padded
    (cols, coeffs) pair of int64 arrays.

    A part has one row of column positions per product, and the
    coefficients of its source, term for term.  Rows are padded to a
    common width with column `pad` and coefficient 0.
    """
    width = max(c.shape[1] for c, _ in parts)
    cols = np.full((sum(len(c) for c, _ in parts), width), pad, dtype=np.int64)
    coeffs = np.zeros(cols.shape, dtype=np.int64)
    at = 0
    for c, v in parts:
        cols[at:at + len(c), :c.shape[1]] = c
        coeffs[at:at + len(c), :len(v)] = v
        at += len(c)
    return cols, coeffs


def _back_substitute(X: np.ndarray, rows: np.ndarray, deps: np.ndarray,
                     coeffs: np.ndarray, p: int) -> None:
    """In place: X[i] := X[i] - sum_j coeffs[j] X[deps[j]] (mod p) over
    the entries j with rows[j] = i, each X[deps[j]] taken after its own
    update.

    Every entry must point below its row, deps[j] > rows[j], and no row
    may hold one dependency twice.  The callers build the entries from
    rows sorted by lead, so an entry at or above its row, which would
    make the update circular, is a bug: it raises RuntimeError.  Rows go
    by depth: a row without entries has depth 1, any other row one more
    than its deepest entry, so a depth needs only the depths before it.
    A depth is done in runs of _RUN rows, one product per run over just
    the rows the run uses (rows close in order share most of them), split
    into products over BLOCK_ROWS of those rows at a time, so that the
    rows of X gathered for one product stay few even when the run's rows
    have many terms.
    """
    if np.any(deps <= rows):
        raise RuntimeError("a back-substitution entry points at or above "
                           "its own row")
    if not len(rows):
        return
    order = np.argsort(rows, kind="stable")
    rows, deps, coeffs = rows[order], deps[order], coeffs[order]
    heads = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    owners = rows[heads]
    depth = np.ones(len(X), dtype=np.int64)
    # Depths only grow, and every entry points below its row, so this
    # settles within as many rounds as the longest chain of entries.
    while True:
        new = np.maximum.reduceat(depth[deps], heads) + 1
        if np.array_equal(new, depth[owners]):
            break
        depth[owners] = new
    # Entries grouped by the depth of their row, in row order within one.
    order = np.argsort(depth[rows], kind="stable")
    rows, deps, coeffs = rows[order], deps[order], coeffs[order]
    level_of = depth[rows]
    for level in range(2, int(depth.max()) + 1):
        level_rows = np.flatnonzero(depth == level)
        lo, hi = np.searchsorted(level_of, (level, level + 1))
        r_lv, d_lv, c_lv = rows[lo:hi], deps[lo:hi], coeffs[lo:hi]
        cuts = np.append(np.searchsorted(r_lv, level_rows[::_RUN]), hi - lo)
        for run, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            run_rows = level_rows[run * _RUN:(run + 1) * _RUN]
            used = np.unique(d_lv[a:b])
            C = np.zeros((len(run_rows), len(used)), dtype=X.dtype)
            C[np.searchsorted(run_rows, r_lv[a:b]),
              np.searchsorted(used, d_lv[a:b])] = c_lv[a:b]
            Y = X[run_rows]
            for lo_u in range(0, len(used), BLOCK_ROWS):
                part = slice(lo_u, lo_u + BLOCK_ROWS)
                _sub_matmul_mod(Y, C[:, part], X[used[part]], p)
            X[run_rows] = Y


def _known_block(kcols: np.ndarray, kcoeffs: np.ndarray, extra: tuple | None,
                 piv_of: np.ndarray, free_of: np.ndarray, dtype,
                 p: int) -> np.ndarray:
    """X of [I | X], the known pivot rows reduced on the pivot columns.

    The rows are the products (kcols, kcoeffs), padded and led by their
    first column, and the extra rows in CSR form (leads, offsets,
    columns, coefficients).  piv_of and free_of map a column to its
    index among the pivot and the free columns, or one past the end.  X
    keeps one spare column, which takes the writes of the padding and of
    the pivot columns, and is returned as a view without it, not copied
    out; the terms, flattened here, are freed on return.  With no pivot
    or no free column, there is nothing to reduce.
    """
    npiv, nfree = int(piv_of[-1]), int(free_of[-1])
    if not (npiv and nfree):
        return np.zeros((npiv, nfree), dtype=dtype)
    leads = np.repeat(kcols[:, 0], kcols.shape[1])
    cols, coeffs = kcols.ravel(), kcoeffs.ravel()
    if extra is not None:
        xleads, xptr, xcols, xvals = extra
        leads = np.concatenate([leads, np.repeat(xleads, np.diff(xptr))])
        cols = np.concatenate([cols, xcols])
        coeffs = np.concatenate([coeffs, xvals])
    rows = piv_of[leads]
    coeffs = coeffs.astype(dtype)
    X = np.zeros((npiv, nfree + 1), dtype=dtype)
    X[rows, free_of[cols]] = coeffs
    deps = piv_of[cols]
    inner = (deps < npiv) & (deps != rows)  # neither padding nor lead
    _back_substitute(X[:, :nfree], rows[inner], deps[inner], coeffs[inner], p)
    return X[:, :nfree]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices start, start + 1, ..., start + length - 1 of each
    (start, length), concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)


class KnownPivotSplit:
    """The Faugere-Lachartre split (PASCO 2010) of a Macaulay matrix whose
    rows lead with 1 mod p at a column known without elimination.

    1. The rows are (cols, coeffs) from product_rows, padded with column
       ncols; a row's first column is its lead.
    2. One row per distinct lead, among the rows from `first` on, is a
       known pivot row.  `extra`, if given, holds more known pivot rows
       in CSR form (leads, offsets, columns, coefficients), led by
       columns no row leads.
    3. The known pivot rows, sorted by lead, form [T | N] on (pivot
       columns | free columns), with T unit upper triangular mod p, since
       every lead is 1 mod p and every other term lies at a later
       column; their leads are `pivots`, the other columns `free`.
       Back-substitution over their terms turns it into [I | X],
       X = T^-1 N, by row operations within these rows.
    4. Every other row (C | D), and every row given to feed later, has
       the Schur row D - C*X: it is the row minus C*[I | X], so it lies
       in the same row space.  feed forms them in blocks of BLOCK_ROWS
       and feeds them to `reducer`, a RowReducer over the free columns.

    The row space is therefore spanned by [I | X] and the Schur rows
    (0 | S), the first independent on the pivot columns where the second
    vanishes: the rank is npiv + reducer.rank.  The reduced row echelon
    form holds, for a known pivot row, (I | X) with its X row cleared of
    the reducer's pivot columns (reducer.reduce_vector), and for a
    reducer slot, (0 | its row of reducer.reduced_rows).

    Exactness.  X - A*B with inner length k runs in a float dtype only
    when _float_ok(p, k + 1, dtype); the inner lengths are at most
    BLOCK_ROWS in the back-substitution and npiv for the Schur rows, and
    every entry is a residue or a mod_p result, |r| <= p - 1.  So X, C
    and S take _kernel_dtype(p, npiv + 1).  The reducer keeps its own
    gates.
    """

    def __init__(self, p: int, ncols: int, cols: np.ndarray,
                 coeffs: np.ndarray, first: int = 0, extra=None):
        pivots, known = np.unique(cols[first:, 0], return_index=True)
        known += first
        if extra is not None:
            pivots = np.sort(np.concatenate([pivots, extra[0]]))
        self.p, self.pivots, self.extra = p, pivots, extra
        self.npiv, self.nfree = npiv, nfree = len(pivots), ncols - len(pivots)
        # Column -> index among the pivot (resp. free) columns; the padding
        # column and the other kind map one past the end.
        self._piv_of = np.full(ncols + 1, npiv, dtype=np.int64)
        self._piv_of[pivots] = np.arange(npiv)
        self.free = np.flatnonzero(self._piv_of[:ncols] == npiv)
        self._free_of = np.full(ncols + 1, nfree, dtype=np.int64)
        self._free_of[self.free] = np.arange(nfree)
        self.dtype = _kernel_dtype(p, npiv + 1)
        self.X = _known_block(cols[known], coeffs[known], extra,
                              self._piv_of, self._free_of, self.dtype, p)
        self.others = np.delete(np.arange(len(cols)), known)
        self.reducer = RowReducer(p, nfree)
        self._C = self._S = np.empty((0, 0), dtype=self.dtype)

    def feed(self, cols: np.ndarray, coeffs: np.ndarray,
             rows: np.ndarray) -> list[int | None]:
        """Feed the Schur rows of the given rows of (cols, coeffs) to the
        reducer, checking the deadline before each block.

        Once the reducer's rank fills the free columns no row can add a
        pivot, and the rest are skipped.  Returns one reducer slot, or
        None, per row.
        """
        slots: list[int | None] = []
        for lo in range(0, len(rows), BLOCK_ROWS):
            if self.reducer.rank == self.nfree:
                break
            check_deadline()
            chunk = rows[lo:lo + BLOCK_ROWS]
            if len(self._C) < len(chunk):
                # Allocated once, as large as the first feed needs, so
                # the peak memory does not depend on the number of blocks.
                size = max(len(chunk), min(BLOCK_ROWS, len(self.others)))
                self._C = np.empty((size, self.npiv + 1), dtype=self.dtype)
                self._S = np.empty((size, self.nfree + 1), dtype=self.dtype)
            ccols, ccoeffs = cols[chunk], coeffs[chunk]
            at = np.arange(len(chunk))[:, None]
            C, S = self._C[:len(chunk)], self._S[:len(chunk)]
            C.fill(0)
            C[at, self._piv_of[ccols]] = ccoeffs
            S.fill(0)
            S[at, self._free_of[ccols]] = ccoeffs
            _sub_matmul_mod(S[:, :self.nfree], C[:, :self.npiv], self.X,
                            self.p)
            slots.extend(self.reducer.add_rows(S[:, :self.nfree]))
        return slots + [None] * (len(rows) - len(slots))

