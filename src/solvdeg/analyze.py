"""Diagnostics: Hilbert functions by rank, degree of regularity,
Artinian-ness, semi-regularity tests, the homogenization-variable
nonzerodivisor test, and the largest Groebner basis degree.

Hilbert function values come from ranks of per-degree coefficient blocks,
not from Groebner bases, all computed by one pass per system (_RankPass).
Each rank is a Faugere-Lachartre split (linalg.KnownPivotSplit, the
solver's elimination too): the products of the generators of lower
degree lead at known columns, and only the Schur complement on the
other columns, where the inputs of the degree enter, goes through
dense elimination.  The pivot rows that one degree's Schur complement
finds, times a variable, are known pivots of the next: what is left to
eliminate at degree d is about the monomials outside x*LM(I_{d-1}).

One walk (_hilbert_walk) answers the Hilbert questions about a system:
HF(F, 0), HF(F, 1), ... through the first zero, or through the Macaulay
bound if no degree fills up.  is_artinian, degree_of_regularity,
regularity_from_hilbert and analyze_system's d_reg, witness and profile
all read it; the semi-regularity tests compare the same values, degree
by degree, with the series prediction and stop at the first mismatch.

The nonzerodivisor test compares Hilbert functions too: those of F^h and
of the homogenized basis of solve(F), the one solve that analyze_system
shares with max_groebner_degree.  The Groebner route it replaces (solve
F^h, strip powers of t, divide) survives only as a test oracle.

analyze_system(timeout=) holds one deadline for the whole call: the
Hilbert-function loops check it between degrees and the rank pass
before each block of Schur rows, with the same check
(macaulay._check_deadline) that solve uses, and the solve gets the time
left.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .bounds import Underdetermined, macaulay_bound, semiregular_series
from .linalg import KnownPivotSplit, RowReducer, _ranges, product_rows
from .macaulay import _check_deadline, solve
from .poly import (
    MonomialIndex,
    PolySystem,
    degree_keys,
    homogenize_system,
    term_arrays,
    top_system,
)


class NotHomogeneous(ValueError):
    """Operation defined for homogeneous systems only."""


class NotArtinian(ValueError):
    """The ideal never fills a full degree within the cap."""


class HomogeneousInput(ValueError):
    """Operation defined for inhomogeneous systems only."""


@dataclass(frozen=True)
class AnalysisReport:
    """The diagnostic bundle for one system."""

    d_reg: float  # an int when finite, math.inf otherwise
    is_artinian: bool
    artinian_witness_degree: int | None
    crypto_semiregular: bool
    pardue_prefix_semiregular: bool | None
    t_nonzerodivisor: bool | None
    max_groebner_degree: int | None
    hilbert_function: tuple[int, ...]


# -- Hilbert functions by rank -------------------------------------------------


def _require_homogeneous(F: PolySystem) -> None:
    if not F.is_homogeneous:
        raise NotHomogeneous("system must be homogeneous")


def _found_rows(eng: RowReducer, free: np.ndarray,
                extra: tuple | None) -> tuple:
    """What one degree found beyond its input products, for the next
    degree: the stored rows of its Schur RowReducer, whose columns are the
    block columns `free`, and its extra rows `extra`, together in CSR
    form over the block columns as (leads, offsets, columns,
    coefficients), the form _extra_rows returns.

    Only the nonzero terms of the stored rows are taken, so a zero never
    reaches a column, and the RowReducer's pivot store, as wide as the
    free columns, is not kept.
    """
    rows = eng.stored_rows()
    at, col = np.nonzero(rows)
    parts = [(free[eng.pivot_cols], np.bincount(at, minlength=eng.rank),
              free[col], rows[at, col].astype(np.int64))]
    if extra is not None:
        parts.append((extra[0], np.diff(extra[1]), extra[2], extra[3]))
    leads, widths, cols, coeffs = map(np.concatenate, zip(*parts))
    return leads, np.concatenate([[0], np.cumsum(widths)]), cols, coeffs


class _RankPass:
    """The ranks of one system's degree blocks I_d, the span of the rows
    u*f_j with deg(u*f_j) = d, from the lowest degree up: a call computes
    every lower degree the pass has not seen, each keeping what it found
    for the next.  The pass stops at the first full degree e: I_{e+1}
    contains R_1 I_e, so from there on the rank is the column count.

    Each degree is a Faugere-Lachartre split (Faugere and Lachartre,
    PASCO 2010; linalg.KnownPivotSplit, which does steps 2, 4 and 5, and
    which the solver shares) whose known pivots grow with the degree, in
    the spirit of the degree-incremental matrix F5 of Bardet, Faugere and
    Salvy (JSC 2015):

    1. The products are the rows u*g of the generators g of degree < d
       (self.gens), which step 5 keeps.
    2. The lead of u*g is u*LM(g), known without elimination.  One
       product per distinct lead column is a known pivot row.
    3. Take more known pivot rows from degree d - 1 (_extra_rows): the
       Schur pivot rows s it found, and its own extra rows, times a
       variable.  Each degree-d monomial that no product leads, but some
       x_i*LM(s) equals, gets one row x_i*s, from the s with the fewest
       terms.
    4. Back-substitute the known pivot rows, over their terms, to [I | X]
       on (pivot columns | the other columns).
    5. Write each degree-d input and each other product as (C | D) on the
       same split; its Schur row is D - C*X on the other columns.  A
       rank-only RowReducer takes the Schur rows in source order, the
       inputs' first in add_rows calls of their own, until its rank
       fills the other columns.  The rows it stores are the next degree's
       s; those of the inputs' calls are the generators of degree d.
    6. The rank is |pivots| + rank(Schur rows).

    Why this is the rank.  (a) A RowReducer never swaps rows: a stored
    row is its fed row minus multiples of earlier stored rows and of the
    later rows of its own add_rows call, and a row that leaves no pivot
    is a combination of the stored rows before it.  The RowReducer is
    new at each degree and the inputs' calls hold no product, so the
    stored rows they fill and the inputs' Schur rows span the same space.
    (Fed in one call with products, the inputs could leave rows that do
    not span them.)  An input f has Schur row f - C*[I | X], where the
    known rows are products of generators of degree < d and extra rows
    x_i*s with s, a combination of Schur rows of degree d - 1, in
    I_{d-1}; by induction on d both lie in the ideal of the generators
    of degree < d.  So the generators of degree <= d generate the ideal
    of the inputs of degree <= d, and the products, the extra rows and
    the degree-d inputs span I_d, no more.  (b) Multiplying by a monomial
    keeps the degrevlex order of the terms.  A stored row is zero before
    its pivot column, where it holds 1 mod p (a symmetric residue, such
    as -1 for p = 2), and an extra row inherits this, so u*g leads at
    u*LM(g) and x_i*s at x_i*LM(s), with 1 mod p.  The known pivot rows,
    sorted by lead, form a matrix [T | N] with T unit upper triangular
    mod p.  Row operations within these rows turn it into [I | X],
    X = T^-1 N, without changing their span.  Subtracting C*[I | X] from
    another row (C | D) leaves (0 | D - C*X), again a row operation.  So
    I_d is spanned by [I | X] and the rows (0 | S), the first set is
    independent on the pivot columns where the second vanishes, and
    rank = |pivots| + rank(S).  Once the Schur rows fed reach rank = the
    number of other columns, no other row can raise it, and the rest are
    skipped, inputs too: the generators then span their Schur rows.

    What the extra rows cover.  The known and Schur pivot rows of degree
    d - 1 form an echelon basis of I_{d-1}, so their leads are LM(I_{d-1}).
    A variable times a product's lead is a product's lead, so with the
    extra rows every monomial of x*LM(I_{d-1}) gets a known pivot, and
    the Schur complement keeps only the monomials outside x*LM(I_{d-1}).
    For 12 random quadrics in 10 variables over GF(7919) (seed 1), at
    d = 6: 3,787 product leads and 1,196 extra rows leave 22 of 5,005
    columns, and the first 512 Schur rows fill them; from the products
    alone, 1,218 columns take three blocks of 512.

    Exactness.  The input coefficients are residues in [0, p), the stored
    rows of a RowReducer, and so the generators, symmetric residues,
    |r| <= p - 1, and every product goes through linalg._sub_matmul_mod,
    whose results are symmetric residues too (linalg.mod_p); the gates
    cover both forms.  X - A*B with inner length k runs in a float dtype
    with M = 2^24 or 2^53 only when _float_ok(p, k + 1, dtype), i.e.
    (p-1)^2 (k+3) < M, so every partial sum and the result, of magnitude
    at most (p-1)^2 (k+1), are exact integers; otherwise it runs in int64
    chunks that stay below 2^62.  The split gives X, C and S
    _kernel_dtype(p, |pivots| + 1): |pivots| is 4,983 at n = 10, d = 6
    above, while p = 7919 allows about 1.4e8 in float64.  The RowReducer
    keeps its own gates.
    """

    def __init__(self, F: PolySystem):
        _require_homogeneous(F)
        self.F = F
        self.n = F.ring.n
        self.p = F.ring.modulus.p
        self.ranks: list[int] = []
        self.gens: list = []
        self.found: tuple | None = None

    def rank(self, d: int, deadline: float | None = None) -> int:
        """The rank at degree d, after every degree below it, checking the
        deadline before each degree and each block of Schur rows.  A
        degree that the deadline interrupts records nothing."""
        while len(self.ranks) <= d:
            e = len(self.ranks)
            if e and self.ranks[-1] == comb(self.n + e - 2, e - 1):
                # I_e contains R_1 I_{e-1}: every later degree is full.
                return comb(self.n + d - 1, d)
            _check_deadline(deadline)
            self.ranks.append(self._degree_rank(e, deadline))
        return self.ranks[d]

    def _extra_rows(self, d: int, index: MonomialIndex,
                    pivots: np.ndarray) -> tuple | None:
        """The extra known pivot rows x_i*s of degree d, in the CSR form
        of _found_rows, or None if there are none.

        s runs over the rows self.found at degree d - 1.  Each degree-d
        monomial outside `pivots`, the leads of the known product rows,
        that some x_i*LM(s) equals gets one row, from the s with the
        fewest terms.
        """
        if self.found is None or len(pivots) == comb(self.n + d - 1, d):
            return None
        leads, offsets, found_cols, vals = self.found
        if not len(leads):
            return None
        widths = np.diff(offsets)
        # times[i, c]: the column of x_i times degree-(d-1) column c.
        times = index.product_positions(degree_keys(self.n, d - 1),
                                        degree_keys(self.n, 1))
        # Candidate k is x_i * (row j), k = i * len(leads) + j.
        cand = times[:, leads].ravel()
        uncovered = np.ones(index.size, dtype=bool)
        uncovered[pivots] = False
        k = np.flatnonzero(uncovered[cand])
        k = k[np.lexsort((widths[k % len(leads)], cand[k]))]
        lead = cand[k]
        first = np.diff(lead, prepend=-1) != 0
        var, row = np.divmod(k[first], len(leads))
        lead, w = lead[first], widths[row]
        if not len(lead):
            return None
        terms = _ranges(offsets[row], w)
        return (lead, np.concatenate([[0], np.cumsum(w)]),
                times[np.repeat(var, w), found_cols[terms]], vals[terms])

    def _degree_rank(self, d: int, deadline: float | None) -> int:
        """The rank at degree d, given what degree d - 1 found; self.gens
        and self.found change only once the degree is done."""
        n = self.n
        inputs = [(d, *term_arrays(f)) for f in self.F.polys
                  if not f.is_zero() and f.degree == d]
        if not inputs and not self.gens:
            self.found = None
            return 0
        nin = len(inputs)
        ncols = comb(n + d - 1, d)
        # Degree-d monomials lead the columns of MonomialIndex(n, d), so
        # the rows' positions in it are their columns in this block.
        index = MonomialIndex(n, d)
        # The multipliers of degree d - e, descending.
        cols, coeffs = product_rows(
            [(index.product_positions(keys, degree_keys(n, d - e)), coeffs)
             for e, keys, coeffs in inputs + self.gens], ncols)
        # The inputs are not monic, so only products are known (step 2).
        split = KnownPivotSplit(
            self.p, ncols, cols, coeffs, nin,
            lambda pivots: self._extra_rows(d, index, pivots),
            lambda: _check_deadline(deadline))
        # Step 5: the inputs are the first nin rows, none of them known.
        # With no free column, both feeds return at once.
        split.feed(cols, coeffs, split.others[:nin])
        eng = split.reducer
        ngens = eng.rank
        split.feed(cols, coeffs, split.others[nin:])
        keys = degree_keys(n, d)
        for row in eng.stored_rows()[:ngens]:
            at = np.flatnonzero(row)
            self.gens.append((d, keys[split.free[at]],
                              row[at].astype(np.int64)))
        self.found = (_found_rows(eng, split.free, split.extra)
                      if eng.rank < split.nfree else None)
        return split.npiv + eng.rank


@lru_cache(maxsize=4)
def _rank_pass(F: PolySystem) -> _RankPass:
    """The rank pass of F, kept for the next degree a walk asks for."""
    return _RankPass(F)


def hilbert_function(F: PolySystem, d: int, *,
                     deadline: float | None = None) -> int:
    """dim (R/I)_d for a homogeneous system, by rank computation: the
    rank of I_d from F's _RankPass.  With `deadline`, a time.monotonic()
    value, SolveTimeout is raised once it is reached, before any degree
    or block of the rank pass."""
    rank_pass = _rank_pass(F)
    if d < 0:
        raise ValueError("degree must be >= 0")
    return comb(F.ring.n + d - 1, d) - rank_pass.rank(d, deadline)


def hilbert_function_profile(F: PolySystem, dmax: int) -> tuple[int, ...]:
    """Hilbert function values for d = 0..dmax."""
    return tuple(_hilbert_values(F, range(dmax + 1), None))


def _remaining(deadline: float | None) -> float | None:
    """Seconds left before the deadline; raises once it is reached."""
    _check_deadline(deadline)
    return None if deadline is None else deadline - time.monotonic()


def _hilbert_values(F: PolySystem, degrees, deadline: float | None):
    """hilbert_function(F, d) for d in degrees, checking the deadline
    before each degree, and inside the rank pass."""
    for d in degrees:
        _check_deadline(deadline)
        yield hilbert_function(F, d, deadline=deadline)


def _hilbert_walk(F: PolySystem,
                  deadline: float | None) -> tuple[int, ...]:
    """HF(F, 0), HF(F, 1), ... through the first zero.

    If no degree fills up, the walk ends at the Macaulay bound (3 * the
    largest degree when there are fewer equations than variables), and
    it always includes degree 0, where a nonzero constant fills up.  A
    walk that ends at the bound drops the rows its rank pass keeps for
    the next degree: a later call for a higher degree of F computes one
    degree without extra rows, which gives the same rank.
    """
    _require_homogeneous(F)
    try:
        cap = macaulay_bound(F.ring.n, F.degrees)
    except Underdetermined:
        cap = 3 * max(F.degrees, default=0)
    values = []
    for hf in _hilbert_values(F, range(max(cap, 0) + 1), deadline):
        values.append(hf)
        if hf == 0:
            return tuple(values)
    # No degree of the walk needs what its last degree found.
    _rank_pass(F).found = None
    return tuple(values)


# -- regularity-style quantities -------------------------------------------------


def degree_of_regularity(F: PolySystem) -> float:
    """Least d where the top parts span all degree-d forms; inf if none
    within the Macaulay bound.

    Works for homogeneous and inhomogeneous systems alike (a homogeneous
    system is its own top part).
    """
    _, witness = is_artinian(top_system(F))
    return math.inf if witness is None else witness


def is_artinian(F: PolySystem) -> tuple[bool, int | None]:
    """Does some graded piece fill up?  (True, the least such degree), or
    (False, None) if none does within the Macaulay bound."""
    walk = _hilbert_walk(F, None)
    return (True, len(walk) - 1) if walk[-1] == 0 else (False, None)


def regularity_from_hilbert(F: PolySystem) -> int:
    """The least degree with a full graded piece, for Artinian input."""
    ok, witness = is_artinian(F)
    if not ok:
        raise NotArtinian("no degree fills up within the cap")
    return witness


# -- semi-regularity ---------------------------------------------------------------


def _crypto_test(F: PolySystem, deadline: float | None) -> bool:
    """Hilbert function against the truncated series prediction.

    The prediction is the series' initial positive run followed by one
    0, compared through degree sum(d_i - 1) + 1 at most: an
    underdetermined sequence never fills up, and equality through that
    degree is as definitive as a finite computation gets.  A nonzero
    constant (some d_i = 0) makes prod(1 - z^d_i) = 0, and the unit
    ideal it generates has HF = 0.
    """
    _require_homogeneous(F)
    degrees = F.degrees
    if not degrees or 0 in degrees:
        return True
    cap = sum(d - 1 for d in degrees) + 1
    predicted = semiregular_series(F.ring.n, degrees).coeffs + (0,)
    values = _hilbert_values(F, range(cap + 1), deadline)
    # The prediction goes first: once it runs out, zip stops without
    # computing one more Hilbert value.
    return all(want == got for want, got in zip(predicted, values))


def semiregular_test(F: PolySystem, mode: str = "crypto") -> bool:
    """Semi-regularity by Hilbert-series comparison.

    mode="crypto": the full sequence's Hilbert function must match the
    truncated series prediction.  mode="pardue_prefix": every prefix must
    match its own prediction (the stronger, order-dependent notion).
    mode="inhomogeneous": homogenize first, then run the crypto test.
    """
    return _semiregular_test(F, mode, None)


def _semiregular_test(F: PolySystem, mode: str,
                      deadline: float | None) -> bool:
    if mode == "crypto":
        return _crypto_test(F, deadline)
    if mode == "pardue_prefix":
        _require_homogeneous(F)
        polys = F.nonzero()
        # Longest first: F itself, whose rank pass is likely still cached.
        return all(_crypto_test(PolySystem(F.ring, polys[:ell]), deadline)
                   for ell in range(len(polys), 0, -1))
    if mode == "inhomogeneous":
        return _crypto_test(homogenize_system(F), deadline)
    raise ValueError(f"unknown mode {mode!r}")


# -- homogenization-variable tests ---------------------------------------------------


def t_nonzerodivisor(F: PolySystem, *, timeout: float | None = None) -> bool:
    """Is the homogenization variable t a nonzerodivisor mod (F^h)?

    One solve(F), then _t_nonzerodivisor on its basis; `timeout` bounds
    both.
    """
    if F.is_homogeneous:
        raise HomogeneousInput("the test concerns inhomogeneous systems")
    deadline = None if timeout is None else time.monotonic() + timeout
    return _t_nonzerodivisor(F, solve(F, timeout=timeout).basis, deadline)


def _t_nonzerodivisor(F: PolySystem, basis: tuple,
                      deadline: float | None) -> bool:
    """Is t a nonzerodivisor mod (F^h), given the reduced degrevlex basis
    G = `basis` of I = (F)?

    Let D be the largest degree in G.  t is a nonzerodivisor mod (F^h)
    if and only if HF(F^h, d) = HF(G^h, d) for every d <= D.  The two
    Hilbert functions are compared degree by degree, up to the first
    difference, and the deadline is checked before each degree.

    Proof.  (F^h) is contained in I^h = (F^h) : t^inf, and I^h is
    generated by G^h (Cox, Little, O'Shea, Ideals, Varieties, and
    Algorithms, ch. 8 sec. 4), so in degrees <= D.  If the Hilbert
    functions agree in every degree d <= D, the subspace (F^h)_d of I^h_d
    has its dimension, so it is I^h_d; then (F^h) holds the generators
    G^h, (F^h) = (F^h) : t^inf, and t is a nonzerodivisor.  If they
    differ at some d, some f in I^h_d lies outside (F^h) while t^k*f lies
    in (F^h) for some k, so t is a zero divisor.
    """
    H = homogenize_system(F)
    GH = homogenize_system(PolySystem(F.ring, tuple(basis)))
    degrees = range(max(g.degree for g in basis) + 1)
    return all(a == b for a, b in zip(_hilbert_values(H, degrees, deadline),
                                      _hilbert_values(GH, degrees, deadline)))


def max_groebner_degree(F: PolySystem, *, timeout: float | None = None) -> int:
    """Largest degree in the reduced degrevlex basis, as measured by solve."""
    return solve(F, timeout=timeout).max_gb_degree


# -- the assembled report --------------------------------------------------------------


def analyze_system(F: PolySystem, *, include_groebner: bool = True,
                   timeout: float | None = None) -> AnalysisReport:
    """Compute the full diagnostic bundle for a system.

    One Hilbert walk of the top system gives d_reg, the Artinian witness
    and `hilbert_function`: HF from degree 0 through the first zero, or
    through the Macaulay bound if no degree fills up (empty for a system
    without nonzero polynomials).

    One solve(F) gives max_groebner_degree and the basis that the
    t_nonzerodivisor test compares with F.  It is skipped only for a
    homogeneous system with include_groebner=False, which needs neither.

    `timeout` bounds the whole call: the Hilbert-function loops check
    one deadline between degrees and blocks, and the solve gets the time
    left.
    Once it is reached, SolveTimeout is raised.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    homogeneous = F.is_homogeneous
    walk = _hilbert_walk(top_system(F), deadline)
    witness = len(walk) - 1 if walk[-1] == 0 else None
    crypto = _semiregular_test(
        F, "crypto" if homogeneous else "inhomogeneous", deadline)
    pardue = (_semiregular_test(F, "pardue_prefix", deadline)
              if homogeneous else None)
    rep = (solve(F, timeout=_remaining(deadline))
           if include_groebner or not homogeneous else None)
    t_nzd = (None if homogeneous
             else _t_nonzerodivisor(F, rep.basis, deadline))
    maxgb = rep.max_gb_degree if include_groebner else None
    return AnalysisReport(
        d_reg=math.inf if witness is None else witness,
        is_artinian=witness is not None,
        artinian_witness_degree=witness,
        crypto_semiregular=crypto,
        pardue_prefix_semiregular=pardue,
        t_nonzerodivisor=t_nzd,
        max_groebner_degree=maxgb,
        hilbert_function=walk if F.nonzero() else (),
    )
