"""The Macaulay-matrix solving algorithm, instrumented.

The solver builds the degree-d matrix of a system (columns all monomials
of degree <= d in descending degrevlex, rows the multiples of the monic
input polynomials), row-reduces it without permuting rows, closes the
row space under multiplication by variables (below degree d), and only
then decides whether the pivot rows reveal a Groebner basis.  The least
degree at which they do is the measured solving degree.

The elimination is the known-pivot split of linalg.KnownPivotSplit, the
one that analyze's rank pass uses too: the products with distinct leads
are pivots without elimination, and only the Schur complement of the
other rows, on the columns no product leads, goes through the dense
RowReducer.  X, C and S take _kernel_dtype(p, npiv + 1); the proof is in
the split's docstring.

The stopping test is done outside the matrix, by polynomial division of
the S-polynomials whose lcm has degree above d against the candidate
basis; that keeps the reported solving degree equal to the degree of the
matrices actually eliminated.  The closed row space already proves the
rest: pairs at or below degree d reduce to zero, the inputs lie in the
ideal of the basis, and the pivot rows are inter-reduced (see `solve`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bounds import Underdetermined, macaulay_bound
from .field import PrimeField
# reduce_basis is unused here: perfbench/layers.py wraps it by name.
from .groebner import is_groebner_basis, reduce_basis
from .linalg import KnownPivotSplit, product_rows
from .poly import (
    Monomial,
    MonomialIndex,
    PolySystem,
    Polynomial,
    degree_keys,
    monomial_keys_up_to,
    monomials_up_to,
    term_arrays,
)

__all__ = [
    "DegreeTrace",
    "SolveReport",
    "DegreeCapExceeded",
    "SolveTimeout",
    "solve",
]

class DegreeCapExceeded(RuntimeError):
    """The degree cap was reached without finding a Groebner basis."""

    def __init__(self, message: str, trace: tuple):
        super().__init__(message)
        self.trace = trace


class SolveTimeout(RuntimeError):
    """The cooperative deadline expired; carries the partial trace."""

    def __init__(self, message: str, trace: tuple):
        super().__init__(message)
        self.trace = trace


def _check_deadline(deadline: float | None) -> None:
    """Raise SolveTimeout once the deadline is reached: a deadline equal
    to the clock counts as expired, so timeout=0 always stops."""
    if deadline is not None and time.monotonic() >= deadline:
        raise SolveTimeout("deadline expired", ())


@dataclass(frozen=True)
class DegreeTrace:
    """What happened at one degree: matrix size, rank, fall count.

    `rows` counts every row of the matrix: the initial products u*f_j of
    degree <= `degree`, known pivot rows and Schur rows alike, plus the
    variable multiples fed by the closure.  `degree_falls` counts the
    pivot slots whose leading term has a lower degree than that of the
    row fed for them; a known pivot row leads where its product does.
    """

    degree: int
    rows: int
    cols: int
    rank: int
    degree_falls: int


@dataclass(frozen=True)
class SolveReport:
    basis: tuple[Polynomial, ...]
    solving_degree: int
    max_gb_degree: int
    trace: tuple[DegreeTrace, ...]
    stop_reason: str


# A degree with at most this many products takes none as known pivots:
# below it, the split's fixed cost, a few array operations per depth of
# the back-substitution, outweighs the dense elimination of the rows.
_SPLIT_ROWS = 64


def _monic_terms(polys: list[Polynomial]) -> list[tuple]:
    """(degree, keys, coefficients) of each input made monic: the inputs
    of _Elimination, built once per solve.  Residues below 2^31 keep the
    products below 2^62."""
    return [(f.degree, keys,
             coeffs * f.leading_coefficient.inverse().value % f.field.p)
            for f in polys for keys, coeffs in [term_arrays(f)]]


class _Elimination:
    """One degree of the algorithm: split the rows, close under variables.

    The rows are the products u*f_j of degree <= d of the monic inputs,
    by ascending degree, and the closure rows.  They go through a
    known-pivot split (linalg.KnownPivotSplit): the first product of
    each distinct lead u*LM(f_j) is a known pivot row, reduced to
    [I | X]; every other product becomes a Schur row, fed in order to
    the split's RowReducer over the free columns.  (A degree with at
    most _SPLIT_ROWS products takes no known pivot row: [I | X] is empty
    below, and every product is a Schur row.)  The closure then
    multiplies Schur pivot rows of degree < d by each variable, visiting
    every Schur slot once, in the first round after it appears, and
    multiplying its row as the RowReducer stores it (zero on the known
    pivot columns); x_i*s goes through the same Schur step.  Rounds
    repeat until a round adds no pivot.  A slot of degree < d closes
    (its row is multiplied) when the row fed for it came from the
    closure, or is a product of degree d, which then fell.  Any other
    slot, open, was fed a product u*f_j of degree < d, and each
    x_i*u*f_j is an initial row itself.

    The row space W at the fixpoint is the smallest space V that holds
    every u*f_j of degree <= d and x_i*v for every v in V of degree < d.
    W is inside V, since every row is: a known pivot row is a product,
    and a Schur row is its row minus a combination of them.  For the
    converse, call v good if x_i*v lies in W for every i.  The good rows
    form a space, which holds every initial row of degree < d and the
    stored row of a closing slot, since the closure multiplied it.

    Known rows never close.  A known row of degree < d is an initial
    product, and its [I | X] form combines only known rows of lower or
    equal lead, so of degree < d: it is good.  The Schur row of a row g
    is g minus known rows of lead at most lead(g), so of degree at most
    deg(g); if deg(g) < d, both are good.  Two facts about the Schur
    rows, as the RowReducer takes them.

    (1) The RowReducer never swaps rows.  The Schur row g_s fed for slot
        s fills it exactly when it is independent of the Schur rows fed
        before it, and then n_s = g_s - u_s, with u_s in their span,
        scaled to lead with 1 and zero at every earlier pivot column.
        Its stored row r_s is n_s minus multiples of the stored rows of
        later slots of the same add_rows call, and is fixed once stored:
        the closure multiplies the row that stays.
    (2) The stored rows are semi-echelon, and so are the stored rows of
        earlier calls together with the n_t of a call: their leads are
        distinct, with nothing left of them.  So a combination of them
        leads where the largest lead it uses does, and uses no row of
        higher degree.

    W is spanned by [I | X] and the r_s, which vanish on the known pivot
    columns, so together they are semi-echelon too, and as in (2) a row
    of W of degree < d combines only those of degree < d.  The known
    ones are good, so it suffices that each r_s of degree < d is good.
    Induct over add_rows calls (one per block of Schur rows): those of
    the earlier calls are good.  In a closure call every new slot
    closes.  In an initial call, rows come by ascending degree, so
    no open slot follows a closing one.  Up the open slots: g_s is the
    Schur row of a product of degree < d, so good, and of degree < d;
    u_s has degree at most deg(g_s), so by (2) it combines stored rows
    of earlier calls and n_t of earlier slots of this call, all of
    degree < d, so of open slots: all good, and so n_s is good.  Down
    the open slots: r_s - n_s combines stored rows of later slots of
    this call, of degree <= deg(r_s) < d, each closing or open and good,
    so r_s is good.  Since the reduced row echelon form of a space is
    unique, the pivots, the rank and the extracted basis are those of V,
    whichever rows spanned it.
    """

    def __init__(self, inputs: list[tuple], d: int, p: int,
                 deadline: float | None):
        _check_deadline(deadline)
        self.d = d
        self.n = n = inputs[0][1].shape[1]
        self.index = MonomialIndex(n, d)
        self.keys = monomial_keys_up_to(n, d)
        # Products by ascending degree, and within one by ascending
        # multiplier.
        parts = [(self.index.product_positions(
                      keys, degree_keys(n, e - deg)[::-1]), coeffs)
                 for e in range(min(deg for deg, _, _ in inputs), d + 1)
                 for deg, keys, coeffs in inputs if deg <= e]
        cols, coeffs = product_rows(parts, self.index.size)
        self.split = KnownPivotSplit(
            p, self.index.size, cols, coeffs,
            0 if len(cols) > _SPLIT_ROWS else len(cols),
            before_block=lambda: _check_deadline(deadline))
        self._free_degree = self.keys[self.split.free, -1].tolist()
        # Per Schur slot, in order of appearance: whether it closes.
        self.closes: list[bool] = []
        self.rows_fed = len(cols)
        self.fall_events = 0
        self._feed(cols, coeffs, self.split.others, initial=True)
        self._close()

    def _feed(self, cols: np.ndarray, coeffs: np.ndarray, rows: np.ndarray,
              initial: bool) -> None:
        """Feed the Schur rows of the given rows of (cols, coeffs) and
        decide which new slots close."""
        deg, pivot_cols = self._free_degree, self.split.reducer.pivot_cols
        slots = self.split.feed(cols, coeffs, rows)
        # A row's degree is that of its lead, its first column.
        for slot, fed in zip(slots, self.keys[cols[rows, 0], -1].tolist()):
            if slot is None:
                continue
            e = deg[pivot_cols[slot]]
            self.fall_events += e < fed
            # New slots are numbered on from len(self.closes), in row order.
            self.closes.append(e < self.d and (not initial or fed == self.d))

    def _close(self) -> None:
        engine, visited = self.split.reducer, 0  # slots in order of appearance
        free_keys = self.keys[self.split.free]
        variables = degree_keys(self.n, 1)[::-1]
        while visited < engine.rank:
            start, visited = visited, engine.rank
            parts = []
            for slot in range(start, visited):
                if self.closes[slot]:
                    row = engine.stored_rows()[slot]
                    nz = np.flatnonzero(row)
                    parts.append((self.index.product_positions(
                        free_keys[nz], variables), row[nz]))
            if parts:
                cols, coeffs = product_rows(parts, self.index.size)
                self.rows_fed += len(cols)
                self._feed(cols, coeffs, np.arange(len(cols)), initial=False)


def _extract_reduced_basis(elim: _Elimination, fld: PrimeField) -> list[Polynomial]:
    """Pivot rows with minimal leading terms, by ascending leading term.

    Only the kept rows are read back, as rows of the RREF: a kept known
    pivot row is (I | X) with its X row cleared of the Schur pivot
    columns by the cascade of the split's RowReducer, and a kept Schur
    slot is (0 | its row of RowReducer.reduced_rows).  Both check the
    deadline before each block.  The rows come back monic and, the row
    space being closed, clear of every tail term that a kept lead
    divides (fact (c) in `solve`'s docstring), so no inter-reduction
    pass follows.  Columns run in descending degrevlex, so descending
    column is ascending lead.
    """
    split = elim.split
    engine, npiv, free = split.reducer, split.npiv, split.free.tolist()
    columns = monomials_up_to(elim.n, elim.d)
    leads = split.pivots.tolist() + [free[c] for c in engine.pivot_cols]
    kept: list[tuple[Monomial, int]] = []
    for i in sorted(range(len(leads)), key=leads.__getitem__, reverse=True):
        m = columns[leads[i]]
        if not any(km.divides(m) for km, _ in kept):
            kept.append((m, i))
    known = iter(engine.reduce_vector(
        split.X[[i for _, i in kept if i < npiv]], split.before_block))
    schur = iter(engine.reduced_rows(
        [i - npiv for _, i in kept if i >= npiv], split.before_block))
    basis = []
    for m, i in kept:
        row = next(known) if i < npiv else next(schur)
        nz = np.flatnonzero(row)
        terms = [(columns[free[j]], v) for j, v in
                 zip(nz.tolist(), row[nz].astype(np.int64).tolist())]
        if i < npiv:  # the lead of a known row, on the pivot columns
            terms.append((m, 1))
        basis.append(Polynomial(terms, elim.n, fld))
    return basis


# -- public operations ---------------------------------------------------------


def solve(F: PolySystem, *, max_degree: int | None = None,
          apriori_bound: int | None = None,
          timeout: float | None = None) -> SolveReport:
    """Run the degree-by-degree elimination until a basis is certified.

    At each degree d, extract the candidate basis G and certify it by
    dividing the S-polynomials of its pairs whose lcm has degree above d.
    With `apriori_bound` given, run the elimination up to that degree
    instead and return its basis without certification.  `max_degree`
    caps the certified mode only, so giving both stop rules is an error,
    and so is either one below the largest input degree.  `timeout` is
    checked before each block of rows, of the extraction's read-back and
    before each S-pair division; once it is reached, SolveTimeout carries
    the degrees done.

    Why nothing else needs checking.  Let V_d be the row space that
    _Elimination builds, closed as its docstring proves, and G its pivot
    rows with minimal leading monomials.  The order is graded, so
    deg(u*g) = deg(u) + deg(g), and by closure u*g lies in V_d for every
    g in G and monomial u with deg(u*g) <= d.  Every nonzero h in V_d
    leads with a pivot column, and every pivot lead is a multiple of a
    lead of G.  So division by G never leaves a term of h in the
    remainder: its largest term is u*lead(g) for some g in G, the step
    subtracts a multiple of u*g, which lies in V_d, and what is left is
    in V_d with a smaller lead.  Every h in V_d reduces to zero.  Hence:

    (a) For a pair of G whose lcm has degree <= d, both products in its
        S-polynomial lie in V_d, so it reduces to zero.  Only the pairs
        above d need division (is_groebner_basis(closed_degree=d)).  The
        Gebauer-Moller chain criterion stays sound, because the pairs
        left out of the queue do reduce to zero, as treated pairs must.
    (b) Each input f_j, of degree <= d, lies in V_d and so reduces to
        zero: G generates the ideal of F, and membership needs no check.
    (c) A tail term m of g in G has degree <= d.  If the lead of some h
        in G divided it, m = u*lead(h) would lead u*h in V_d, so m would
        be a pivot column.  The pivot rows are kept only semi-echelon,
        but G is read back (_extract_reduced_basis) as rows of the RREF,
        which are clear of every pivot column but their own.  So G's
        tails are reduced, and with its monic rows and minimal leads G
        is what reduce_basis would return, at any degree and in apriori
        mode too.
    """
    if apriori_bound is not None and max_degree is not None:
        raise ValueError("give apriori_bound or max_degree, not both")
    polys = [f for f in F.polys if not f.is_zero()]
    if not polys:
        raise ValueError("cannot solve a system with no nonzero polynomials")
    fld = F.ring.modulus
    d0 = max(f.degree for f in polys)
    deadline = None if timeout is None else time.monotonic() + timeout

    if apriori_bound is not None:
        end = apriori_bound
    elif max_degree is not None:
        end = max_degree
    else:
        try:
            end = macaulay_bound(F.ring.n + 1, [f.degree for f in polys])
        except Underdetermined:
            end = 30
        end = max(end, d0)
    if end < d0:
        raise ValueError(
            f"degree cap {end} below the largest input degree {d0}")

    inputs = _monic_terms(polys)
    trace: list[DegreeTrace] = []
    for d in range(d0, end + 1):
        try:
            elim = _Elimination(inputs, d, fld.p, deadline)
            trace.append(DegreeTrace(
                degree=d, rows=elim.rows_fed, cols=elim.index.size,
                rank=elim.split.npiv + elim.split.reducer.rank,
                degree_falls=elim.fall_events,
            ))
            if apriori_bound is not None and d < end:
                continue
            basis = _extract_reduced_basis(elim, fld)
            if apriori_bound is not None:
                stop_reason = "apriori_bound"
            elif is_groebner_basis(
                    basis, closed_degree=d,
                    before_pair=lambda: _check_deadline(deadline)):
                stop_reason = "spair_check"
            else:
                continue
        except SolveTimeout:
            raise SolveTimeout(
                f"solve timed out at degree {d}", tuple(trace)
            ) from None
        return SolveReport(
            basis=tuple(basis),
            solving_degree=d,
            max_gb_degree=max(g.degree for g in basis),
            trace=tuple(trace),
            stop_reason=stop_reason,
        )
    raise DegreeCapExceeded(
        f"no Groebner basis found through degree {end}", tuple(trace)
    )
