"""The Macaulay-matrix solving algorithm, instrumented.

The solver builds the degree-d matrix of a system (columns all monomials
of degree <= d in descending degrevlex, rows the multiples of the input
polynomials), row-reduces without permuting rows, closes the row space
under multiplication by variables (below degree d), and only then
decides whether the pivot rows reveal a Groebner basis.  The least
degree at which they do is the measured solving degree.

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
from math import comb

import numpy as np

from .bounds import Underdetermined, macaulay_bound
from .field import FieldElement, PrimeField
# reduce_basis is unused here: perfbench/layers.py wraps it by name.
from .groebner import is_groebner_basis, reduce_basis
from .linalg import BLOCK_ROWS, RowReducer
from .poly import (
    Monomial,
    MonomialIndex,
    PolySystem,
    Polynomial,
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

    `rows` counts every row fed to the eliminator: the initial products
    u*f_j of degree <= `degree` plus the variable multiples fed by the
    closure.  `degree_falls` counts the pivot slots whose leading term
    has a lower degree than that of the row fed for them.
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


def _ascending_keys(n: int, k: int) -> np.ndarray:
    """Keys of the monomials of degree k in ascending degrevlex."""
    # monomials_up_to(n, k) starts with the degree-k ones, descending.
    return monomial_keys_up_to(n, k)[comb(n + k - 1, k) - 1::-1]


class _Elimination:
    """One degree of the algorithm: feed rows, close under variables.

    The rows fed first are the products u*f_j of degree <= d, by
    ascending degree.  The closure then multiplies pivot rows of degree
    < d by each variable, visiting every pivot slot once, in the first
    round after it appears, and multiplying its row as the RowReducer
    stores it.  Rounds repeat until a round adds no pivot.  A slot of
    degree < d closes (its row is multiplied) when the row fed for it
    came from the closure, or is a product of degree d, which then fell.
    Any other slot, open, was fed a product u*f_j of degree < d, and each
    x_i*u*f_j is an initial row itself.

    The row space W at the fixpoint is the smallest space V that holds
    every u*f_j of degree <= d and x_i*v for every v in V of degree < d.
    W is inside V, since every fed row is.  For the converse, call v
    good if x_i*v lies in W for every i.  The good rows form a space,
    which holds the stored row of a closing slot, since the closure
    multiplied it, and every initial row of degree < d.  Two facts.

    (1) The RowReducer never swaps rows.  The row g_s fed for slot s
        fills it exactly when it is independent of the rows fed before
        it, and then n_s = g_s - u_s, with u_s in their span, scaled to
        lead with 1 and zero at every earlier pivot column.  Its stored
        row r_s is n_s minus multiples of the stored rows of later slots
        of the same flush, and never changes once stored.
    (2) The stored rows are semi-echelon, and so are the stored rows of
        earlier flushes together with the n_t of a flush: their leads
        are distinct, with nothing left of them.  So a combination of
        them leads where the largest lead it uses does, and uses no row
        of higher degree.

    By (2), the r_s of degree < d span the rows of W of degree < d, so
    it suffices that each is good.  Induct over flushes: those of the
    earlier flushes are good.  In a closure flush every new slot closes.
    In an initial flush, rows come by ascending degree, so no open slot
    follows a closing one.  Up the open slots: u_s has degree at most
    deg(g_s) < d, so by (2) it combines stored rows of earlier flushes
    and n_t of earlier slots of this flush, all of degree < d, so of
    open slots: all good, and with g_s, n_s is good.  Down the open
    slots: r_s - n_s combines stored rows of later slots of this flush,
    of degree <= deg(r_s) < d, each closing or open and good, so r_s is
    good.  Since the reduced row echelon form of a space is unique, the
    pivots, the rank and the extracted basis are those of V, whichever
    rows spanned it.
    """

    def __init__(self, polys: list[Polynomial], d: int, p: int,
                 deadline: float | None):
        self.d = d
        self.p = p
        self.deadline = deadline
        self.n = polys[0].nvars
        self.index = MonomialIndex(self.n, d)
        self.columns = monomials_up_to(self.n, d)
        self.keys = monomial_keys_up_to(self.n, d)
        self._degree = self.keys[:, -1].tolist()  # per column
        self.engine = RowReducer(p, self.index.size)
        # Per pivot slot, in order of appearance: whether it closes.
        self.closes: list[bool] = []
        self.rows_fed = 0
        self.fall_events = 0
        self._block = np.zeros((BLOCK_ROWS, self.index.size),
                               dtype=self.engine.dtype)
        self._tags = np.zeros(BLOCK_ROWS, dtype=np.int64)
        self._initial = np.zeros(BLOCK_ROWS, dtype=bool)
        self._filled = 0
        terms = [term_arrays(f) for f in polys]
        for e in range(min(f.degree for f in polys), d + 1):
            for f, (keys, coeffs) in zip(polys, terms):
                if f.degree <= e:
                    self._queue_products(
                        keys, coeffs, _ascending_keys(self.n, e - f.degree),
                        initial=True)
        self._flush()
        self._close()

    # row building -----------------------------------------------------------

    def _queue_products(self, keys: np.ndarray, coeffs: np.ndarray,
                        mult_keys: np.ndarray, initial: bool) -> None:
        """Queue the rows u*f, u running over mult_keys in order.

        Each row is tagged with its leading column and whether it is an
        initial u*f_j; rows are fed to the eliminator in blocks of
        BLOCK_ROWS.
        """
        cols = self.index.product_positions(keys, mult_keys)
        done = 0
        while done < len(cols):
            take = min(len(cols) - done, BLOCK_ROWS - self._filled)
            part = cols[done:done + take]
            rows = slice(self._filled, self._filled + take)
            np.put_along_axis(self._block[rows], part, coeffs[None], axis=1)
            self._tags[rows] = part[:, 0]
            self._initial[rows] = initial
            self._filled += take
            done += take
            if self._filled == BLOCK_ROWS:
                self._flush()

    def _flush(self) -> None:
        """Feed the queued rows and decide which new slots close."""
        if not self._filled:
            return
        _check_deadline(self.deadline)
        filled = self._filled
        slots = self.engine.add_rows(self._block[:filled])
        self._block[:filled] = 0
        self._filled = 0
        self.rows_fed += filled
        deg, cols = self._degree, self.engine.pivot_cols
        for slot, tag, initial in zip(slots, self._tags[:filled].tolist(),
                                      self._initial[:filled].tolist()):
            if slot is None:
                continue
            e, fed = deg[cols[slot]], deg[tag]
            self.fall_events += e < fed
            # New slots are numbered on from len(self.closes), in row order.
            self.closes.append(e < self.d and (not initial or fed == self.d))

    # closure under variables ------------------------------------------------

    def _close(self) -> None:
        engine = self.engine
        variables = _ascending_keys(self.n, 1)
        visited = 0  # slots are numbered in order of appearance
        while visited < engine.rank:
            _check_deadline(self.deadline)
            start, visited = visited, engine.rank
            for slot in range(start, visited):
                if not self.closes[slot]:
                    continue
                row = engine.stored_row(slot)
                nz = np.flatnonzero(row)
                self._queue_products(self.keys[nz], row[nz], variables,
                                     initial=False)
            self._flush()


def _vector_to_poly(content: np.ndarray, columns: tuple[Monomial, ...],
                    fld: PrimeField) -> Polynomial:
    nz = np.nonzero(content)[0]
    terms = [(columns[int(i)], FieldElement(int(content[int(i)]), fld))
             for i in nz]
    return Polynomial(terms, columns[0].nvars, fld)


def _extract_reduced_basis(elim: _Elimination, fld: PrimeField) -> list[Polynomial]:
    """Pivot rows with minimal leading terms, by ascending leading term.

    Only the kept rows are back-substituted, by the RowReducer's
    read-back, which checks the deadline before each block.  They come
    back as rows of the RREF: monic, and, the row space being closed,
    clear of every tail term that a kept lead divides (fact (c) in
    `solve`'s docstring), so no inter-reduction pass follows.  Columns
    run in descending degrevlex, so descending column is ascending lead.
    """
    engine, columns = elim.engine, elim.columns
    kept: list[tuple[Monomial, int]] = []
    for slot, c in sorted(enumerate(engine.pivot_cols), key=lambda t: -t[1]):
        if not any(km.divides(columns[c]) for km, _ in kept):
            kept.append((columns[c], slot))
    rows = engine.reduced_rows([slot for _, slot in kept],
                               lambda: _check_deadline(elim.deadline))
    return [_vector_to_poly(row, columns, fld) for row in rows]


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
    and so is either one below the largest input degree.

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
        but G is read back (RowReducer.reduced_rows) as rows of the RREF,
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
    p = F.ring.modulus.p
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

    trace: list[DegreeTrace] = []
    for d in range(d0, end + 1):
        try:
            elim = _Elimination(polys, d, p, deadline)
            trace.append(DegreeTrace(
                degree=d, rows=elim.rows_fed, cols=elim.index.size,
                rank=elim.engine.rank, degree_falls=elim.fall_events,
            ))
            if apriori_bound is not None and d < end:
                continue
            basis = _extract_reduced_basis(elim, fld)
        except SolveTimeout:
            raise SolveTimeout(
                f"solve timed out at degree {d}", tuple(trace)
            ) from None
        if apriori_bound is not None:
            stop_reason = "apriori_bound"
        elif is_groebner_basis(basis, closed_degree=d):
            stop_reason = "spair_check"
        else:
            continue
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
