"""Polynomial division, S-polynomials, and a Buchberger reference engine.

The Buchberger implementation here is the validation oracle for the
Macaulay-matrix solver: a different algorithm over the same polynomial
arithmetic.  It is a plain textbook loop with the coprime-lead and chain
criteria, selection by smallest lcm, and a final inter-reduction pass.

Division works on a dict of exponent tuples with a lazy max-heap over the
term order, so reducing the large dense polynomials the solver produces
does not re-sort term lists at every step.

The pair loop checks the deadline of the enclosing scope
(deadline.check_deadline) before each division, which bounds the
certification that solve runs.
"""

from __future__ import annotations

import heapq

from .deadline import check_deadline
from .field import FieldElement
from .poly import Monomial, PolySystem, Polynomial


def _heap_key(exps: tuple[int, ...]) -> tuple:
    """Min-heap key that pops the degrevlex-largest monomial first."""
    return (-sum(exps),) + tuple(reversed(exps))


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def normal_form(f: Polynomial, basis: list[Polynomial]) -> Polynomial:
    """Remainder of f under multivariate division by `basis`.

    The largest reducible term is always attacked first, so no term of
    the result is divisible by any leading monomial of the basis.
    """
    if f.is_zero():
        return f
    p = f.field.p
    divisors = [
        (g.leading_monomial.exps, g.leading_coefficient.value, g.terms)
        for g in basis if not g.is_zero()
    ]
    coeff: dict[tuple[int, ...], int] = {}
    heap: list[tuple] = []
    for m, c in f.terms:
        coeff[m.exps] = c.value
        heapq.heappush(heap, (_heap_key(m.exps), m.exps))
    rem: dict[tuple[int, ...], int] = {}
    while heap:
        _, e = heapq.heappop(heap)
        c = coeff.get(e, 0)
        if c == 0:
            continue
        hit = None
        for lm, lc, terms in divisors:
            if _divides(lm, e):
                hit = (lm, lc, terms)
                break
        if hit is None:
            rem[e] = c
            del coeff[e]
            continue
        lm, lc, terms = hit
        factor = c * pow(lc, -1, p) % p
        shift = tuple(a - b for a, b in zip(e, lm))
        for m, mc in terms:
            key = tuple(a + b for a, b in zip(m.exps, shift))
            old = coeff.get(key, 0)
            new = (old - factor * mc.value) % p
            if new:
                coeff[key] = new
                if old == 0:
                    heapq.heappush(heap, (_heap_key(key), key))
            else:
                coeff.pop(key, None)
    fld = f.field
    return Polynomial(
        ((Monomial(e), FieldElement(c, fld)) for e, c in rem.items()),
        f.nvars, fld,
    )


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lf, lg = f.leading_monomial, g.leading_monomial
    lcm = lf.lcm(lg)
    uf = lcm.div(lf)
    ug = lcm.div(lg)
    return (f * uf) * g.leading_coefficient - (g * ug) * f.leading_coefficient


def _skip_pair(i: int, j: int, lms: list[Monomial],
               pairs: set[tuple[int, int]]) -> bool:
    """True when the S-polynomial of pair (i, j) need not be reduced.

    `lms` are the leading monomials and `pairs` the pairs not yet treated,
    each stored as (larger index, smaller index).
    """
    lcm = lms[i].lcm(lms[j])
    # Coprime leads: the S-polynomial reduces to zero automatically.
    if lcm.degree == lms[i].degree + lms[j].degree:
        return True
    # Chain criterion: some third element divides the lcm and both side
    # pairs have already been treated.
    for k, lm in enumerate(lms):
        if k in (i, j) or not lm.divides(lcm):
            continue
        if ((max(i, k), min(i, k)) not in pairs
                and (max(j, k), min(j, k)) not in pairs):
            return True
    return False


def _new_elements(basis: list[Polynomial], closed_degree: int = -1):
    """Treat every S-pair of `basis`; yield each element the pairs add.

    Pairs are taken by smallest lcm, ties by index, from a heap keyed
    once per pair, and pruned by _skip_pair.  A nonzero remainder is
    appended to `basis` (monic), its pairs are queued, and it is yielded.
    Pairs whose lcm has degree <= `closed_degree` are never queued: the
    caller vouches that they reduce to zero, so to the chain criterion
    they count as treated.  The deadline is checked before each pair is
    divided.
    """
    lms = [g.leading_monomial for g in basis]
    pairs: set[tuple[int, int]] = set()
    heap: list[tuple] = []

    def queue(i: int) -> None:
        for j in range(i):
            lcm = lms[i].lcm(lms[j])
            if lcm.degree > closed_degree:
                pairs.add((i, j))
                heapq.heappush(heap, (lcm.sort_key(), (i, j)))

    for i in range(len(basis)):
        queue(i)
    while heap:
        _, (i, j) = heapq.heappop(heap)
        pairs.discard((i, j))
        if _skip_pair(i, j, lms, pairs):
            continue
        check_deadline()
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        basis.append(r.monic())
        lms.append(r.leading_monomial)
        queue(len(basis) - 1)
        yield basis[-1]


def reduce_basis(basis: list[Polynomial]) -> list[Polynomial]:
    """The reduced basis: minimal leads, reduced tails, monic, sorted.

    Output is ordered by ascending degrevlex leading monomial, which makes
    reduced bases directly comparable.
    """
    polys = [g.monic() for g in basis if not g.is_zero()]
    polys.sort(key=lambda g: g.leading_monomial.sort_key())
    minimal: list[Polynomial] = []
    for g in polys:
        if not any(h.leading_monomial.divides(g.leading_monomial) for h in minimal):
            minimal.append(g)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(minimal):
            others = minimal[:i] + minimal[i + 1 :]
            r = normal_form(g, others).monic()
            if r != g:
                minimal[i] = r
                changed = True
    minimal.sort(key=lambda g: g.leading_monomial.sort_key())
    return minimal


def buchberger_oracle(F: PolySystem) -> list[Polynomial]:
    """Reduced degrevlex Groebner basis by Buchberger's algorithm."""
    basis = [f.monic() for f in F.polys if not f.is_zero()]
    for _ in _new_elements(basis):
        pass
    return reduce_basis(basis)


def is_groebner_basis(basis: list[Polynomial],
                      generators: list[Polynomial] | None = None,
                      *, closed_degree: int = -1) -> bool:
    """Verify the Buchberger criterion by explicit division.

    The pair loop of the construction runs on the basis and must add
    nothing.  With `generators` given, also checks that every generator
    reduces to zero against the basis.

    `closed_degree=d` is for a basis that is the set of pivot rows with
    minimal leads of a Macaulay row space closed under multiplication by
    variables through degree d, as `macaulay.solve` certifies.  Every
    S-pair whose lcm has degree <= d then reduces to zero (the proof is
    in `solve`'s docstring), so only the pairs above d are divided.
    Without it, every pair is divided: the full check that tests use as
    an oracle.  Once the deadline of the enclosing scope is reached,
    SolveTimeout ends the check before the next pair.
    """
    gs = [g for g in basis if not g.is_zero()]
    if generators is not None and any(
            not normal_form(f, gs).is_zero() for f in generators):
        return False
    return next(_new_elements(gs, closed_degree), None) is None
