"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: ranks
are computed by a pure-Python eliminator with row swaps, Hilbert function
values by brute-force monomial containment, series by naive convolution
over Python ints, and the homogenization-variable test by the solver's
basis of F^h with powers of t stripped and divided, not by Hilbert
functions.
"""

from __future__ import annotations

import os

# One BLAS thread, as the benchmark uses, set before anything imports
# numpy.  Idle OpenBLAS threads spin while they wait: with two of them
# the suite used about twice the CPU for about the same wall time.
# An explicit setting in the environment still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from solvdeg import PolySystem, PolynomialRing, PrimeField, solve
from solvdeg.groebner import normal_form
from solvdeg.poly import Monomial, Polynomial, homogenize_system
from solvdeg.randsys import random_corpus


# -- independent oracles -------------------------------------------------------


def oracle_rref_rows(rows: list[list[int]], p: int) -> set[tuple[int, ...]]:
    """The set of nonzero RREF rows (canonical, order-free), by Gaussian
    elimination with row swaps over GF(p), pure Python."""
    M = [[x % p for x in row] for row in rows]
    if not M:
        return set()
    nrows, ncols = len(M), len(M[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [(x * inv) % p for x in M[r]]
        for i in range(nrows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(a - f * b) % p for a, b in zip(M[i], M[r])]
        r += 1
        if r == nrows:
            break
    return {tuple(row) for row in M[:r]}


def oracle_rank(rows: list[list[int]], p: int) -> int:
    """The rank over GF(p): the nonzero rows of an RREF are distinct, so
    they are as many as the rank."""
    return len(oracle_rref_rows(rows, p))


def residue_bound(p: int) -> int:
    """The bound on |linalg.mod_p(a)| that mod_p's docstring proves."""
    return p - 1 if p <= 3 else (p + 3) // 2


def assert_residues(got, want, p: int, canonical: bool = False) -> None:
    """got holds exact residues of the Python ints in want: congruent mod
    p and, as mod_p leaves float values, |got| <= residue_bound(p), or
    in [0, p) where the int64 path or a read-back canonicalised them."""
    for g, w in zip(np.ravel(got).tolist(), np.ravel(want).tolist()):
        assert g == int(g) and (int(g) - int(w)) % p == 0, (p, g, w)
        if canonical:
            assert 0 <= g < p, (p, g, w)
        else:
            assert abs(g) <= residue_bound(p), (p, g, w)


def oracle_series(n: int, degrees: list[int], cap: int) -> list[int]:
    """Naive exact coefficients of prod(1 - z^d) / (1 - z)^n up to cap."""
    # numerator
    num = [1]
    for d in degrees:
        out = [0] * min(len(num) + d, cap + 1 + d)
        for i, c in enumerate(num):
            if i < len(out):
                out[i] += c
            if i + d < len(out):
                out[i + d] -= c
        num = out[: cap + 1]
    # divide by (1 - z)^n: n rounds of prefix sums
    coeffs = num + [0] * (cap + 1 - len(num))
    for _ in range(n):
        acc = 0
        for k in range(cap + 1):
            acc += coeffs[k]
            coeffs[k] = acc
    return coeffs


def oracle_standard_monomials(leads: list[tuple[int, ...]], n: int,
                              d: int) -> int:
    """Count degree-d monomials not divisible by any lead (brute force)."""
    import itertools

    count = 0
    for bars in itertools.combinations(range(d + n - 1), n - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + n - 2 - prev)
        if not any(all(l <= e for l, e in zip(lead, exps)) for lead in leads):
            count += 1
    return count


def oracle_t_nonzerodivisor(F: PolySystem) -> bool:
    """Is the homogenization variable t a nonzerodivisor mod (F^h)?  By
    strip and divide, without Hilbert functions.

    Solves F^h to its reduced degrevlex basis G, divides each element by
    its largest power of t (the results generate (F^h) : t^inf, since t
    is the last variable of a degrevlex order), and asks whether each
    quotient still reduces to zero by G: the saturation equals (F^h)
    exactly when nothing new appears.
    """
    basis = list(solve(homogenize_system(F)).basis)
    for g in basis:
        k = min(m.exps[-1] for m, _ in g.terms)
        if k == 0:
            continue
        stripped = Polynomial(
            [(Monomial(m.exps[:-1] + (m.exps[-1] - k,)), c)
             for m, c in g.terms], g.nvars, g.field)
        if not normal_form(stripped, basis).is_zero():
            return False
    return True


# -- shared corpora --------------------------------------------------------------


def small_random_corpus() -> list[PolySystem]:
    """30 small inhomogeneous random systems over {2, 7, 101}."""
    return random_corpus(30, seed=77, first_seed=9000)


@pytest.fixture(scope="session")
def corpus() -> list[PolySystem]:
    return small_random_corpus()


@pytest.fixture()
def ring_xy() -> PolynomialRing:
    return PolynomialRing(("x", "y"), PrimeField(7))


@pytest.fixture()
def ring_xyz() -> PolynomialRing:
    return PolynomialRing(("x", "y", "z"), PrimeField(7))
