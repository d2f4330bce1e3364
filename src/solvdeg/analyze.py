"""Diagnostics: Hilbert functions by rank, degree of regularity,
Artinian-ness, semi-regularity tests, the homogenization-variable
nonzerodivisor test, and the largest Groebner basis degree.

Hilbert function values come from ranks of per-degree coefficient blocks,
not from Groebner bases; the Groebner route survives only as a test
oracle.  Per-degree blocks are fed to the eliminator in a deterministic
shuffled order with an early exit once the rank saturates, which is what
keeps the witness-degree checks on larger systems affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .bounds import Underdetermined, macaulay_bound
from .groebner import normal_form
from .linalg import BLOCK_ROWS, RowReducer
from .macaulay import solve
from .poly import (
    Monomial,
    MonomialIndex,
    PolySystem,
    Polynomial,
    homogenize_system,
    monomial_keys_up_to,
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


@lru_cache(maxsize=4096)
def _graded_rank(F: PolySystem, d: int) -> int:
    """Rank of the degree-d block: rows u*f_j with deg(u*f_j) = d."""
    n = F.ring.n
    p = F.ring.modulus.p
    ncols = comb(n + d - 1, d)
    # Degree-d monomials lead monomials_up_to(n, d), so the products'
    # positions in it are their columns in this block.
    index = MonomialIndex(n, d)
    products = []  # per source: (columns of u*f_j, one row per u; coeffs)
    for f in F.polys:
        if f.is_zero() or f.degree > d:
            continue
        k = d - f.degree
        # The degree-k monomials, descending: the head of monomials_up_to.
        mult_keys = monomial_keys_up_to(n, k)[:comb(n + k - 1, k)]
        keys, coeffs = term_arrays(f)
        products.append((index.product_positions(keys, mult_keys), coeffs))
    if not products:
        return 0
    # Jobs (j, u) in source order, then u in descending degrevlex.
    counts = [len(cols) for cols, _ in products]
    job_source = np.repeat(np.arange(len(products)), counts)
    job_mult = np.concatenate([np.arange(c) for c in counts])
    # Deterministic shuffle so the rank saturates after roughly ncols rows
    # and the remaining rows can be skipped.
    rng = np.random.default_rng(0x5EED ^ (len(job_source) << 16) ^ d)
    perm = rng.permutation(len(job_source))
    eng = RowReducer(p, ncols, always_rref=False)
    block = np.zeros((BLOCK_ROWS, ncols), dtype=eng.dtype)
    for lo in range(0, len(perm), BLOCK_ROWS):
        chunk = perm[lo:lo + BLOCK_ROWS]
        rows = block[:len(chunk)]
        chunk_source = job_source[chunk]
        for j, (cols, coeffs) in enumerate(products):
            mine = np.flatnonzero(chunk_source == j)
            rows[mine[:, None], cols[job_mult[chunk[mine]]]] = coeffs
        eng.add_rows(rows)
        rows[:] = 0
        if eng.rank == ncols:
            return ncols
    return eng.rank


def hilbert_function(F: PolySystem, d: int) -> int:
    """dim (R/I)_d for a homogeneous system, by rank computation."""
    _require_homogeneous(F)
    if d < 0:
        raise ValueError("degree must be >= 0")
    n = F.ring.n
    return comb(n + d - 1, d) - _graded_rank(F, d)


def hilbert_function_profile(F: PolySystem, dmax: int) -> tuple[int, ...]:
    """Hilbert function values for d = 0..dmax."""
    return tuple(hilbert_function(F, d) for d in range(dmax + 1))


# -- regularity-style quantities -------------------------------------------------


def _default_cap(degrees: tuple[int, ...], n: int) -> int:
    if not degrees:
        return 0
    try:
        return macaulay_bound(n, degrees)
    except Underdetermined:
        return 3 * max(degrees)


def degree_of_regularity(F: PolySystem, cap: int | None = None) -> float:
    """Least d where the top parts span all degree-d forms; inf if none.

    Works for homogeneous and inhomogeneous systems alike (a homogeneous
    system is its own top part).
    """
    _, witness = is_artinian(top_system(F), cap)
    return math.inf if witness is None else witness


def is_artinian(F: PolySystem, cap: int | None = None) -> tuple[bool, int | None]:
    """Does some graded piece fill up?  Answer is definitive only up to cap."""
    _require_homogeneous(F)
    if cap is None:
        cap = _default_cap(F.degrees, F.ring.n)
    for d in range(cap + 1):
        if hilbert_function(F, d) == 0:
            return True, d
    return False, None


def regularity_from_hilbert(F: PolySystem) -> int:
    """The least degree with a full graded piece, for Artinian input."""
    ok, witness = is_artinian(F)
    if not ok:
        raise NotArtinian("no degree fills up within the cap")
    return witness


# -- semi-regularity ---------------------------------------------------------------


def _crypto_test(F: PolySystem) -> bool:
    """Hilbert function against the truncated series prediction."""
    from .bounds import semiregular_series

    _require_homogeneous(F)
    degrees = F.degrees
    n = F.ring.n
    if not degrees:
        return True
    predicted = semiregular_series(n, degrees)
    cap = sum(d - 1 for d in degrees) + 1
    for d in range(cap + 1):
        hf = hilbert_function(F, d)
        if hf != predicted.coefficient(d):
            return False
        if hf == 0:
            return True
    # Underdetermined sequences never fill up; equality held through the
    # cap, which is as definitive as a finite computation gets.
    return True


def semiregular_test(F: PolySystem, mode: str = "crypto") -> bool:
    """Semi-regularity by Hilbert-series comparison.

    mode="crypto": the full sequence's Hilbert function must match the
    truncated series prediction.  mode="pardue_prefix": every prefix must
    match its own prediction (the stronger, order-dependent notion).
    mode="inhomogeneous": homogenize first, then run the crypto test.
    """
    if mode == "crypto":
        return _crypto_test(F)
    if mode == "pardue_prefix":
        _require_homogeneous(F)
        polys = F.nonzero()
        for ell in range(1, len(polys) + 1):
            if not _crypto_test(PolySystem(F.ring, polys[:ell])):
                return False
        return True
    if mode == "inhomogeneous":
        return _crypto_test(homogenize_system(F))
    raise ValueError(f"unknown mode {mode!r}")


# -- homogenization-variable tests ---------------------------------------------------


def _strip_last_var_power(f: Polynomial) -> Polynomial:
    """Divide by the largest power of the last variable dividing f."""
    k = min(m.exps[-1] for m, _ in f.terms)
    if k == 0:
        return f
    return Polynomial(
        [(Monomial(m.exps[:-1] + (m.exps[-1] - k,)), c) for m, c in f.terms],
        f.nvars, f.field,
    )


def t_nonzerodivisor(F: PolySystem, *, timeout: float | None = None) -> bool:
    """Is the homogenization variable a nonzerodivisor mod (F^h)?

    Computes the reduced basis G of the homogenized ideal, strips each
    element's largest power of the homogenization variable (that set
    generates the saturation by it, in this order), and tests whether the
    stripped elements still reduce to zero: saturation = ideal exactly
    when nothing new appears.
    """
    if F.is_homogeneous:
        raise HomogeneousInput("the test concerns inhomogeneous systems")
    H = homogenize_system(F)
    basis = list(solve(H, timeout=timeout).basis)
    for g in basis:
        stripped_back = _strip_last_var_power(g)
        if stripped_back is not g:
            if not normal_form(stripped_back, basis).is_zero():
                return False
    return True


def max_groebner_degree(F: PolySystem, *, timeout: float | None = None) -> int:
    """Largest degree in the reduced degrevlex basis, as measured by solve."""
    return solve(F, timeout=timeout).max_gb_degree


# -- the assembled report --------------------------------------------------------------


def analyze_system(F: PolySystem, *, cap: int | None = None,
                   include_groebner: bool = True,
                   timeout: float | None = None) -> AnalysisReport:
    """Compute the full diagnostic bundle for a system."""
    homogeneous = F.is_homogeneous
    T = top_system(F) if F.nonzero() else F
    d_reg = degree_of_regularity(F, cap=cap)
    artinian = d_reg != math.inf
    witness = int(d_reg) if artinian else None
    profile_cap = witness if witness is not None else _default_cap(
        T.degrees, T.ring.n)
    profile = (hilbert_function_profile(T, profile_cap)
               if F.nonzero() else ())
    crypto = semiregular_test(F, "crypto" if homogeneous else "inhomogeneous")
    pardue = semiregular_test(F, "pardue_prefix") if homogeneous else None
    t_nzd = None if homogeneous else t_nonzerodivisor(F, timeout=timeout)
    maxgb = (max_groebner_degree(F, timeout=timeout)
             if include_groebner else None)
    return AnalysisReport(
        d_reg=d_reg,
        is_artinian=artinian,
        artinian_witness_degree=witness,
        crypto_semiregular=crypto,
        pardue_prefix_semiregular=pardue,
        t_nonzerodivisor=t_nzd,
        max_groebner_degree=maxgb,
        hilbert_function=profile,
    )
