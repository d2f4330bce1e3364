"""Closed-form and series-based solving-degree bounds.

Everything here is exact integer arithmetic.  The radical formulas for
quadratic systems are never evaluated in floating point: each one is the
first sign change of an explicit integer polynomial f(r, k), located by
ascending search.  Series coefficients are arbitrary-precision integers;
the quotient series of a semi-regular sequence with all degrees equal to 2
has the closed form (1-z)^(m-n) (1+z)^m, whose coefficients are short
alternating binomial sums, and that fast path is what makes the large
reference grids cheap to generate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence


class Underdetermined(ValueError):
    """Fewer equations than the bound requires."""


class UnsupportedGap(ValueError):
    """No closed form is implemented for this m - n."""


class PreconditionViolated(ValueError):
    """The largest degree exceeds what the bound's hypothesis allows."""


class OutOfRange(ValueError):
    """Equation count outside the admissible window."""


# -- truncated integer series -------------------------------------------------


@dataclass(frozen=True)
class TruncatedSeries:
    """A formal power series kept up to a degree cap, exact coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("series needs at least the constant coefficient")


def truncate_positive(h: TruncatedSeries) -> TruncatedSeries:
    """Cut after the last coefficient of the initial positive run.

    Returns the zero series when the constant coefficient is already
    non-positive.
    """
    if h.coeffs[0] <= 0:
        return TruncatedSeries((0,))
    out = [h.coeffs[0]]
    for c in h.coeffs[1:]:
        if c <= 0:
            break
        out.append(c)
    return TruncatedSeries(tuple(out))


def _series_cap(degrees: Sequence[int]) -> int:
    return sum(d - 1 for d in degrees) + 1


def quotient_series_coeffs(n: int, degrees: Sequence[int], cap: int) -> list[int]:
    """Coefficients 0..cap of prod(1 - z^d_i) / (1 - z)^n, exactly.

    Computed as prod(1 + z + ... + z^(d_i - 1)) adjusted by (1 - z)^(m-n):
    multiplied out when m >= n, divided (prefix sums) when m < n.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    m = len(degrees)
    coeffs = [0] * (cap + 1)
    coeffs[0] = 1
    for d in degrees:
        if d < 1:
            raise ValueError("degrees must be >= 1")
        # Multiply by 1 + z + ... + z^(d-1) with a sliding window sum.
        acc = 0
        out = [0] * (cap + 1)
        for k in range(cap + 1):
            acc += coeffs[k]
            if k >= d:
                acc -= coeffs[k - d]
            out[k] = acc
        coeffs = out
    r = m - n
    if r >= 0:
        for _ in range(r):
            for k in range(cap, 0, -1):
                coeffs[k] -= coeffs[k - 1]
    else:
        for _ in range(-r):
            for k in range(1, cap + 1):
                coeffs[k] += coeffs[k - 1]
    return coeffs


def semiregular_series(n: int, degrees: Iterable[int]) -> TruncatedSeries:
    """The truncated quotient series of a semi-regular sequence.

    The cap is sum(d_i - 1) + 1, beyond the point where the raw series
    of an overdetermined sequence must have gone non-positive.
    """
    ds = sorted(degrees)
    raw = quotient_series_coeffs(n, ds, _series_cap(ds))
    return truncate_positive(TruncatedSeries(tuple(raw)))


def _quadratic_coeff(m: int, r: int, k: int) -> int:
    """Coefficient of z^k in (1-z)^r (1+z)^m (all-quadratic fast path)."""
    return sum(
        (-comb(r, l) if l & 1 else comb(r, l)) * comb(m, k - l)
        for l in range(0, min(k, r) + 1)
    )


def regularity_from_series(n: int, degrees: Iterable[int]) -> int | None:
    """Least degree with a non-positive quotient-series coefficient.

    Returns None when the sequence is not overdetermined enough for the
    series to go non-positive within the cap (m < n).
    """
    if n < 1:
        raise ValueError("need at least one variable")
    ds = sorted(degrees)
    m = len(ds)
    cap = _series_cap(ds)
    if m >= n and all(d == 2 for d in ds):
        r = m - n
        for k in range(cap + 1):
            if _quadratic_coeff(m, r, k) <= 0:
                return k
        return None
    coeffs = quotient_series_coeffs(n, ds, cap)
    for k, c in enumerate(coeffs):
        if c <= 0:
            return k
    return None


# -- closed forms for quadratic systems ---------------------------------------


def _sign_poly(r: int, n: int, k: int) -> int:
    """The integer polynomial whose sign matches the series coefficient.

    For a system of m = n + r quadrics, the coefficient of z^k in
    (1-z)^r (1+z)^m has the sign of f(r, k) below, for 0 <= k <= n + r.
    """
    if r == 2:
        return 4 * k**2 - 4 * (4 + n) * k + n**2 + 7 * n + 12
    if r == 3:
        return (
            -8 * k**3
            + 12 * (6 + n) * k**2
            - 2 * (92 + 33 * n + 3 * n**2) * k
            + n**3 + 15 * n**2 + 74 * n + 120
        )
    if r == 4:
        return (
            16 * k**4
            - 32 * (8 + n) * k**3
            + 8 * (172 + 45 * n + 3 * n**2) * k**2
            - 8 * (352 + 148 * n + 21 * n**2 + n**3) * k
            + n**4 + 26 * n**3 + 251 * n**2 + 1066 * n + 1680
        )
    if r == 5:
        return (
            -32 * k**5
            + 80 * (10 + n) * k**4
            - 80 * (92 + 19 * n + n**2) * k**3
            + 40 * (760 + 246 * n + 27 * n**2 + n**3) * k**2
            - 2 * (27024 + 12450 * n + 2175 * n**2 + 170 * n**3 + 5 * n**4) * k
            + n**5 + 40 * n**4 + 635 * n**3 + 5000 * n**2 + 19524 * n + 30240
        )
    raise UnsupportedGap(f"no closed form for m - n = {r}")


def quadratic_regularity(m: int, n: int) -> int:
    """Regularity of n+r generic quadrics in n variables, r = m-n in 2..5.

    Exact integer sign search; equals the ceiling-of-radical closed forms
    without ever touching floating point.
    """
    r = m - n
    if not 2 <= r <= 5:
        raise UnsupportedGap(f"m - n must be in 2..5, got {r}")
    if n < 2:
        raise ValueError("need n >= 2")
    k = 0
    while _sign_poly(r, n, k) > 0:
        k += 1
    return k


def macaulay_bound(n: int, degrees: Iterable[int]) -> int:
    """Sum of (d_i - 1) over the n largest degrees, plus one."""
    ds = sorted(degrees)
    if len(ds) < n:
        raise Underdetermined(f"need at least {n} equations, got {len(ds)}")
    return sum(d - 1 for d in ds[-n:]) + 1


def aci_bound(n: int, degrees: Iterable[int]) -> int:
    """Bound for n+1 homogeneous generic polynomials in n variables.

    Requires the largest degree to satisfy d_{n+1} <= d_1 + ... + d_n - n;
    past that the last polynomial is redundant and the caller must decide
    how to drop it.
    """
    ds = sorted(degrees)
    if len(ds) != n + 1:
        raise ValueError(f"expected n+1 = {n + 1} degrees, got {len(ds)}")
    if ds[-1] > sum(ds[:-1]) - n:
        raise PreconditionViolated(
            "largest degree exceeds the complete-intersection span; "
            "drop the last polynomial instead"
        )
    return (sum(ds) - n - 1) // 2 + 1


def many_equations_bound(n: int, d: int) -> int:
    """Degree-d bounds valid for any large enough equation count.

    d = 2 assumes m >= n + 5, d = 3 assumes m >= n + 1.
    """
    if d == 2:
        return quadratic_regularity(n + 5, n)
    if d == 3:
        return n + 2
    raise UnsupportedGap(f"only degrees 2 and 3 are supported, got {d}")


def inhomogeneous_bound(m: int, n: int, degrees: Iterable[int]) -> int:
    """Bounds for inhomogeneous semi-regular systems via homogenization.

    Dispatches to the homogeneous machinery in n+1 variables: the m = n+1
    case is the regular-sequence bound, m = n+2 the n+2-forms bound, and
    beyond that closed forms exist for all-quadratic and all-cubic systems.
    """
    ds = sorted(degrees)
    if len(ds) != m:
        raise ValueError(f"expected {m} degrees, got {len(ds)}")
    if m < n + 1:
        raise Underdetermined("inhomogeneous bounds need m >= n + 1")
    if m == n + 1:
        return sum(ds) - n
    if m == n + 2:
        return aci_bound(n + 1, ds)
    if all(d == 2 for d in ds):
        if m <= n + 5:
            return quadratic_regularity(m, n + 1)
        return many_equations_bound(n + 1, 2)
    if all(d == 3 for d in ds):
        return n + 3
    raise UnsupportedGap(
        "mixed-degree bounds are only available for m <= n + 2"
    )


# -- Macaulay expansions -------------------------------------------------------


@dataclass(frozen=True)
class MacaulayExpansion:
    """The unique expansion l = sum C(a_j, j) with a_d > ... > a_1 >= 0."""

    terms: tuple[tuple[int, int], ...]  # (a_j, j), j descending from d

    @property
    def value(self) -> int:
        return sum(comb(a, j) for a, j in self.terms)

    def shift(self) -> int:
        """sum C(a_j, j+1) over the expansion (zero for the empty one)."""
        return sum(comb(a, j + 1) for a, j in self.terms)


def _largest_binomial_top(rem: int, j: int, lo: int) -> int:
    """Largest a >= lo with C(a, j) <= rem (doubling + bisection)."""
    hi = lo + 1
    while comb(hi, j) <= rem:
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if comb(mid, j) <= rem:
            lo = mid
        else:
            hi = mid
    return lo


def macaulay_expansion(ell: int, d: int) -> MacaulayExpansion:
    """Greedy construction of the Macaulay expansion of ell w.r.t. d."""
    if ell < 0 or d < 1:
        raise ValueError("need ell >= 0 and d >= 1")
    if ell == 0:
        return MacaulayExpansion(())
    terms = []
    rem = ell
    for j in range(d, 0, -1):
        a = _largest_binomial_top(rem, j, j - 1)
        terms.append((a, j))
        rem -= comb(a, j)
    assert rem == 0
    return MacaulayExpansion(tuple(terms))


def macaulay_shift(ell: int, d: int) -> int:
    """The growth bound l^(d): shift every binomial of the expansion up."""
    return macaulay_expansion(ell, d).shift()


# -- Eisenbud-Green-Harris windows ---------------------------------------------


def _egh_alpha(nvars: int, m: int) -> int:
    """The unique a >= -1 with
    C(n+1,2) - C(n-a,2) < m <= C(n+1,2) - C(n-a-1,2), n = nvars."""
    total = comb(nvars + 1, 2)
    if m < 1 or m > total:
        raise OutOfRange(
            f"equation count {m} outside 1..C({nvars}+1,2) = {total}"
        )
    a = -1
    while total - comb(nvars - a - 1, 2) < m:
        a += 1
    low = total - comb(nvars - a, 2)
    high = total - comb(nvars - a - 1, 2)
    assert low < m <= high, (nvars, m, a)
    return a


def egh_bound(m: int, n: int) -> int:
    """EGH-conjectural degree bound for m quadrics whose ideal is Artinian.

    m = n recovers the Macaulay bound n + 1; m = C(n+1,2) forces 2.
    """
    if m < n:
        raise OutOfRange(f"Artinian quadric ideals need m >= n, got m={m}")
    return n - _egh_alpha(n, m)


def egh_bound_inhomogeneous(m: int, n: int) -> int:
    """EGH bound for inhomogeneous quadrics, via the homogenized window."""
    if m < n:
        raise OutOfRange(f"need m >= n, got m={m}")
    return (n + 1) - _egh_alpha(n + 1, m)


def egh_bound_weil(n: int, d: int, ell: int) -> int:
    """EGH bound after scalar restriction to GF(2): nd variables,
    ell independent quadrics (field equations included in the count)."""
    nvars = n * d
    return nvars - _egh_alpha(nvars, ell)


def egh_bound_weil_inhomogeneous(n: int, d: int, ell: int) -> int:
    """Inhomogeneous variant of the scalar-restriction bound."""
    nvars = (n + 1) * d
    return nvars - _egh_alpha(nvars, ell)


# -- reference grid -------------------------------------------------------------


def regularity_table(k_range: Sequence[int], n_range: Sequence[int],
                     d: int = 2) -> list[list[int]]:
    """Grid of series regularities for m = n + k equations of degree d.

    Entry [i][j] corresponds to (k_range[i], n_range[j]).  For quadrics
    with k in 2..5 each entry is cross-checked against the closed form.
    """
    rows = []
    for k in k_range:
        if k < 2:
            raise ValueError("k ranges start at 2")
        row = []
        for n in n_range:
            if n < 2:
                raise ValueError("n ranges start at 2")
            val = regularity_from_series(n, [d] * (n + k))
            if d == 2 and 2 <= k <= 5:
                cf = quadratic_regularity(n + k, n)
                if cf != val:
                    raise AssertionError(
                        f"closed form {cf} != series {val} at k={k}, n={n}"
                    )
            row.append(val)
        rows.append(row)
    return rows


def render_table_tsv(k_range: Sequence[int], n_range: Sequence[int],
                     table: Sequence[Sequence[int]]) -> str:
    """TSV in the reference layout: header = n values, first column = k."""
    lines = ["k/n\t" + "\t".join(str(n) for n in n_range)]
    for k, row in zip(k_range, table):
        lines.append(str(k) + "\t" + "\t".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
