"""solvdeg: solving-degree bounds and instrumented Macaulay-matrix
Groebner basis computation over prime fields.

The package computes every explicit regularity/solving-degree bound for
semi-regular and quadric-rich polynomial systems (closed forms, quotient
series, Macaulay expansions, EGH windows), and measures actual solving
degrees by running the repeated-elimination Macaulay-matrix algorithm
with exact GF(p) arithmetic.
"""

__version__ = "0.1.0"

from .field import FieldElement, ModulusMismatch, NonPrimeField, PrimeField
from .poly import (
    LengthMismatch,
    Monomial,
    PolySystem,
    Polynomial,
    PolynomialRing,
    ZeroPolynomial,
    dehomogenize_last,
    field_equations,
    homogenize,
    homogenize_system,
    monomials_of_degree,
    monomials_up_to,
    top_part,
    top_system,
)
from .bounds import (
    MacaulayExpansion,
    OutOfRange,
    PreconditionViolated,
    TruncatedSeries,
    Underdetermined,
    UnsupportedGap,
    aci_bound,
    egh_bound,
    egh_bound_inhomogeneous,
    egh_bound_weil,
    egh_bound_weil_inhomogeneous,
    inhomogeneous_bound,
    macaulay_bound,
    macaulay_expansion,
    macaulay_shift,
    many_equations_bound,
    quadratic_regularity,
    regularity_from_series,
    regularity_table,
    semiregular_series,
    truncate_positive,
)
from .groebner import (
    buchberger_oracle,
    is_groebner_basis,
    normal_form,
    reduce_basis,
    s_polynomial,
)
from .macaulay import (
    DegreeCapExceeded,
    DegreeTrace,
    SolveReport,
    SolveTimeout,
    solve,
)
from .analyze import (
    AnalysisReport,
    HomogeneousInput,
    NotArtinian,
    NotHomogeneous,
    analyze_system,
    degree_of_regularity,
    hilbert_function,
    hilbert_function_profile,
    is_artinian,
    max_groebner_degree,
    regularity_from_hilbert,
    semiregular_test,
    t_nonzerodivisor,
)
from .randsys import random_polynomial, random_system
