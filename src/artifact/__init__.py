"""Exact invariants of plane branch singularities over number fields.

The package resolves a parametrized branch by successive blow-ups with exact
number-field arithmetic, assembles the quotient graph and its numerical
invariants, emits the associated generating series as exact binomial
products, and cross-checks everything against a brute-force substitution
oracle. A JSON/DOT command line front end lives in artifact.cli.
"""

from .exactfield import AlgNum, AmbientField, Subfield
from .ratfunc import INFINITY, FractionField, Poly, PolyRing, RatFunc
from .resolution import (
    AT_INFINITY,
    GENERIC,
    BranchParam,
    GenericCurvette,
    QuotientGraph,
    generic_curvette,
    m_values,
    normalize,
    resolve,
)
from .poincare import (
    BinomialFactorization,
    GeneratorCheck,
    NumericalData,
    SeriesExpansion,
    SeriesProduct,
    binomial_factorization,
    case_II_data,
    char_invariants,
    classical_series,
    conductor_delta,
    divisorial_series,
    expand,
    gaps,
    membership,
    minimal_generator_check,
    numerical_data,
    partial_series,
    semigroup_series,
    symmetry_check,
    value_maps,
)
from .oracle import (
    FiltrationReport,
    PolyXY,
    divisorial_filtration_dims,
    divisorial_value,
    filtration_dims,
    observed_semigroup,
    value_of,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AT_INFINITY",
    "AlgNum",
    "AmbientField",
    "BinomialFactorization",
    "BranchParam",
    "FiltrationReport",
    "FractionField",
    "GENERIC",
    "GeneratorCheck",
    "GenericCurvette",
    "INFINITY",
    "NumericalData",
    "Poly",
    "PolyRing",
    "PolyXY",
    "QuotientGraph",
    "RatFunc",
    "SeriesExpansion",
    "SeriesProduct",
    "Subfield",
    "binomial_factorization",
    "case_II_data",
    "char_invariants",
    "classical_series",
    "conductor_delta",
    "divisorial_filtration_dims",
    "divisorial_series",
    "divisorial_value",
    "errors",
    "expand",
    "filtration_dims",
    "gaps",
    "generic_curvette",
    "m_values",
    "membership",
    "minimal_generator_check",
    "normalize",
    "numerical_data",
    "observed_semigroup",
    "partial_series",
    "resolve",
    "semigroup_series",
    "symmetry_check",
    "value_maps",
    "value_of",
]
