"""Exact invariants of plane branch singularities over number fields.

The package resolves a parametrized branch by successive blow-ups with exact
number-field arithmetic, assembles the quotient graph and its numerical
invariants, emits the associated generating series as exact binomial
products, and cross-checks each series against brute-force filtration
dimensions of the substitution map (artifact.oracle). A JSON/DOT command line front end lives in artifact.cli.
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
    NumericalData,
    SeriesProduct,
    case_II_data,
    char_invariants,
    classical_series,
    expand,
    numerical_data,
    value_maps,
)
from .oracle import (
    FiltrationReport,
    divisorial_filtration_dims,
    filtration_dims,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AT_INFINITY",
    "AlgNum",
    "AmbientField",
    "BranchParam",
    "FiltrationReport",
    "FractionField",
    "GENERIC",
    "GenericCurvette",
    "INFINITY",
    "NumericalData",
    "Poly",
    "PolyRing",
    "QuotientGraph",
    "RatFunc",
    "SeriesProduct",
    "Subfield",
    "case_II_data",
    "char_invariants",
    "classical_series",
    "divisorial_filtration_dims",
    "errors",
    "expand",
    "filtration_dims",
    "generic_curvette",
    "m_values",
    "normalize",
    "numerical_data",
    "resolve",
    "value_maps",
]
