"""Exact phase-space analysis for quadratic three-variable ODE systems.

The package splits into an exact computer-algebra kernel (gaussian, symbols,
poly, ratfunc, linalg, roots), a geometric layer (geometry: charts, fields,
pushforwards, holomorphy obstructions), concrete model families with their
atlases and symmetries (models), the singularity-analysis engine on top of
them (singular), the quadratic-ansatz classification (uniqueness), adaptive
numeric continuation through movable poles (numerics), and a CLI (cli)
emitting deterministic JSON reports.
"""

from .gaussian import GaussianRational, gr
from .geometry import Chart, ChartMap, VectorField, jacobian_determinant, pushforward
from .poly import MultiPoly, poly_gcd, resultant
from .ratfunc import RationalFn, substitute
from .symbols import Symbol, SymbolTable, parameter, state, table

__version__ = "0.1.0"

__all__ = [
    "Chart",
    "ChartMap",
    "GaussianRational",
    "MultiPoly",
    "RationalFn",
    "Symbol",
    "SymbolTable",
    "VectorField",
    "__version__",
    "gr",
    "jacobian_determinant",
    "parameter",
    "poly_gcd",
    "pushforward",
    "resultant",
    "state",
    "substitute",
    "table",
]
