"""Numerical evaluation of infinite modified-Bessel-K series.

Series families of the form sum_m cos(2 pi m B) (m beta)^s K_s(2 m beta)
(plus lattice and spectral generalizations) evaluated two independent ways:
direct summation and small-beta residue expansions, cross-checkable against
a Mellin contour oracle.  An applications layer builds product-space spectral
zeta functions, Casimir piston energies/forces, and compactified mass
corrections on top of the same machinery.
"""

from .applications import (
    PistonConfig,
    ProductGeometry,
    casimir_energy,
    casimir_force,
    mass_expansion,
    mass_sum,
    piston_zeta,
    product_zeta,
    product_zeta_expansion,
)
from .asymptotics import (
    Expansion,
    ExpansionTerm,
    dispatch_case,
    double_pole_residue,
    evaluate,
    expand_f,
    expand_f0,
    expand_g,
    expand_h,
    expand_h0,
)
from .direct_eval import (
    DEFAULT_TOL,
    EvalResult,
    SeriesParams,
    sum_f,
    sum_g,
    sum_h,
    sum_h0,
)
from .errors import (
    BesselSumError,
    ConfigError,
    ConvergenceError,
    DomainError,
    ParseError,
    PoleError,
    WindowError,
)
from .manifolds import (
    CircleModel,
    ManifoldModel,
    TableModel,
    TorusModel,
    circle_model,
    heat_trace,
    table_model,
    torus_model,
)
from .mellin_oracle import ContourConfig, contour_h, contour_h0

__version__ = "0.1.0"

__all__ = [
    "BesselSumError",
    "CircleModel",
    "ConfigError",
    "ContourConfig",
    "ConvergenceError",
    "DEFAULT_TOL",
    "DomainError",
    "EvalResult",
    "Expansion",
    "ExpansionTerm",
    "ManifoldModel",
    "ParseError",
    "PistonConfig",
    "PoleError",
    "ProductGeometry",
    "SeriesParams",
    "TableModel",
    "TorusModel",
    "WindowError",
    "casimir_energy",
    "casimir_force",
    "circle_model",
    "contour_h",
    "contour_h0",
    "dispatch_case",
    "double_pole_residue",
    "evaluate",
    "expand_f",
    "expand_f0",
    "expand_g",
    "expand_h",
    "expand_h0",
    "heat_trace",
    "mass_expansion",
    "mass_sum",
    "piston_zeta",
    "product_zeta",
    "product_zeta_expansion",
    "sum_f",
    "sum_g",
    "sum_h",
    "sum_h0",
    "table_model",
    "torus_model",
    "__version__",
]
