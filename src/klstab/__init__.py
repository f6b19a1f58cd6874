"""Boundary stability of explicit one-step finite difference schemes.

Decides strong stability of the half-line advection problem by tracing the
intrinsic boundary determinant on the unit circle and counting unstable modes
through the winding number of the origin.
"""

from .boundary import (
    BoundaryCondition,
    ReconstructionSpec,
    build_calB,
    reconstruction_B,
    reconstruction_matrices,
)
from .crosscheck import (
    SimulationRun,
    assemble_quasi_toeplitz,
    simulate,
    spectral_radius,
)
from .kldet import (
    KLCurve,
    basis_matrices,
    delta,
    delta_reference,
    kl_curve,
    read_curve_csv,
    reduce_Btilde,
    select_stable_roots,
    write_curve_csv,
)
from .poly import find_roots, min_modulus_on_circle
from .scheme import (
    CauchyReport,
    Scheme,
    SchemeTemplate,
    TEMPLATES,
    characteristic_polynomial,
    hersh_split,
    is_cauchy_stable,
    symbol,
    template,
)
from .verdict import (
    StabilityVerdict,
    SweepGrid,
    check,
    sweep,
    write_map_csv,
    write_map_svg,
)
from .winding import WindingResult, needs_refinement, winding_number

__version__ = "0.1.0"

__all__ = [
    "BoundaryCondition",
    "CauchyReport",
    "KLCurve",
    "ReconstructionSpec",
    "Scheme",
    "SchemeTemplate",
    "SimulationRun",
    "StabilityVerdict",
    "SweepGrid",
    "TEMPLATES",
    "WindingResult",
    "assemble_quasi_toeplitz",
    "basis_matrices",
    "build_calB",
    "characteristic_polynomial",
    "check",
    "delta",
    "delta_reference",
    "find_roots",
    "hersh_split",
    "is_cauchy_stable",
    "kl_curve",
    "min_modulus_on_circle",
    "needs_refinement",
    "read_curve_csv",
    "reconstruction_B",
    "reconstruction_matrices",
    "reduce_Btilde",
    "select_stable_roots",
    "simulate",
    "spectral_radius",
    "sweep",
    "symbol",
    "template",
    "winding_number",
    "write_curve_csv",
    "write_map_csv",
    "write_map_svg",
]
