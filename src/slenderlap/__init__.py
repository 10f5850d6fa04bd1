"""Slender-body Laplace NtD/DtN maps on thin closed filaments."""

from .geometry import SurfaceSpec, build_centerline, build_frame, surface_point
from .grid import SurfaceGrid, make_grid
from .spectral import FourierSymbol, GridFunction
from .operators import assemble_D, assemble_Dprime, assemble_pair, assemble_S
from .operators import apply_pair
from .solver import SlenderBodySolver, solve_exterior_dirichlet
from .analysis import decompose_dtn, make_study, run_scaling_study

__version__ = "0.1.0"

__all__ = [
    "SurfaceSpec", "build_centerline", "build_frame", "surface_point",
    "SurfaceGrid", "make_grid",
    "FourierSymbol", "GridFunction",
    "apply_pair", "assemble_pair", "assemble_S", "assemble_D", "assemble_Dprime",
    "SlenderBodySolver", "solve_exterior_dirichlet",
    "decompose_dtn", "make_study", "run_scaling_study",
]
