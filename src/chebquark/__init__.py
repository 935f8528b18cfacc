"""Semi-spectral Chebyshev solver for singular momentum-space bound-state equations."""

from .cheb import ChebGrid, chebyshev_grid, weights_cauchy, weights_log
from .kernels import Problem
from .momentum import BoundLevel, solve_levels
from .radial import airy_reference, hydrogen_energy, solve_radial

__all__ = [
    "BoundLevel",
    "Problem",
    "airy_reference",
    "hydrogen_energy",
    "solve_levels",
    "solve_radial",
    "ChebGrid",
    "chebyshev_grid",
    "weights_cauchy",
    "weights_log",
]
