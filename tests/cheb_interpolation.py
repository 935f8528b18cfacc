"""Chebyshev interpolation on a grid, for tests that look between mesh points.

The solver needs only mesh values; these helpers evaluate the degree-(N-1)
interpolant through them, in t and, for a bound level, in momentum x.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def coefficient_matrix(N):
    """C[n, j] = (2/N) T_n(t_j), first row halved: G_j = sum_n C[n, j] T_n.

    Also returns the node angles theta_j, t_j = cos(theta_j).  Both arrays
    are cached and read-only.
    """
    theta = np.pi * (np.arange(N) + 0.5) / N
    C = (2.0 / N) * np.cos(np.outer(np.arange(N), theta))
    C[0] *= 0.5
    C.setflags(write=False)
    theta.setflags(write=False)
    return C, theta


def cardinal_eval(grid, j, t):
    """Cardinal function G_j(t): the interpolation basis with G_j(t_k) = delta_jk."""
    if not 0 <= j < grid.N:
        raise IndexError(f"cardinal index {j} out of range for N={grid.N}")
    return _clenshaw(coefficient_matrix(grid.N)[0][:, j], t)


def _clenshaw(coeffs, t):
    """Evaluate sum_n coeffs[n] T_n(t) by the Clenshaw recurrence."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-15):
        raise ValueError("argument outside [-1, 1]")
    bkp1 = np.zeros_like(t)
    bkp2 = np.zeros_like(t)
    for c in coeffs[:0:-1]:
        bkp1, bkp2 = c + 2.0 * t * bkp1 - bkp2, bkp1
    out = coeffs[0] + t * bkp1 - bkp2
    return out if out.ndim else float(out)


def interpolate(grid, values, t):
    """Evaluate the degree-(N-1) interpolant of mesh values at t."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.N,):
        raise ValueError(f"expected {grid.N} mesh values, got shape {values.shape}")
    return _clenshaw(coefficient_matrix(grid.N)[0] @ values, t)


def wavefunction_at(level, grid, sigma, x):
    """Interpolate the mesh wavefunction of a level to an arbitrary x > 0, or to an array of them.

    sigma is the scale of the rational map x = sigma (1+t)/(1-t) the level
    was solved on.
    """
    if np.any(np.asarray(x) <= 0.0):
        raise ValueError("momentum must be positive")
    t = (x - sigma) / (x + sigma)
    return interpolate(grid, level.mesh_values, t)
