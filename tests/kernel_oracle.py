"""Scalar kernel oracle: the partial-wave kernels at one point (x, x').

`momentum.assemble_potential` evaluates the kernel formulas below on blocks
of matrix rows, in place; this module evaluates them one entry at a time,
grouped by singularity, so that the tests can rebuild the assembled matrix
entry by entry and check each grouping against Q_ell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chebquark.kernels import legendre_P, w_poly


# Kernel formulas.  Each takes the Legendre pieces at z(x, x') and works
# elementwise.  The log and regular pieces are combined with a factor for
# each: log|(x'+x)/(x'-x)| and 1 give the kernel itself, (1, 0) and (0, 1)
# its two coefficients, and the quadrature weights of the two pieces the
# assembled matrix.

def linear_log_regular(x, dp, dw, log_w, reg_w):
    """Linear kernel minus its double pole: (P'_ell log_w - w'_{ell-1} reg_w) / (pi x^2)."""
    return (dp * log_w - dw * reg_w) / (np.pi * x ** 2)


def pv_factor(x, xp, p):
    """F = x'^2 P_ell(z) / (x'+x)^2, the factor of the double pole 1/(x'-x)^2."""
    return xp ** 2 * p / (x + xp) ** 2


def coulomb_log_regular(alpha, x, xp, p, w, log_w, reg_w):
    """Coulomb kernel: -(alpha/pi) (P_ell log_w - w_{ell-1} reg_w) x' / x."""
    coul = (p * log_w - w * reg_w) * xp
    return -(alpha / np.pi) * coul / x


def q0(z):
    """Q_0(z) = (1/2) log|(1+z)/(1-z)|, for z > 1 equal to log|(x'+x)/(x'-x)|."""
    z = np.asarray(z, dtype=float)
    if np.any(np.isclose(z, 1.0, atol=1e-15)):
        raise ValueError("Q_0 is singular at z = 1")
    out = 0.5 * np.log(np.abs((1.0 + z) / (1.0 - z)))
    return out if out.ndim else float(out)


def z_of(x, xp):
    """Kernel argument z = (x^2 + x'^2)/(2 x x') >= 1, equal to 1 iff x = x'."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if np.any(x <= 0.0) or np.any(xp <= 0.0):
        raise ValueError("momenta must be positive")
    out = (x * x + xp * xp) / (2.0 * x * xp)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class KernelPieces:
    """Kernel of the bound-state equation at one (x, x'), grouped by singularity.

    The right-hand side of the equation reads, schematically,

      [linear_log_coeff * log|(x'+x)/(x'-x)| + linear_regular] phi(x') dx'
      + pv_factor * phi(x') dx'/(x'-x)^2, taken as a Hadamard finite part
      + [coulomb_log_coeff * log|(x'+x)/(x'-x)| + coulomb_regular] phi(x') dx'
    """

    ell: int
    x: float
    xp: float
    alpha: float
    z: float
    linear_log_coeff: float
    linear_regular: float
    pv_factor: float
    coulomb_log_coeff: float
    coulomb_regular: float


def kernel_pieces(ell, x, xp, alpha):
    """Evaluate all kernel groupings at one point (x, x'); z = 1 on the diagonal."""
    if x <= 0.0 or xp <= 0.0:
        raise ValueError("momenta must be positive")
    z = z_of(x, xp)
    p, dp = legendre_P(ell, z)
    if ell >= 1:
        w, dw = w_poly(ell, z)
    else:
        w = dw = 0.0
    return KernelPieces(
        ell=ell, x=float(x), xp=float(xp), alpha=float(alpha), z=float(z),
        linear_log_coeff=float(linear_log_regular(x, dp, dw, 1.0, 0.0)),
        linear_regular=float(linear_log_regular(x, dp, dw, 0.0, 1.0)),
        pv_factor=float(-(4.0 / np.pi) * pv_factor(x, xp, p)),
        coulomb_log_coeff=float(coulomb_log_regular(alpha, x, xp, p, w, 1.0, 0.0)),
        coulomb_regular=float(coulomb_log_regular(alpha, x, xp, p, w, 0.0, 1.0)),
    )
