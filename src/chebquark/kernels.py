"""Problem description, Legendre machinery and partial-wave kernels.

`Problem` describes one partial wave of the Coulomb-plus-linear potential
for both the momentum-space and the configuration-space solver.

In momentum space the Coulomb and linear potentials project, for orbital
momentum ell, onto kernels built from the Legendre function of the second
kind at z = (x^2 + x'^2)/(2 x x') >= 1.  The log singularity at x' = x is
carried entirely by Q_0(z) = log|(x'+x)/(x'-x)|, the double pole by Q_0'(z).
This module supplies the polynomial pieces (P_ell, the polynomial remainder
w_{ell-1}, and their derivatives) and the kernel formulas that group them the
way the solver consumes them: a log coefficient, a regular remainder, and
the factor of the double pole, which the solver integrates as a Hadamard
finite part.

All functions accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

KINETIC_MODES = ("nonrelativistic", "salpeter")


@dataclass(frozen=True)
class Problem:
    """One partial wave of the Coulomb-plus-linear problem, shared by both solvers.

    Dimensionless units of the linear term's length scale a: the potential
    is V = -alpha/x + x when `linear` is set and -alpha/x otherwise, so
    alpha = 0 means no Coulomb term.  s = 1/(2 mu a) is the kinetic
    coefficient.  In salpeter mode the kinetic term is the relativistic
    energy of two quarks of mass am (in units of 1/a) with the rest masses
    subtracted; the configuration-space solver handles only the
    nonrelativistic mode.
    """

    ell: int = 0
    alpha: float = 0.0
    linear: bool = True
    s: float = 1.0
    kinetic: str = "nonrelativistic"
    am: float = 0.0

    def __post_init__(self):
        if not isinstance(self.ell, numbers.Integral) or self.ell < 0:
            raise ValueError(f"orbital momentum must be a nonnegative integer, got {self.ell!r}")
        for name in ("alpha", "s", "am"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha < 0.0:
            raise ValueError("Coulomb coupling must be nonnegative")
        if self.alpha == 0.0 and not self.linear:
            raise ValueError("potential is identically zero")
        if self.s <= 0.0:
            raise ValueError("kinetic coefficient s must be positive")
        if self.kinetic not in KINETIC_MODES:
            raise ValueError(f"unknown kinetic mode {self.kinetic!r}")
        if self.kinetic == "salpeter" and self.am <= 0.0:
            raise ValueError("salpeter mode needs a positive quark mass am")


def legendre_P(ell, z, with_derivative=False):
    """Legendre polynomial P_ell(z), optionally with its derivative.

    Values by the Bonnet recurrence, derivative from
    (z^2 - 1) P'_ell = ell (z P_ell - P_{ell-1}); the formula degenerates at
    z = 1 where P'_ell(1) = ell(ell+1)/2 is substituted directly.
    """
    if ell < 0:
        raise ValueError("orbital momentum must be nonnegative")
    z = np.asarray(z, dtype=float)
    pkm1 = np.ones_like(z)
    if ell == 0:
        p = pkm1
        pprev = np.zeros_like(z)
    else:
        pprev = pkm1
        p = z.copy()
        for k in range(2, ell + 1):
            pprev, p = p, ((2 * k - 1) * z * p - (k - 1) * pprev) / k
    if not with_derivative:
        return p if p.ndim else float(p)
    if ell == 0:
        dp = np.zeros_like(z)
    else:
        denom = z * z - 1.0
        at_one = np.isclose(denom, 0.0, atol=1e-14)
        safe = np.where(at_one, 1.0, denom)
        dp = ell * (z * p - pprev) / safe
        dp = np.where(at_one, 0.5 * ell * (ell + 1) * np.sign(z) ** (ell + 1), dp)
    if p.ndim:
        return p, dp
    return float(p), float(dp)


def w_poly(ell, z, with_derivative=False):
    """Polynomial remainder w_{ell-1}(z) of Q_ell, and optionally its derivative.

    w_{ell-1}(z) = sum_{n=1..ell} P_{n-1}(z) P_{ell-n}(z) / n.  The term is
    absent from the kernels at ell = 0, so ell >= 1 is required here.
    """
    if ell < 1:
        raise ValueError("polynomial remainder exists only for ell >= 1")
    z = np.asarray(z, dtype=float)
    w = np.zeros_like(z)
    dw = np.zeros_like(z)
    table = [legendre_P(k, z, with_derivative=True) for k in range(ell)]
    for n in range(1, ell + 1):
        pa, dpa = table[n - 1]
        pb, dpb = table[ell - n]
        w = w + pa * pb / n
        if with_derivative:
            dw = dw + (dpa * pb + pa * dpb) / n
    if not with_derivative:
        return w if w.ndim else float(w)
    if w.ndim:
        return w, dw
    return float(w), float(dw)


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


# Kernel formulas.  Each takes the Legendre pieces at z(x, x') and works
# elementwise, so the scalar oracle `kernel_pieces` and the matrix assembly
# in `momentum` share one expression.  The log and regular pieces are
# combined with a factor for each: log|(x'+x)/(x'-x)| and 1 give the kernel
# itself, (1, 0) and (0, 1) its two coefficients, and the quadrature
# weights of the two pieces the assembled matrix.

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
    p, dp = legendre_P(ell, z, with_derivative=True)
    if ell >= 1:
        w, dw = w_poly(ell, z, with_derivative=True)
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
