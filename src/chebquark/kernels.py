"""Problem description, Legendre machinery and partial-wave kernels.

`Problem` describes one partial wave of the Coulomb-plus-linear potential
for both the momentum-space and the configuration-space solver.

In momentum space the Coulomb and linear potentials project, for orbital
momentum ell, onto kernels built from the Legendre function of the second
kind at z = (x^2 + x'^2)/(2 x x') >= 1.  The log singularity at x' = x is
carried entirely by Q_0(z) = log|(x'+x)/(x'-x)|, the double pole by Q_0'(z).
This module supplies the polynomial pieces (P_ell and the polynomial
remainder w_{ell-1}, each with its derivative); the assembly in `momentum`
groups them the way the solver consumes them: a log coefficient, a regular
remainder, and the factor of the double pole, which the solver integrates
as a Hadamard finite part.

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


def _bonnet(ell, z):
    """Yield (m, P_m(z), P'_m(z)) for m = 0..ell.

    Values by the Bonnet recurrence (m+1) P_{m+1} = (2m+1) z P_m - m P_{m-1},
    derivatives by P'_{m+1} = z P'_m + (m+1) P_m, which needs no special case
    at z = 1 and no cancellation near it.  P_0 = 1, P'_0 = 0 and P'_1 = 1 are
    yielded as scalars and P_1 as z itself; from m = 2 on the values rotate
    through four buffers of z's shape and are overwritten by the next step.
    Assembly hands z in cache-sized row blocks, so the buffers stay in cache.
    """
    yield 0, 1.0, 0.0
    if ell == 0:
        return
    yield 1, z, 1.0
    if ell == 1:
        return
    pprev, p, dp, t = (np.empty(z.shape) for _ in range(4))
    # the step from m = 1, where m P_0 = 1 and z P'_1 = z
    pprev[...] = z
    np.multiply(z, 3.0, out=p)
    p *= z
    p -= 1.0
    p /= 2.0
    np.multiply(z, 2.0, out=dp)
    dp += z
    for m in range(2, ell + 1):
        yield m, p, dp
        if m == ell:
            return
        np.multiply(z, 2 * m + 1, out=t)
        t *= p
        pprev *= m
        t -= pprev
        t /= m + 1
        dp *= z
        np.multiply(p, m + 1, out=pprev)
        dp += pprev
        pprev, p, t = p, t, pprev


def legendre_P(ell, z):
    """Legendre polynomial P_ell(z) and its derivative P'_ell(z)."""
    if ell < 0:
        raise ValueError("orbital momentum must be nonnegative")
    z = np.asarray(z, dtype=float)
    for _, p, dp in _bonnet(ell, z):
        pass
    if ell < 2:
        # scalars, or P_1 = z itself
        return np.broadcast_to(p, z.shape).copy(), np.full(z.shape, dp)
    return p, dp


def w_poly(ell, z):
    """Polynomial remainder w_{ell-1}(z) of Q_ell and its derivative w'_{ell-1}(z).

    w_{ell-1}(z) = sum_{n=1..ell} P_{n-1}(z) P_{ell-n}(z) / n, summed in
    Christoffel's form sum_m 2(2m+1)/((ell-m)(ell+m+1)) P_m(z) over
    m = ell-1, ell-3, ... >= 0, accumulated during one Bonnet recurrence.  The
    term is absent from the kernels at ell = 0, so ell >= 1 is required here.
    """
    if ell < 1:
        raise ValueError("polynomial remainder exists only for ell >= 1")
    z = np.asarray(z, dtype=float)
    w, dw = np.zeros(z.shape), np.zeros(z.shape)
    for m, p, dp in _bonnet(ell - 1, z):
        if (ell - 1 - m) % 2 == 0:
            c = 2.0 * (2 * m + 1) / ((ell - m) * (ell + m + 1))
            w += c * p
            dw += c * dp
    return w, dw
