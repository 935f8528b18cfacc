"""Configuration-space radial solver and analytic references.

Independent cross-check for the momentum-space solver: a shooting method
for the reduced radial equation

    u''(x) = w(x) u(x),   w = l(l+1)/x^2 + (V(x) - eps)/s,
    V(x) = -alpha/x + x   (or -alpha/x without the linear term),

in the same dimensionless units (x = r/a, eps = E a, s = 1/(2 mu a)), for
the `kernels.Problem` the momentum solver takes (nonrelativistic mode only).
The equation is integrated for the Prüfer phase theta, tan(theta) = u/u',
outward from the origin and inward from the far end of the domain, where
the inward phase starts on the branch ((n+1/2) pi, (n+1) pi) of a decaying
solution with n nodes.  The mismatch of the two phases at the classical
turning point is continuous and increasing in eps and vanishes exactly at
the n-th level, so one bracketed root-find gives the level with no node
counting (the miss-distance function of Pryce, Numerical Solution of
Sturm-Liouville Problems, 1993).  The analytic references are the hydrogen
spectrum and the Airy-zero energies of the pure linear potential.
"""

from __future__ import annotations

import functools
import math
import numbers

from scipy.integrate import solve_ivp
from scipy.optimize import brentq


def hydrogen_energy(n, ell, alpha, mu_a):
    """Exact Coulomb level eps = -(mu a) alpha^2 / (2 (n + ell + 1)^2)."""
    if alpha <= 0.0 or mu_a <= 0.0:
        raise ValueError("alpha and mu_a must be positive")
    if n < 0 or ell < 0:
        raise ValueError("quantum numbers must be nonnegative")
    principal = n + ell + 1
    return -mu_a * alpha * alpha / (2.0 * principal * principal)


# Linear potential, ell = 0, s = 1: eps_nu = -z_nu with z_nu the nu-th zero
# of the Airy function Ai.  Stored at full double precision so they can back
# 1e-9-level self-tests; they round to the usual 7-figure table values
# 2.338107, 4.087949, 5.520560, 6.786708, 7.944134.
_AIRY_EPS = (
    2.338107410459767,
    4.087949444130970,
    5.520559828095551,
    6.786708090071759,
    7.944133587120853,
)


def airy_reference(nu):
    """Exact eps(ell=0, s=1, alpha=0) for nu = 1..5 (minus the Airy zeros)."""
    if not 1 <= nu <= len(_AIRY_EPS):
        raise ValueError(f"stored Airy references cover nu = 1..{len(_AIRY_EPS)}, got {nu}")
    return _AIRY_EPS[nu - 1]


def _potential(problem, x):
    # the linear term has unit slope in units of a
    return -problem.alpha / x + (x if problem.linear else 0.0)


def _coulomb_bracket(problem, n):
    """Pure Coulomb bracket of level n: the hydrogen energies at n -+ 1/2.

    E(nu) = -alpha^2/(4 s (nu + ell + 1)^2); by Sturm ordering only level n
    lies between E(n - 1/2) and E(n + 1/2), and both lie below the continuum.
    """
    return tuple(-problem.alpha ** 2 / (4.0 * problem.s * (n + d + problem.ell + 1) ** 2)
                 for d in (-0.5, 0.5))


def _turning_point(problem, eps):
    """Outer classical turning point of V_eff = V + s l(l+1)/x^2."""
    s = problem.s
    ell = problem.ell

    def veff(x):
        return _potential(problem, x) + s * ell * (ell + 1) / (x * x)

    if problem.linear:
        hi = max(2.0, abs(eps) + problem.alpha + 1.0 + 2.0)
    else:
        # pure Coulomb: the turning point sits near alpha/|eps|; the bracket
        # keeps eps at or below E(n + 1/2) < 0
        hi = 4.0 * problem.alpha / abs(eps) + 10.0
    x = hi
    while veff(x) > eps and x > 1e-6:
        x *= 0.5
    lo = x
    if lo == hi:
        return hi
    while hi - lo > 1e-9 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if veff(mid) > eps:
            hi = mid
        else:
            lo = mid
    return hi


def _r_max(problem, r_max, eps):
    """Outer end of the domain: r_max if given, else beyond the turning point."""
    if r_max is not None:
        return r_max
    tp = _turning_point(problem, eps)
    margin = max(10.0, 5.0 * math.sqrt(tp))
    if not problem.linear:
        # Coulomb tail: the forbidden-region decay rate saturates at
        # kappa = sqrt(|eps|/s), so the margin must scale like 1/kappa to
        # suppress the growing mode contaminating the inward shot
        kappa = math.sqrt(max(abs(eps), 1e-12) / problem.s)
        margin = max(margin, 16.0 / kappa)
    return tp + margin


# the root is found first with the ODE at a coarse tolerance, then within a
# narrow bracket around that root at the final tolerance
_COARSE_RTOL, _COARSE_ATOL = 1e-7, 1e-9
_RTOL, _ATOL = 1e-12, 1e-14


def _rhs(problem, eps):
    """Prüfer phase equation theta' = cos^2(theta) - w sin^2(theta) of u'' = w u."""
    s = problem.s
    ell = problem.ell

    def f(x, y):
        w = ell * (ell + 1) / (x * x) + (_potential(problem, x) - eps) / s
        c, sn = math.cos(y[0]), math.sin(y[0])
        return [c * c - w * sn * sn]

    return f


def _phase(problem, eps, x_from, x_to, theta, tol):
    sol = solve_ivp(_rhs(problem, eps), (x_from, x_to), [theta], method="DOP853",
                    rtol=tol[0], atol=tol[1])
    if not sol.success:
        raise RuntimeError(f"phase integration failed: {sol.message}")
    return sol.y[0, -1]


def _phase_out(problem, eps, x_end, tol):
    """Phase at x_end of the solution regular at the origin (0 at the origin)."""
    x0 = 1e-6
    # series start u ~ x^(l+1) (1 + c1 x) handles the Coulomb 1/x term; u and
    # u' are divided by x0^l, which keeps their ratio and cannot underflow
    c1 = -problem.alpha / (problem.s * 2.0 * (problem.ell + 1))
    u0 = x0 * (1.0 + c1 * x0)
    du0 = (problem.ell + 1) * (1.0 + c1 * x0) + x0 * c1
    return _phase(problem, eps, x0, x_end, math.atan2(u0, du0), tol)


def _phase_in(problem, n, eps, x_match, r_end, tol):
    """Phase at x_match of the solution decaying at r_end, on the branch of n nodes."""
    w = problem.ell * (problem.ell + 1) / r_end**2 + (_potential(problem, r_end) - eps) / problem.s
    kappa = math.sqrt(max(w, 1e-12))
    # first-order WKB: u'/u = -kappa - kappa'/(2 kappa) = -kappa - w'/(4 w)
    dw = (-2.0 * problem.ell * (problem.ell + 1) / r_end**3
          + (problem.alpha / r_end**2 + (1.0 if problem.linear else 0.0)) / problem.s)
    du = -(kappa + dw / (4.0 * max(w, 1e-12)))
    # u > 0 > u' puts the phase in ((n+1/2) pi, (n+1) pi): n nodes inside r_end
    theta = (n + 1) * math.pi - math.atan2(1.0, abs(du))
    return _phase(problem, eps, r_end, x_match, theta, tol)


def _phase_mismatch(problem, n, r_max, eps, tol):
    """theta_out - theta_in at the matching point: increasing in eps, zero at level n."""
    x_match = max(_turning_point(problem, eps), 0.5)
    r_end = _r_max(problem, r_max, eps)
    if r_end <= x_match:
        raise RuntimeError(f"domain end {r_end:.6g} is not beyond the matching point "
                           f"{x_match:.6g} at eps = {eps:.6g}; extend r_max")
    return _phase_out(problem, eps, x_match, tol) - _phase_in(problem, n, eps, x_match, r_end, tol)


def _root(mismatch, a, b, xtol):
    try:
        return brentq(mismatch, a, b, xtol=xtol, rtol=8.9e-16, maxiter=200)
    except ValueError as exc:
        raise RuntimeError(f"phase mismatch does not change sign on [{a:.9g}, {b:.9g}]") from exc


def solve_radial(problem, n, r_max=None):
    """Eigenvalue of the level with n nodes: the root of the phase mismatch.

    The domain ends at r_max when given, else beyond the classical turning
    point (see _r_max).
    """
    if problem.kinetic != "nonrelativistic":
        raise ValueError("the coordinate solver supports only the nonrelativistic kinetic mode")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if r_max is not None and not (math.isfinite(r_max) and r_max > 0.0):
        raise ValueError(f"r_max must be positive and finite, got {r_max!r}")

    @functools.cache
    def coarse(eps):
        return _phase_mismatch(problem, n, r_max, eps, (_COARSE_RTOL, _COARSE_ATOL))

    @functools.cache
    def tight(eps):
        return _phase_mismatch(problem, n, r_max, eps, (_RTOL, _ATOL))

    if not problem.linear:
        a, b = _coulomb_bracket(problem, n)
    else:
        # every level lies above the Coulomb ground state of the same alpha
        a = (hydrogen_energy(0, 0, problem.alpha, 1.0 / (2.0 * problem.s)) * 1.2 - 1.0
             if problem.alpha > 0.0 else 1e-9)
        b = max(1.0, abs(a))
        for _ in range(60):
            if coarse(b) > 0.0:
                break
            a, b = b, b * 2.0 + 1.0
        else:
            raise RuntimeError("failed to bracket the requested level; extend the domain")
    eps = _root(coarse, a, b, 1e-8)
    # the final root lies within h of the coarse one, on the side the sign of
    # the final mismatch shows; the coarse bracket is the fallback
    h = 1e-6 * max(1.0, abs(eps))
    lo, hi = (eps - h, eps) if tight(eps) > 0.0 else (eps, eps + h)
    lo = lo if tight(lo) <= 0.0 else a
    hi = hi if tight(hi) >= 0.0 else b
    return _root(tight, lo, hi, 1e-13)
