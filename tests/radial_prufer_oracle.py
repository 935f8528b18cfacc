"""Prüfer-phase shooting solver, kept as a test oracle.

This is the configuration-space solver `chebquark.radial.solve_radial`
used before the Lagrange-mesh rewrite.  The reduced radial equation

    u''(x) = w(x) u(x),   w = l(l+1)/x^2 + (V(x) - eps)/s,

is integrated for the Prüfer phase theta, tan(theta) = u/u', outward from
the origin and inward from the far end of the domain, where the inward
phase starts on the branch ((n+1/2) pi, (n+1) pi) of a decaying solution
with n nodes.  The mismatch of the two phases at the classical turning
point is continuous and increasing in eps and vanishes exactly at the n-th
level, so one bracketed root-find gives the level with no node counting
(the miss-distance function of Pryce, Numerical Solution of Sturm-Liouville
Problems, 1993).  Its domain is its own, so agreement with the library also
checks the library's: the matching point is a bracketed root of
x^2 (V_eff - eps), and the domain ends where the WKB action of the decaying
solution reaches _TAIL_ACTION.  It shares with the library only the
hydrogen start of the bracket and `Problem.coulomb_level`, which brackets a
pure Coulomb level at n -+ 1/2.
It costs 0.1-0.4 s (about 1 s at ell 20 and 30) and about 35 `solve_ivp`
calls per level.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from chebquark.radial import hydrogen_energy


# the root is found first with the ODE at a coarse tolerance, then within a
# narrow bracket around that root at the final tolerance
_COARSE_RTOL, _COARSE_ATOL = 1e-7, 1e-9
_RTOL, _ATOL = 1e-12, 1e-14
# the decaying solution falls by exp(-_TAIL_ACTION) from the matching point to the domain
# end: far below rounding, and past the library's domain end at every level the tests
# compare (whose own reaches an action of at most 56, at linear ell 20, n 4)
_TAIL_ACTION = 60.0
_GAUSS = np.polynomial.legendre.leggauss(32)


def _w(problem, eps, x):
    """w = l(l+1)/x^2 + (V(x) - eps)/s of u'' = w u, at scalar or array x."""
    potential = -problem.alpha / x + (x if problem.linear else 0.0)
    return problem.ell * (problem.ell + 1) / (x * x) + (potential - eps) / problem.s


def _turning_point(problem, eps):
    """Largest x > 0 where V_eff = eps, or 0.0 where there is none.

    It is the largest root of f = x^2 (V_eff - eps), c = s l(l+1): x^3 - eps x^2 - alpha x + c
    with the linear term, -eps x^2 - alpha x + c (eps < 0) without.  On x > 0, f falls to its
    one minimum x* and rises after it, so a root exists when f(x*) < 0, and brentq finds it
    between x* and the Cauchy bound of the roots.
    """
    alpha, c = problem.alpha, problem.s * problem.ell * (problem.ell + 1)
    lead = 1.0 if problem.linear else 0.0

    def f(x):
        return ((lead * x - eps) * x - alpha) * x + c

    if problem.linear:
        x_min, bound = (eps + math.sqrt(eps * eps + 3.0 * alpha)) / 3.0, max(abs(eps), alpha, c)
    else:
        x_min, bound = alpha / (-2.0 * eps), max(alpha, c) / -eps
    if not f(x_min) < 0.0:
        return 0.0
    return brentq(f, x_min, 1.0 + bound, xtol=1e-300, rtol=8.9e-16, maxiter=200)


def _domain_end(problem, eps, x_match):
    """The r where the WKB action int_{x_match}^r sqrt(max(w, 0)) dx reaches _TAIL_ACTION."""
    v, weights = _GAUSS
    u = 0.5 * (v + 1.0)

    def shortfall(r):
        # x = x_match + (r - x_match) u^2 smooths the sqrt(x - tp) of the turning point
        x = x_match + (r - x_match) * u * u
        action = (r - x_match) * np.dot(weights, u * np.sqrt(np.maximum(_w(problem, eps, x), 0.0)))
        return action - _TAIL_ACTION

    hi = x_match + 1.0
    for _ in range(60):
        if shortfall(hi) > 0.0:
            return brentq(shortfall, x_match, hi, xtol=1e-12, rtol=1e-12)
        hi = x_match + 2.0 * (hi - x_match)
    raise RuntimeError(f"the WKB action never reaches {_TAIL_ACTION} at eps = {eps:.6g}")


def _rhs(problem, eps):
    """Prüfer phase equation theta' = cos^2(theta) - w sin^2(theta) of u'' = w u."""

    def f(x, y):
        w = _w(problem, eps, x)
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
    w = _w(problem, eps, r_end)
    kappa = math.sqrt(max(w, 1e-12))
    # first-order WKB: u'/u = -kappa - kappa'/(2 kappa) = -kappa - w'/(4 w)
    dw = (-2.0 * problem.ell * (problem.ell + 1) / r_end**3
          + (problem.alpha / r_end**2 + (1.0 if problem.linear else 0.0)) / problem.s)
    du = -(kappa + dw / (4.0 * max(w, 1e-12)))
    # u > 0 > u' puts the phase in ((n+1/2) pi, (n+1) pi): n nodes inside r_end
    theta = (n + 1) * math.pi - math.atan2(1.0, abs(du))
    return _phase(problem, eps, r_end, x_match, theta, tol)


def _phase_mismatch(problem, n, eps, tol):
    """theta_out - theta_in at the matching point: increasing in eps, zero at level n."""
    x_match = max(_turning_point(problem, eps), 0.5)
    r_end = _domain_end(problem, eps, x_match)
    return _phase_out(problem, eps, x_match, tol) - _phase_in(problem, n, eps, x_match, r_end, tol)


def _root(mismatch, a, b, xtol):
    try:
        return brentq(mismatch, a, b, xtol=xtol, rtol=8.9e-16, maxiter=200)
    except ValueError as exc:
        raise RuntimeError(f"phase mismatch does not change sign on [{a:.9g}, {b:.9g}]") from exc


def solve_radial(problem, n):
    """Eigenvalue of the level with n nodes: the root of the phase mismatch.

    The domain ends beyond the classical turning point (see _domain_end).
    """
    if problem.kinetic != "nonrelativistic":
        raise ValueError("the coordinate solver supports only the nonrelativistic kinetic mode")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")

    @functools.cache
    def coarse(eps):
        return _phase_mismatch(problem, n, eps, (_COARSE_RTOL, _COARSE_ATOL))

    @functools.cache
    def tight(eps):
        return _phase_mismatch(problem, n, eps, (_RTOL, _ATOL))

    if not problem.linear:
        a, b = problem.coulomb_level(n - 0.5), problem.coulomb_level(n + 0.5)
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
