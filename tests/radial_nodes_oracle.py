"""Node-bisection plus Wronskian shooting solver, kept as a test oracle.

This is the configuration-space solver `chebquark.radial.solve_radial`
used before the Prüfer-phase rewrite: the n-th level is bracketed by
bisection on the node count of the outward solution and refined on the
Wronskian of outward and inward solutions matched at the classical turning
point.  It shares the domain (`_turning_point`, `_r_max`), the pure
Coulomb start bracket and the analytic references with the library, so the
two solvers differ only in how they find the root.  It is slow (about a
hundred `solve_ivp` calls per level) and is only run on a handful of levels.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from chebquark.radial import (
    _coulomb_bracket, _potential, _r_max, _turning_point, hydrogen_energy)


_RTOL = 1e-12
_ATOL = 1e-14


def _rhs(problem, eps):
    s = problem.s
    ell = problem.ell

    def f(x, y):
        w = ell * (ell + 1) / (x * x) + (_potential(problem, x) - eps) / s
        return [y[1], w * y[0]]

    return f


def _shoot_out(problem, eps, x_match, count_to=None):
    """Integrate outward from the origin; return (u, u') at x_match.

    With count_to set, integrate to that endpoint instead and return the
    number of interior nodes (sign changes), renormalizing along the way to
    avoid overflow in the classically forbidden region.
    """
    x0 = 1e-6
    # series start u ~ x^(l+1) (1 + c1 x) handles the Coulomb 1/x term
    c1 = -problem.alpha / (problem.s * 2.0 * (problem.ell + 1))
    u0 = x0 ** (problem.ell + 1) * (1.0 + c1 * x0)
    du0 = (problem.ell + 1) * x0 ** problem.ell * (1.0 + c1 * x0) + x0 ** (problem.ell + 1) * c1
    f = _rhs(problem, eps)

    if count_to is None:
        sol = solve_ivp(f, (x0, x_match), [u0, du0], method="DOP853",
                        rtol=_RTOL, atol=_ATOL, dense_output=False)
        if not sol.success:
            raise RuntimeError(f"outward integration failed: {sol.message}")
        return sol.y[0, -1], sol.y[1, -1]

    nodes = 0
    y = [u0, du0]
    edges = np.linspace(x0, count_to, 9)
    for a, b in zip(edges[:-1], edges[1:]):
        span = np.linspace(a, b, 40)
        sol = solve_ivp(f, (a, b), y, method="DOP853", rtol=1e-8, atol=1e-250,
                        t_eval=span)
        if not sol.success:
            raise RuntimeError(f"outward integration failed: {sol.message}")
        u = sol.y[0]
        nodes += int(np.sum(np.sign(u[1:]) * np.sign(u[:-1]) < 0))
        y = [sol.y[0, -1], sol.y[1, -1]]
        scale = max(abs(y[0]), abs(y[1]))
        if scale > 1e100:
            y = [y[0] / scale, y[1] / scale]
    return nodes


def _shoot_in(problem, eps, x_match, r_max):
    """Integrate inward from r_max with a first-order WKB decaying start."""
    w = problem.ell * (problem.ell + 1) / r_max**2 + (_potential(problem, r_max) - eps) / problem.s
    kappa = math.sqrt(max(w, 1e-12))
    # u'/u = -kappa - kappa'/(2 kappa) = -kappa - w'/(4 w)
    dw = (-2.0 * problem.ell * (problem.ell + 1) / r_max**3
          + (problem.alpha / r_max**2 + (1.0 if problem.linear else 0.0)) / problem.s)
    u0, du0 = 1.0, -(kappa + dw / (4.0 * max(w, 1e-12)))
    f = _rhs(problem, eps)
    sol = solve_ivp(f, (r_max, x_match), [u0, du0], method="DOP853",
                    rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise RuntimeError(f"inward integration failed: {sol.message}")
    return sol.y[0, -1], sol.y[1, -1]


def _wronskian_mismatch(problem, n, r_max, eps):
    tp = _turning_point(problem, eps)
    x_match = max(tp, 0.5)
    r_end = _r_max(problem, r_max, eps)
    uo, duo = _shoot_out(problem, eps, x_match)
    ui, dui = _shoot_in(problem, eps, x_match, r_end)
    # scale out the arbitrary normalizations of the two branches
    so = math.hypot(uo, duo)
    si = math.hypot(ui, dui)
    return (duo * ui - uo * dui) / (so * si)


def _node_count(problem, n, r_max, eps):
    """Nodes of the outward solution up to the domain end of level n."""
    return _shoot_out(problem, eps, None, count_to=_r_max(problem, r_max, eps))


def _bracket_by_nodes(problem, n, r_max):
    """Energy interval on which the node count steps from n to n+1."""
    if not problem.linear:
        # the shared domain needs eps < 0 for pure Coulomb
        lo, hi = _coulomb_bracket(problem, n)
    elif problem.alpha > 0.0:
        lo = hydrogen_energy(0, 0, problem.alpha, 1.0 / (2.0 * problem.s)) * 1.2 - 1.0
        hi = max(1.0, abs(lo))
    else:
        lo = 1e-9
        hi = 1.0
    for _ in range(60):
        if _node_count(problem, n, r_max, hi) > n:
            break
        hi = hi * 2.0 + 1.0
    else:
        raise RuntimeError("failed to bracket the requested level; extend the domain")
    ca = _node_count(problem, n, r_max, lo)
    if ca > n:
        raise RuntimeError("lower energy bound already has too many nodes")

    # bisect on node count: the count steps from n to n+1 exactly at the
    # n-node eigenvalue, so this tightens a bracket around it
    a, b = lo, hi
    cb = _node_count(problem, n, r_max, b)
    while (ca != n or cb != n + 1 or (b - a) > 0.02 * max(1.0, abs(a))) \
            and (b - a) > 1e-10 * max(1.0, abs(a)):
        mid = 0.5 * (a + b)
        cm = _node_count(problem, n, r_max, mid)
        if cm <= n:
            a, ca = mid, cm
        else:
            b, cb = mid, cm
    return a, b


def solve_radial(problem, n, r_max=None):
    """Eigenvalue of the level with n nodes by node counting plus Wronskian matching.

    The domain ends at r_max when given, else beyond the classical turning
    point (see _r_max).
    """
    if problem.kinetic != "nonrelativistic":
        raise ValueError("the coordinate solver supports only the nonrelativistic kinetic mode")
    if n < 0:
        raise ValueError("quantum numbers must be nonnegative")
    a, b = _bracket_by_nodes(problem, n, r_max)
    fa = _wronskian_mismatch(problem, n, r_max, a)
    fb = _wronskian_mismatch(problem, n, r_max, b)
    # the mismatch changes sign across the eigenvalue inside a one-node bracket;
    # nudge the edges inward if an endpoint sits too close to the next level
    tries = 0
    while fa * fb > 0.0 and tries < 40:
        a, b = a + 0.02 * (b - a), b - 0.02 * (b - a)
        fa = _wronskian_mismatch(problem, n, r_max, a)
        fb = _wronskian_mismatch(problem, n, r_max, b)
        tries += 1
    if fa * fb > 0.0:
        raise RuntimeError("matching function does not change sign inside the node bracket")
    eps = brentq(lambda e: _wronskian_mismatch(problem, n, r_max, e), a, b,
                 xtol=1e-13, rtol=8.9e-16, maxiter=200)
    return eps
