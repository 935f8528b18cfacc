"""Configuration-space radial solver and analytic references.

Independent cross-check for the momentum-space solver: the reduced radial
equation -s u'' + (V + s l(l+1)/x^2) u = eps u, V = -alpha/x (+ x with the
linear term), in the units of `kernels.Problem` (nonrelativistic mode only),
on the regularized Lagrange-Laguerre mesh (Baye, "The Lagrange-mesh method",
Phys. Rep. 565 (2015) 1): mesh points h x_i at the zeros x_i of L_N
(Jacobi-matrix eigenvalues), the closed-form kinetic matrix of `_mesh` and a
diagonal potential, so a level is one small symmetric eigenvalue.  The last
mesh point sits at the domain end of `_r_max`, a margin past the outer turning
point (the largest positive root of x^2 (V_eff - eps), in closed form: a cubic
with the linear term, a quadratic without) in `Problem.natural_units`, where
its margins hold at any s; below zero the margin follows the level's decay
length sqrt(s/|eps|), so a deep Cornell level, whose Bohr length is far below
the natural length, stays resolved.  A level is returned only when two mesh orders
agree to 1e-9 relative (N = 40 checked by 50, else 50 checked by 60);
otherwise the solve raises.  Measured against exact hydrogen and Airy levels
(<= 1.6e-11) and against the Prüfer shooting solver it replaced (114 levels:
linear ell 0-12, 20 and 30, the table-1 Coulomb set, charmonium and bottomium
ell 0-2: <= 2.9e-11, 2e-10 at ell 20), at about 1 ms a level.  The references
are the hydrogen and the pure linear (Airy-zero) spectra.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np
import scipy.linalg


def __getattr__(name):
    # probe-only: the benchmark's traced run wraps `radial.solve_ivp` (perfbench/spans.PROBES),
    # so only that lookup loads scipy.integrate; ROADMAP item 4 deletes this hook with the probe
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _turning_point(problem, eps):
    """Outer classical turning point: the largest x > 0 where V_eff = V + s l(l+1)/x^2 is eps.

    It is the largest positive real root of x^2 (V_eff - eps), c = s l(l+1), in closed form,
    or 0.0 where there is none.  Without the linear term it solves -eps x^2 - alpha x + c
    (alpha > 0).  With it, x = eps/3 + t turns x^3 - eps x^2 - alpha x + c into
    t^3 - 3 r^2 t + q; its roots multiply to -c <= 0, so a lone real root is negative, and
    three take the trigonometric form 2 r cos(phi - 2 pi k/3).  Below eps = 0 the largest
    would cancel against eps/3: it solves the quadratic x^2 + b x + d the negative root leaves.
    """
    alpha, c = problem.alpha, problem.s * problem.ell * (problem.ell + 1)
    if not problem.linear:
        disc = alpha * alpha + 4.0 * eps * c
        if disc < 0.0:
            return 0.0
        root = alpha + math.sqrt(disc)
        return root / (-2.0 * eps) if eps < 0.0 else 2.0 * c / root
    r = math.sqrt(alpha / 3.0 + eps * eps / 9.0)
    q = c - alpha * eps / 3.0 - 2.0 * eps * eps * eps / 27.0
    if r == 0.0 or c > 0.0 and abs(q) > 2.0 * r * r * r:
        return 0.0
    phi = math.acos(min(max(-q / (2.0 * r * r * r), -1.0), 1.0)) / 3.0
    if eps >= 0.0:
        x = eps / 3.0 + 2.0 * r * math.cos(phi)
    else:
        negative = eps / 3.0 + 2.0 * r * math.cos(phi + 2.0 * math.pi / 3.0)
        d = -c / negative
        b = (d + alpha) / negative
        x = (math.sqrt(max(b * b - 4.0 * d, 0.0)) - b) / 2.0
    # a Newton step on the cubic sharpens a root near the merger of the top two
    slope = (3.0 * x - 2.0 * eps) * x - alpha
    return x - (((x - eps) * x - alpha) * x + c) / slope if slope > 0.0 else x


def _r_max(problem, eps):
    """Outer end of the domain, beyond the classical turning point."""
    tp = _turning_point(problem, eps)
    margin = max(10.0, 5.0 * math.sqrt(tp))
    if problem.linear and eps >= 0.0:
        return tp + margin
    # below the continuum the forbidden-region decay rate saturates at
    # kappa = sqrt(|eps|/s), and the bound state dies out within 16/kappa:
    # a Coulomb tail needs at least that margin, and a linear term, which
    # only steepens the decay, needs no more (the Bohr length of a deep
    # Cornell level is far below the linear margin)
    tail = 16.0 / math.sqrt(max(abs(eps), 1e-12) / problem.s)
    return tp + (min(margin, tail) if problem.linear else max(margin, tail))


# a level from one mesh order is kept when the next order agrees to _AGREE
_ORDERS = (40, 50, 60)
_AGREE = 1e-9


@functools.cache
def _mesh(N):
    """Zeros x_i of L_N and the regularized Lagrange-Laguerre matrix of -d^2/dx^2.

    The zeros are the eigenvalues of the Laguerre Jacobi matrix (Golub & Welsch 1969).
    """
    i = np.arange(N)
    x = scipy.linalg.eigvalsh_tridiagonal(2 * i + 1, -i[1:])
    gap = x[:, None] - x
    gap[i, i] = 1.0
    # (-1)^(i-j) / sqrt(x_i x_j) = 1 / (y_i y_j) with y_i = (-1)^i sqrt(x_i)
    y = np.where(i % 2, -1.0, 1.0) * np.sqrt(x)
    T = (x[:, None] + x) / (np.outer(y, y) * gap * gap)
    T[i, i] = -(x * x - 2.0 * (2 * N + 1) * x - 4.0) / (12.0 * x * x)
    T.flags.writeable = False
    return x, T


def _level(problem, n, N, r_end):
    """Level n on the N-point mesh whose last point is r_end."""
    x, T = _mesh(N)
    h = r_end / x[-1]
    r = h * x
    with np.errstate(over="ignore", invalid="ignore"):
        H = (problem.s / (h * h)) * T
        H[np.diag_indices(N)] += (-problem.alpha / r + (r if problem.linear else 0.0)
                                  + problem.s * problem.ell * (problem.ell + 1) / (r * r))
    if not np.all(np.isfinite(H)):
        raise RuntimeError(f"coordinate Hamiltonian is not finite at mesh scale {h:.3g}")
    # H is local, and finite by the check above
    return float(scipy.linalg.eigh(H, eigvals_only=True, subset_by_index=[n, n],
                                   overwrite_a=True, check_finite=False)[0])


def solve_radial(problem, n):
    """Level with n nodes from the Lagrange-Laguerre mesh, checked at a second mesh order.

    The last mesh point sits at the domain end of `_r_max` beyond the
    classical turning point.  Raises RuntimeError when the domain ends
    inside the turning point or no two mesh orders agree.
    """
    if problem.kinetic != "nonrelativistic":
        raise ValueError("the coordinate solver supports only the nonrelativistic kinetic mode")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if n >= _ORDERS[0]:
        raise RuntimeError(f"level n = {n} is beyond the {_ORDERS[0]}-point mesh")

    length, energy, unit = problem.natural_units()

    def domain(eps):
        return length * _r_max(unit, eps / energy)

    if problem.linear:
        # WKB level of the linear term alone, Langer-corrected
        start = (1.5 * math.pi * (n + 0.5 * problem.ell + 0.75)) ** (2.0 / 3.0)
    else:
        start = unit.coulomb_level(n)
    r_end = domain(energy * start)
    eps = _level(problem, n, _ORDERS[0], r_end)
    # the domain moves with the level; the order check below judges the result
    for _ in range(8):
        r_next = domain(eps)
        if abs(r_next / r_end - 1.0) < 1e-3:
            break
        r_end = r_next
        eps = _level(problem, n, _ORDERS[0], r_end)

    x_turn = length * _turning_point(unit, eps / energy)
    if r_end <= x_turn:
        raise RuntimeError(f"domain end {r_end:.6g} is not beyond the turning point "
                           f"{x_turn:.6g} at eps = {eps:.6g}")
    for N in _ORDERS[1:]:
        check = _level(problem, n, N, r_end)
        if abs(check - eps) <= _AGREE * abs(check):
            break
        eps = check
    else:
        raise RuntimeError(f"mesh orders {_ORDERS} give no two agreeing values of level "
                           f"n = {n} (last {eps:.12g}); the level is not resolved")
    if not problem.linear:
        # by Sturm ordering only level n lies between the hydrogen levels at n -+ 1/2
        lo, hi = problem.coulomb_level(n - 0.5), problem.coulomb_level(n + 0.5)
        if not lo < eps < hi:
            raise RuntimeError(f"level n = {n} at {eps:.12g} lies outside its Coulomb "
                               f"bracket [{lo:.12g}, {hi:.12g}]")
    return eps
