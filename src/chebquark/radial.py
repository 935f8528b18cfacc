"""Configuration-space radial solver and analytic references.

Independent cross-check for the momentum-space solver: the reduced radial
equation -s u'' + (V + s l(l+1)/x^2) u = eps u, V = -alpha/x (+ x with the
linear term), in the units of `kernels.Problem` (nonrelativistic mode only),
on the regularized Lagrange-Laguerre mesh (Baye, "The Lagrange-mesh method",
Phys. Rep. 565 (2015) 1): mesh points h x_i at the zeros x_i of L_N
(Jacobi-matrix eigenvalues), the closed-form kinetic matrix of `_mesh` and a
diagonal potential, so a level is one small symmetric eigenvalue.  The last
mesh point sits at the domain end of `_r_max`, a margin past a bound on the
outer turning point (where V = eps, the centrifugal term left out: a root of a
quadratic) in `Problem.natural_units`, where its margins hold at any s; below
zero the margin follows the level's decay length sqrt(s/|eps|), so a deep
Cornell level, whose Bohr length is far below the natural length, stays
resolved.  A level is returned only when two mesh orders agree to 1e-9
relative (N = 40 checked by 50, else 50 checked by 60); otherwise the solve
raises.  Measured against exact hydrogen (ell 0-40, n 0-4: <= 1.1e-12) and
Airy levels (<= 4e-15) and against the Prüfer shooting solver it replaced (113
levels: linear ell 0-12, 20 and 30 and table-1 Coulomb at n 0-4, charmonium
and bottomium ell 0-2 at n 0-2: <= 3.2e-11, 3.7e-10 at ell 20), at about 0.5 ms
a level.  The references are the hydrogen and pure linear (Airy-zero) spectra.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np


def __getattr__(name):
    # probe-only: the benchmark's traced run wraps `radial.solve_ivp` (perfbench/spans.PROBES),
    # so only that lookup loads scipy.integrate; ROADMAP item 4 deletes this hook with the probe
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_indices(**values):
    """Raise ValueError unless every value is a nonnegative integer (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def hydrogen_energy(n, ell, alpha, mu_a):
    """Exact Coulomb level eps = -(mu a) alpha^2 / (2 (n + ell + 1)^2)."""
    if not (0.0 < alpha < math.inf and 0.0 < mu_a < math.inf):
        raise ValueError(f"alpha and mu_a must be positive and finite, got {alpha!r} and {mu_a!r}")
    _check_indices(n=n, ell=ell)
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
    _check_indices(nu=nu)
    if not 1 <= nu <= len(_AIRY_EPS):
        raise ValueError(f"stored Airy references cover nu = 1..{len(_AIRY_EPS)}, got {nu}")
    return _AIRY_EPS[nu - 1]


def _turning_point(problem, eps):
    """Bound on the outer classical turning point: the largest x > 0 where V = eps, or 0.0.

    V_eff = V + s l(l+1)/x^2 is never below V, so V_eff > eps beyond the bound: it lies at
    or past the outer turning point wherever V_eff has one, and is that point at l = 0.
    """
    if not problem.linear:
        return problem.alpha / -eps if eps < 0.0 else 0.0
    # the positive root of x^2 - eps x - alpha, in a form free of cancellation
    root = math.sqrt(eps * eps + 4.0 * problem.alpha)
    return (eps + root) / 2.0 if eps >= 0.0 else 2.0 * problem.alpha / (root - eps)


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
    x = np.linalg.eigvalsh(np.diag(2.0 * i + 1.0) - np.diag(i[1:], -1))
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
    return float(np.linalg.eigvalsh(H)[n])


def solve_radial(problem, n):
    """Level with n nodes from the Lagrange-Laguerre mesh, checked at a second mesh order.

    The last mesh point sits at the domain end of `_r_max` beyond the bound
    `_turning_point` on the classical turning point.  Raises RuntimeError when
    the domain ends inside that bound or no two mesh orders agree.
    """
    if problem.kinetic != "nonrelativistic":
        raise ValueError("the coordinate solver supports only the nonrelativistic kinetic mode")
    _check_indices(n=n)
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
