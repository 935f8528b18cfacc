"""Momentum-space bound-state solver on a mapped Chebyshev mesh.

The semi-infinite momentum axis is mapped onto (-1, 1), the singular
integral equation is enforced exactly at the Chebyshev nodes, and each
integral is replaced by the matching quadrature rule: plain weights for the
regular pieces, the log-kernel rule for the log|(x'+x)/(x'-x)| pieces, and
the Cauchy principal value rule for the pole left after the double pole has
been reduced by integration by parts.  The derivative of the unknown
function introduced by that reduction is eliminated through the spectral
differentiation matrix, so the final object is a dense real non-symmetric
N x N matrix whose eigenvalues approximate the bound-state spectrum.

Working units: lengths in a, momenta x = k a, energies eps = E a, where a
is the length scale of the linear term V = -alpha/r + r/a^2.  The kinetic
coefficient is s = 1/(2 mu a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import cheb, kernels
from .kernels import legendre_P, w_poly


# ---------------------------------------------------------------------------
# mapping of (0, inf) onto (-1, 1)

def _log_t_of(x, sigma):
    e = np.exp(x / sigma)
    return (e - 3.0) / (e + 1.0)


# kind -> (x(t), dx/dt, t(x)), each a function of (argument, sigma)
MAPPINGS = {
    "rational": (
        lambda t, sigma: sigma * (1.0 + t) / (1.0 - t),
        lambda t, sigma: 2.0 * sigma / (1.0 - t) ** 2,
        lambda x, sigma: (x - sigma) / (x + sigma),
    ),
    "trigonometric": (
        lambda t, sigma: sigma * np.tan(0.25 * np.pi * (1.0 + t)),
        lambda t, sigma: sigma * 0.25 * np.pi / np.cos(0.25 * np.pi * (1.0 + t)) ** 2,
        lambda x, sigma: (4.0 / np.pi) * np.arctan(x / sigma) - 1.0,
    ),
    "logarithmic": (
        lambda t, sigma: sigma * np.log((3.0 + t) / (1.0 - t)),
        lambda t, sigma: sigma * (1.0 / (3.0 + t) + 1.0 / (1.0 - t)),
        _log_t_of,
    ),
}


def _interior(t):
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) >= 1.0):
        raise ValueError("mapping argument must lie strictly inside (-1, 1)")
    return t


@dataclass(frozen=True)
class Mapping:
    """Invertible map t in (-1, 1) <-> x in (0, inf) with scale sigma."""

    kind: str = "rational"
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in MAPPINGS:
            raise ValueError(f"unknown mapping kind {self.kind!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("mapping scale must be positive and finite")

    def _apply(self, formula, arg):
        out = MAPPINGS[self.kind][formula](arg, self.sigma)
        return out if out.ndim else float(out)

    def x_of(self, t):
        return self._apply(0, _interior(t))

    def jacobian(self, t):
        return self._apply(1, _interior(t))

    def t_of(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValueError("momentum must be positive")
        return self._apply(2, x)


@dataclass(frozen=True)
class BoundLevel:
    """One accepted bound level: quantum numbers, energy and mesh values."""

    ell: int
    n: int
    epsilon: float
    mesh_values: np.ndarray
    residual_norm: float
    imag_part: float


# ---------------------------------------------------------------------------
# assembly

def _kernel_tables(ell, z):
    """P_ell, P'_ell, w_{ell-1}, w'_{ell-1} on a full z matrix."""
    p, dp = legendre_P(ell, z, with_derivative=True)
    if ell >= 1:
        w, dw = w_poly(ell, z, with_derivative=True)
    else:
        w = np.zeros_like(z)
        dw = np.zeros_like(z)
    return p, dp, w, dw


def assemble_potential(problem, grid, mapping):
    """Potential matrix V with (V X)_i = the discretized right-hand side.

    The quadrature substitutions (per mesh point tau_i = t_i):

      regular:    dx'                    -> w_j J_j
      pole:       dx'/(x'-x)             -> omega_j(t_i) * J_j (t_j-t_i)/(x_j-x_i)
      log kernel: log|(x'+x)/(x'-x)| dx' -> [w_j log S_ij - Omega_j(t_i)] J_j

    with J_j = dx/dt at t_j and S_ij = (x_j+x_i)|t_j-t_i| / |x_j-x_i| the
    smooth remainder of the log argument.  The diagonal limits are
    S_ii = 2 x_i / J_i and J_i (t_j-t_i)/(x_j-x_i) -> 1.  For the
    rational mapping these reduce to the classical closed forms
    omega_j(t_i)(1-t_i)/(1-t_j) and 2 sigma [w_j log|1-t_i t_j| -
    Omega_j(t_i)]/(1-t_j)^2.  The derivative of the unknown function is
    eliminated through the differentiation matrix, chi(x_j) =
    (1/J_j) sum_k D_jk X_k, and the x'-derivative of the known factor inside
    the principal value brace is taken analytically.  The kernel values come
    from the `kernels` formulas that the scalar oracle `kernel_pieces`
    evaluates too.  All diagonal entries are finite.
    """
    N = grid.N
    t = grid.nodes
    w = grid.plain_weights
    x = mapping.x_of(t)
    J = mapping.jacobian(t)

    dt = t[None, :] - t[:, None]          # t_j - t_i
    dx = x[None, :] - x[:, None]          # x_j - x_i
    np.fill_diagonal(dt, 1.0)
    np.fill_diagonal(dx, 1.0)

    # z matrix with an exact diagonal
    z = (x[:, None] ** 2 + x[None, :] ** 2) / (2.0 * x[:, None] * x[None, :])
    np.fill_diagonal(z, 1.0)
    p, dp, wl, dwl = _kernel_tables(problem.ell, z)

    # smooth remainder of the log argument; diagonal limit 2 x_i / J_i
    smooth = (x[None, :] + x[:, None]) * np.abs(dt / dx)
    np.fill_diagonal(smooth, 2.0 * x / J)

    omega_log = grid.log_table    # Omega_j(t_i)
    omega_pv = grid.pv_table      # omega_j(t_i)

    logw = (w[None, :] * np.log(smooth) - omega_log) * J[None, :]
    regw = w * J
    hfac = J[None, :] * dt / dx
    np.fill_diagonal(hfac, 1.0)
    pvw = omega_pv * hfac

    V = np.zeros((N, N))

    if problem.linear:
        # log + regular pieces of the linear kernel (absent for ell = 0)
        if problem.ell >= 1:
            V += kernels.linear_log_regular(x[:, None], dp, dwl, logw, regw[None, :])
        # principal value piece: -(4/pi) PV int {chi + phi d/dx'} F dx'/(x'-x)
        F, Fx = kernels.pv_factor(x[:, None], x[None, :], p, dp)
        chi_term = (pvw * F / J[None, :]) @ grid.diff_matrix
        V += -(4.0 / np.pi) * (chi_term + pvw * Fx)

    if problem.alpha > 0.0:
        V += kernels.coulomb_log_regular(problem.alpha, x[:, None], x[None, :],
                                         p, wl, logw, regw[None, :])

    return V


def kinetic_diagonal(problem, x):
    """Kinetic energy at the mesh momenta for the selected mode."""
    x = np.asarray(x, dtype=float)
    if problem.kinetic == "nonrelativistic":
        return problem.s * x * x
    am = problem.am
    return 2.0 * np.sqrt(x * x + am * am) - 2.0 * am


def assemble_hamiltonian(V, problem, grid, mapping):
    """H = V + K with the kinetic term on the diagonal."""
    if V.shape != (grid.N, grid.N):
        raise ValueError("potential matrix does not match the grid order")
    x = mapping.x_of(grid.nodes)
    return V + np.diag(kinetic_diagonal(problem, x))


# ---------------------------------------------------------------------------
# eigenproblem and level selection

def solve_spectrum(H):
    """All eigenvalues and right eigenvectors of the dense Hamiltonian.

    Uses the LAPACK non-symmetric QR driver; deterministic for fixed input.
    A matrix with an infinite or NaN entry, which an extreme mapping scale
    or a high ell overflows to, is a numerical failure (RuntimeError).
    """
    if not np.all(np.isfinite(H)):
        raise RuntimeError("Hamiltonian has non-finite entries: the kernels overflow "
                           "or underflow at this ell or mapping scale sigma")
    try:
        evals, evecs = scipy.linalg.eig(H, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise RuntimeError(f"eigenvalue solver failed to converge: {exc}") from exc
    return evals, evecs


IMAG_TOL = 1e-8
RESIDUAL_TOL = 1e-8


def spectrum_floor(problem):
    """Variational lower bound on physical energies, used to cut spurious roots.

    Dropping the (nonnegative) linear term can only lower the spectrum, and
    the pure Coulomb ground state is -alpha^2/(4 s) in the nonrelativistic
    mode.  In salpeter mode the binding energy cannot drop below minus the
    total rest mass.  Discretization artifacts routinely appear far below
    these bounds.
    """
    if problem.kinetic == "salpeter":
        floor = -2.0 * problem.am
    else:
        floor = -problem.alpha * problem.alpha / (4.0 * problem.s)
    return floor - 1e-6 * max(1.0, abs(floor))


def select_bound_states(eigenpairs, H, problem, grid, mapping, count):
    """The lowest `count` physical bound levels, indexed and normalized.

    `H` is the matrix the eigenpairs were computed from.  Eigenpairs are
    visited in stable ascending order of real part, and the first `count`
    that pass four filters are accepted.  (1) The imaginary part must be
    negligible against the real part.  (2) The real part must lie above the
    variational floor of the physical spectrum.  (3) The quadrature density
    w_j J_j x_j^2 |phi_j|^2 must not be concentrated on the extreme mesh
    points: discretizing the continuum produces corner modes pinned to the
    largest or smallest momenta, while genuine bound states decay at both
    ends.  (4) The scaled residual ||H v - eps v|| / (||v|| max|H|) must be
    small; the raw residual is meaningless for ell >= 2, where kernel
    cancellations blow the matrix corners up by many orders of magnitude.
    Each filter looks at one eigenpair only, so stopping at `count` gives
    the same levels as filtering every eigenpair and sorting the survivors.
    Accepted levels are indexed n = 0, 1, ... and normalized to unit
    momentum-space norm int |phi|^2 x^2 dx = 1 under the mapped plain rule.
    Returns (levels, complete) where complete is False when fewer than
    `count` levels passed the filters.
    """
    evals, evecs = eigenpairs
    x = mapping.x_of(grid.nodes)
    J = mapping.jacobian(grid.nodes)
    hscale = max(1.0, np.abs(H).max())
    density_weights = grid.plain_weights * J * x * x
    corner = max(3, grid.N // 10)

    floor = spectrum_floor(problem)
    levels = []
    for i in np.argsort(evals.real, kind="stable"):
        if len(levels) == count:
            break
        lam = evals[i]
        if abs(lam.imag) > IMAG_TOL * max(1.0, abs(lam.real)):
            continue
        if lam.real < floor:
            continue
        v = np.real(evecs[:, i])
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            continue
        density = density_weights * v * v
        total = density.sum()
        if total <= 0.0:
            continue
        if max(density[:corner].sum(), density[-corner:].sum()) > 0.5 * total:
            continue
        resid = np.linalg.norm(H @ v - lam.real * v) / (nrm * hscale)
        if resid > RESIDUAL_TOL:
            continue
        v = v / math.sqrt(total)
        # deterministic sign: largest-magnitude mesh value positive
        if v[np.argmax(np.abs(v))] < 0.0:
            v = -v
        v.setflags(write=False)
        levels.append(BoundLevel(
            ell=problem.ell, n=len(levels), epsilon=lam.real, mesh_values=v,
            residual_norm=resid, imag_part=abs(lam.imag),
        ))
    return levels, len(levels) >= count


def solve_levels(problem, N, mapping=None, count=5):
    """Lowest `count` levels: assemble H once, diagonalize, select lazily.

    The PV and log weight tables come from the grid, which builds each once
    per mesh order, so a loop over ell at fixed N reuses them.
    """
    mapping = mapping or Mapping()
    grid = cheb.chebyshev_grid(N)
    V = assemble_potential(problem, grid, mapping)
    H = assemble_hamiltonian(V, problem, grid, mapping)
    pairs = solve_spectrum(H)
    return select_bound_states(pairs, H, problem, grid, mapping, count)


def wavefunction_at(level, grid, mapping, x):
    """Interpolate the mesh wavefunction of a level to an arbitrary x > 0."""
    if x <= 0.0:
        raise ValueError("momentum must be positive")
    t = mapping.t_of(x)
    t = min(max(t, -1.0), 1.0)
    return cheb.interpolate(grid, level.mesh_values, t)


def convergence_scan(problem, sigma, N_list, count=5, mapping_kind="rational"):
    """Energies of the lowest levels at each N, with successive differences.

    Returns a dict: {"N": [...], "epsilon", "residual", "imag": arrays
    (len(N_list), count) of each level's BoundLevel fields, "diffs": array
    (len(N_list)-1, count)} where diffs[k] = |eps(N_{k+1}) - eps(N_k)| per
    level.  Levels missing at some N appear as NaN.
    """
    if list(N_list) != sorted(N_list):
        raise ValueError("N_list must be increasing")
    mapping = Mapping(kind=mapping_kind, sigma=sigma)
    table, resid, imag = np.full((3, len(N_list), count), np.nan)
    for k, N in enumerate(N_list):
        levels, _ = solve_levels(problem, N, mapping, count)
        for lv in levels:
            table[k, lv.n] = lv.epsilon
            resid[k, lv.n] = lv.residual_norm
            imag[k, lv.n] = lv.imag_part
    diffs = np.abs(np.diff(table, axis=0))
    return {"N": list(N_list), "epsilon": table, "residual": resid,
            "imag": imag, "diffs": diffs}
