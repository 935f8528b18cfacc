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

from . import cheb
from .kernels import legendre_P, w_poly


# ---------------------------------------------------------------------------
# mapping of (0, inf) onto (-1, 1)

class MappingKind:
    RATIONAL = "rational"
    TRIGONOMETRIC = "trigonometric"
    LOGARITHMIC = "logarithmic"

    ALL = (RATIONAL, TRIGONOMETRIC, LOGARITHMIC)


@dataclass(frozen=True)
class Mapping:
    """Invertible map t in (-1, 1) <-> x in (0, inf) with scale sigma."""

    kind: str = MappingKind.RATIONAL
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in MappingKind.ALL:
            raise ValueError(f"unknown mapping kind {self.kind!r}")
        if self.sigma <= 0.0:
            raise ValueError("mapping scale must be positive")

    def x_of(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(np.abs(t) >= 1.0):
            raise ValueError("mapping argument must lie strictly inside (-1, 1)")
        if self.kind == MappingKind.RATIONAL:
            x = self.sigma * (1.0 + t) / (1.0 - t)
        elif self.kind == MappingKind.TRIGONOMETRIC:
            x = self.sigma * np.tan(0.25 * np.pi * (1.0 + t))
        else:
            x = self.sigma * np.log((3.0 + t) / (1.0 - t))
        return x if x.ndim else float(x)

    def jacobian(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(np.abs(t) >= 1.0):
            raise ValueError("mapping argument must lie strictly inside (-1, 1)")
        if self.kind == MappingKind.RATIONAL:
            j = 2.0 * self.sigma / (1.0 - t) ** 2
        elif self.kind == MappingKind.TRIGONOMETRIC:
            j = self.sigma * 0.25 * np.pi / np.cos(0.25 * np.pi * (1.0 + t)) ** 2
        else:
            j = self.sigma * (1.0 / (3.0 + t) + 1.0 / (1.0 - t))
        return j if j.ndim else float(j)

    def t_of(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValueError("momentum must be positive")
        if self.kind == MappingKind.RATIONAL:
            t = (x - self.sigma) / (x + self.sigma)
        elif self.kind == MappingKind.TRIGONOMETRIC:
            t = (4.0 / np.pi) * np.arctan(x / self.sigma) - 1.0
        else:
            e = np.exp(x / self.sigma)
            t = (e - 3.0) / (e + 1.0)
        return t if t.ndim else float(t)


def map_variable(mapping, t):
    """Return (x, dx/dt) of the mapping at t in (-1, 1)."""
    return mapping.x_of(t), mapping.jacobian(t)


# ---------------------------------------------------------------------------
# problem definition

class KineticMode:
    NONRELATIVISTIC = "nonrelativistic"
    SALPETER = "salpeter"


@dataclass(frozen=True)
class PotentialParams:
    """Dimensionless couplings of the Coulomb-plus-linear problem.

    alpha is the Coulomb strength, s = 1/(2 mu a) the kinetic coefficient.
    In salpeter mode the quark masses am1, am2 are given in units of 1/a and
    the kinetic term becomes the relativistic two-body energy with the rest
    masses subtracted.
    """

    ell: int = 0
    alpha: float = 0.0
    s: float = 1.0
    include_linear: bool = True
    include_coulomb: bool = True
    kinetic_mode: str = KineticMode.NONRELATIVISTIC
    am1: float = 0.0
    am2: float = 0.0

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError("orbital momentum must be nonnegative")
        if self.alpha < 0.0:
            raise ValueError("Coulomb coupling must be nonnegative")
        if self.s <= 0.0:
            raise ValueError("kinetic coefficient s must be positive")
        if self.kinetic_mode not in (KineticMode.NONRELATIVISTIC, KineticMode.SALPETER):
            raise ValueError(f"unknown kinetic mode {self.kinetic_mode!r}")
        if self.kinetic_mode == KineticMode.SALPETER and (self.am1 <= 0.0 or self.am2 <= 0.0):
            raise ValueError("salpeter mode needs positive quark masses")


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


def assemble_potential(params, grid, mapping):
    """Potential matrix V with (V X)_i = the discretized right-hand side.

    The quadrature substitutions (per mesh point tau_i = t_i):

      regular:    dx'                    -> w_j J_j
      pole:       dx'/(x'-x)             -> omega_j(t_i) * J_j (t_j-t_i)/(x_j-x_i)
      log kernel: log|(x'+x)/(x'-x)| dx' -> [w_j log S_ij - Omega_j(t_i)] J_j

    with J_j = dx/dt at t_j and S_ij = (x_j+x_i)|t_j-t_i| / |x_j-x_i| the
    smooth remainder of the log argument (S_ii = 2 x_i / J_i).  For the
    rational mapping these reduce to the classical closed forms
    omega_j(t_i)(1-t_i)/(1-t_j) and 2 sigma [w_j log|1-t_i t_j| -
    Omega_j(t_i)]/(1-t_j)^2.  The derivative of the unknown function is
    eliminated through the differentiation matrix, chi(x_j) =
    (1/J_j) sum_k D_jk X_k, and the x'-derivative of the known factor inside
    the principal value brace is taken analytically.  All diagonal entries
    are finite.
    """
    if not (params.include_linear or params.include_coulomb or params.alpha > 0.0):
        if not params.include_linear and not params.include_coulomb:
            raise ValueError("at least one potential term must be enabled")
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
    p, dp, wl, dwl = _kernel_tables(params.ell, z)

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

    if params.include_linear:
        # log + regular pieces of the linear kernel (absent for ell = 0)
        if params.ell >= 1:
            V += (dp * logw - dwl * regw[None, :]) / (np.pi * x[:, None] ** 2)
        # principal value piece: -(4/pi) PV int {chi + phi d/dx'} F dx'/(x'-x)
        xs = x[:, None] + x[None, :]
        F = x[None, :] ** 2 * p / xs**2
        Fx = (
            p * 2.0 * x[:, None] * x[None, :] / xs**3
            + dp * (x[None, :] ** 2 - x[:, None] ** 2) / (2.0 * x[:, None] * xs**2)
        )
        chi_term = (pvw * F / J[None, :]) @ grid.diff_matrix
        V += -(4.0 / np.pi) * (chi_term + pvw * Fx)

    if params.include_coulomb and params.alpha > 0.0:
        coul = (p * logw - wl * regw[None, :]) * x[None, :]
        V += -(params.alpha / np.pi) * coul / x[:, None]

    return V


def kinetic_diagonal(params, x):
    """Kinetic energy at the mesh momenta for the selected mode."""
    x = np.asarray(x, dtype=float)
    if params.kinetic_mode == KineticMode.NONRELATIVISTIC:
        return params.s * x * x
    m1, m2 = params.am1, params.am2
    return np.sqrt(x * x + m1 * m1) + np.sqrt(x * x + m2 * m2) - (m1 + m2)


def assemble_hamiltonian(V, params, grid, mapping):
    """H = V + K with the kinetic term on the diagonal."""
    if V.shape != (grid.N, grid.N):
        raise ValueError("potential matrix does not match the grid order")
    x = mapping.x_of(grid.nodes)
    return V + np.diag(kinetic_diagonal(params, x))


# ---------------------------------------------------------------------------
# eigenproblem and level selection

def solve_spectrum(H):
    """All eigenvalues and right eigenvectors of the dense Hamiltonian.

    Uses the LAPACK non-symmetric QR driver; deterministic for fixed input.
    """
    try:
        evals, evecs = scipy.linalg.eig(H, check_finite=True)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise RuntimeError(f"eigenvalue solver failed to converge: {exc}") from exc
    return evals, evecs


IMAG_TOL = 1e-8
RESIDUAL_TOL = 1e-8


def spectrum_floor(params):
    """Variational lower bound on physical energies, used to cut spurious roots.

    Dropping the (nonnegative) linear term can only lower the spectrum, and
    the pure Coulomb ground state is -alpha^2/(4 s) in the nonrelativistic
    mode.  In salpeter mode the binding energy cannot drop below minus the
    total rest mass.  Discretization artifacts routinely appear far below
    these bounds.
    """
    if params.kinetic_mode == KineticMode.SALPETER:
        floor = -(params.am1 + params.am2)
    else:
        alpha = params.alpha if params.include_coulomb else 0.0
        floor = -alpha * alpha / (4.0 * params.s)
    return floor - 1e-6 * max(1.0, abs(floor))


def select_bound_states(eigenpairs, H, params, grid, mapping, count):
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

    floor = spectrum_floor(params)
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
            ell=params.ell, n=len(levels), epsilon=lam.real, mesh_values=v,
            residual_norm=resid, imag_part=abs(lam.imag),
        ))
    return levels, len(levels) >= count


def solve_levels(params, N, mapping=None, count=5):
    """Lowest `count` levels: assemble H once, diagonalize, select lazily.

    The PV and log weight tables come from the grid, which builds each once
    per mesh order, so a loop over ell at fixed N reuses them.
    """
    mapping = mapping or Mapping()
    grid = cheb.chebyshev_grid(N)
    V = assemble_potential(params, grid, mapping)
    H = assemble_hamiltonian(V, params, grid, mapping)
    pairs = solve_spectrum(H)
    return select_bound_states(pairs, H, params, grid, mapping, count)


def wavefunction_at(level, grid, mapping, x):
    """Interpolate the mesh wavefunction of a level to an arbitrary x > 0."""
    if x <= 0.0:
        raise ValueError("momentum must be positive")
    t = mapping.t_of(x)
    t = min(max(t, -1.0), 1.0)
    return cheb.interpolate(grid, level.mesh_values, t)


def convergence_scan(params, sigma, N_list, count=5, mapping_kind=MappingKind.RATIONAL):
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
        levels, _ = solve_levels(params, N, mapping, count)
        for lv in levels:
            table[k, lv.n] = lv.epsilon
            resid[k, lv.n] = lv.residual_norm
            imag[k, lv.n] = lv.imag_part
    diffs = np.abs(np.diff(table, axis=0))
    return {"N": list(N_list), "epsilon": table, "residual": resid,
            "imag": imag, "diffs": diffs}
