"""Momentum-space bound-state solver on a mapped Chebyshev mesh.

The semi-infinite momentum axis is mapped onto (-1, 1) by the rational map
x = sigma (1+t)/(1-t), the singular integral equation is enforced exactly at
the Chebyshev nodes, and each integral is replaced by the matching
quadrature rule: plain weights for the regular pieces, the log-kernel rule
for the log|(x'+x)/(x'-x)| pieces, and for the double pole of the linear
kernel a Hadamard finite-part rule in t, with no subtraction and no
derivative of the unknown function.  The final object is a dense real
non-symmetric N x N matrix whose eigenvalues approximate the bound-state
spectrum.

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

def _interior(t):
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) >= 1.0):
        raise ValueError("mapping argument must lie strictly inside (-1, 1)")
    return t


def _scalar_or_array(a):
    return a if a.ndim else float(a)


@dataclass(frozen=True)
class Mapping:
    """Rational map x = sigma (1+t)/(1-t) of t in (-1, 1) onto x in (0, inf)."""

    sigma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("mapping scale must be positive and finite")

    def x_of(self, t):
        t = _interior(t)
        return _scalar_or_array(self.sigma * (1.0 + t) / (1.0 - t))

    def jacobian(self, t):
        t = _interior(t)
        return _scalar_or_array(2.0 * self.sigma / (1.0 - t) ** 2)

    def t_of(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValueError("momentum must be positive")
        return _scalar_or_array((x - self.sigma) / (x + self.sigma))


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

    The quadrature substitutions at mesh point t_i, with J_j = dx/dt at t_j:

      regular:     dx'                      -> w_j J_j
      log kernel:  log|(x'+x)/(x'-x)| dx'   -> [w_j log S_ij - Omega_j(t_i)] J_j
      double pole: FP F phi dx'/(x'-x)^2    -> F_ij h_i [(1-t_j) eta_j(t_i) + omega_j(t_i)] phi_j

    On the rational map (x'+x)/(x'-x) = (1 - t t')/(t'-t), so the smooth
    remainder of the log argument is S_ij = 1 - t_i t_j.  The double pole
    equals PV int (F phi)' dx'/(x'-x); with (t'-t)/(x'-x) = h (1-t'),
    h = (1-t)/(2 sigma), integrating it by parts in t leaves
    h [FP int F phi (1-t')/(t'-t)^2 dt' + PV int F phi/(t'-t) dt'], whose
    boundary terms vanish (F = 0 at x' = 0, the integrand carries 1-t');
    eta and omega are the grid's finite-part and principal value tables.
    The kernel values come from the `kernels` formulas that the scalar
    oracle `kernel_pieces` evaluates too.  All diagonal entries are finite.
    """
    t = grid.nodes
    x = mapping.x_of(t)
    J = mapping.jacobian(t)
    regw = grid.plain_weights * J

    # z matrix with an exact diagonal
    z = (x[:, None] ** 2 + x[None, :] ** 2) / (2.0 * x[:, None] * x[None, :])
    np.fill_diagonal(z, 1.0)
    p, dp, wl, dwl = _kernel_tables(problem.ell, z)
    del z

    logw = np.log(1.0 - np.outer(t, t))
    logw *= grid.plain_weights
    logw -= grid.log_table
    logw *= J

    V = np.zeros((grid.N, grid.N))
    if problem.linear:
        # log + regular pieces of the linear kernel (absent for ell = 0)
        if problem.ell >= 1:
            V += kernels.linear_log_regular(x[:, None], dp, dwl, logw, regw)
        # double pole: -(4/pi) FP int F phi dx'/(x'-x)^2
        pole = grid.fp_table * (1.0 - t)
        pole += grid.pv_table
        pole *= kernels.pv_factor(x[:, None], x[None, :], p)
        pole *= (-(4.0 / np.pi) * (1.0 - t) / (2.0 * mapping.sigma))[:, None]
        V += pole

    if problem.alpha > 0.0:
        V += kernels.coulomb_log_regular(problem.alpha, x[:, None], x[None, :],
                                         p, wl, logw, regw)

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

def similarity_scale(grid):
    """Powers of two d_j proportional to sqrt(w_j J_j x_j^2) up to rounding.

    The discretized operator is nearly self-adjoint in the quadrature inner
    product sum_j w_j J_j x_j^2 f_j g_j, so d H d^-1 is nearly symmetric.  On
    the rational map w J x^2 = 2 sigma^3 w (1+t)^2/(1-t)^4; the constant is
    dropped, so the scale depends on the grid alone.
    """
    t = grid.nodes
    return np.exp2(np.round(np.log2(np.sqrt(grid.plain_weights) * (1.0 + t) / (1.0 - t) ** 2)))


def solve_spectrum(H, scale):
    """All eigenvalues and right eigenvectors of the dense Hamiltonian.

    Uses the LAPACK non-symmetric QR driver on the similar matrix
    diag(scale) H diag(scale)^-1, exact in floating point for powers of two
    (see similarity_scale), and maps its eigenvectors back; deterministic for
    fixed input.  With the similarity scale the eigenvalues carry about 1e-13
    of rounding where those of H carry 1e-10 (linear ell = 0, N = 200).  A
    matrix with an infinite or NaN entry, which an extreme mapping scale or
    a high ell overflows to, is a numerical failure (RuntimeError).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        H = scale[:, None] * H / scale
    if not np.all(np.isfinite(H)):
        raise RuntimeError("Hamiltonian has non-finite entries: the kernels overflow "
                           "or underflow at this ell or mapping scale sigma")
    try:
        evals, evecs = scipy.linalg.eig(H, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise RuntimeError(f"eigenvalue solver failed to converge: {exc}") from exc
    evecs /= scale[:, None]
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
    # an overflowing kernel shows up as a non-finite H, which solve_spectrum
    # reports as one numerical failure
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        V = assemble_potential(problem, grid, mapping)
        H = assemble_hamiltonian(V, problem, grid, mapping)
    pairs = solve_spectrum(H, similarity_scale(grid))
    return select_bound_states(pairs, H, problem, grid, mapping, count)


def wavefunction_at(level, grid, mapping, x):
    """Interpolate the mesh wavefunction of a level to an arbitrary x > 0."""
    if x <= 0.0:
        raise ValueError("momentum must be positive")
    t = mapping.t_of(x)
    t = min(max(t, -1.0), 1.0)
    return cheb.interpolate(grid, level.mesh_values, t)


def convergence_scan(problem, sigma, N_list, count=5):
    """Energies of the lowest levels at each N, with successive differences.

    Returns a dict: {"N": [...], "epsilon", "residual", "imag": arrays
    (len(N_list), count) of each level's BoundLevel fields, "diffs": array
    (len(N_list)-1, count)} where diffs[k] = |eps(N_{k+1}) - eps(N_k)| per
    level.  Levels missing at some N appear as NaN.
    """
    if list(N_list) != sorted(N_list):
        raise ValueError("N_list must be increasing")
    mapping = Mapping(sigma=sigma)
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
