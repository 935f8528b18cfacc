"""Momentum-space bound-state solver on a mapped Chebyshev mesh.

The semi-infinite momentum axis is mapped onto (-1, 1) by the rational map
x = sigma (1+t)/(1-t), the singular integral equation is enforced exactly at
the Chebyshev nodes, and each integral is replaced by the matching
quadrature rule: plain weights for the regular pieces, the log-kernel rule
for the log|(x'+x)/(x'-x)| pieces, and for the double pole of the linear
kernel a Hadamard finite-part rule in t, with no subtraction and no
derivative of the unknown function.  The final object is a dense real
non-symmetric N x N matrix whose eigenvalues approximate the bound-state
spectrum.  The lowest levels come from shift-invert Arnoldi at the spectrum
floor on the matrix factored in place, certified to select what the whole
spectrum would; dense QR serves small meshes and the rejected solves.

Working units: lengths in a, momenta x = k a, energies eps = E a, where a
is the length scale of the linear term V = -alpha/r + r/a^2.  The kinetic
coefficient is s = 1/(2 mu a).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from . import cheb
from .kernels import _bonnet, legendre_P, w_poly


# ---------------------------------------------------------------------------
# mapping of (0, inf) onto (-1, 1)

def mapped_nodes(t, sigma):
    """Momenta x = sigma (1+t)/(1-t) and Jacobian J = dx/dt = 2 sigma/(1-t)^2 at t."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError("mapping scale must be positive and finite")
    return sigma * (1.0 + t) / (1.0 - t), 2.0 * sigma / (1.0 - t) ** 2


@dataclass(frozen=True)
class BoundLevel:
    """One accepted bound level: quantum numbers, energy and mesh values."""

    ell: int
    n: int
    epsilon: float
    mesh_values: np.ndarray
    imag_part: float   # |Im| of the eigenvalue: 0.0, since every level is real


# ---------------------------------------------------------------------------
# assembly

def assemble_potential(problem, grid, sigma, x, J, rows=slice(None)):
    """Rows `rows` of the potential matrix V, with (V X)_i = the discretized right-hand side.

    x, J = mapped_nodes(grid.nodes, sigma) are the momenta and the Jacobian
    at all mesh points, which the caller computes once per solve; h below
    is formed from sigma itself, in fewer roundings than from J.  `rows` is
    a slice of step 1: solve_levels fills H in cache-sized row blocks, and
    the default, every row, is the whole matrix the tests compare against.
    Each entry takes the same floating-point operations whichever rows are
    asked for.  The quadrature substitutions at mesh point t_i:

      regular:     dx'                      -> w_j J_j
      log kernel:  log|(x'+x)/(x'-x)| dx'   -> [w_j log S_ij - Omega_j(t_i)] J_j
      double pole: FP F phi dx'/(x'-x)^2    -> F_ij h_i [(1-t_j) eta_j(t_i) + omega_j(t_i)] phi_j

    On the rational map (x'+x)/(x'-x) = (1 - t t')/(t'-t), so the smooth
    remainder of the log argument is S_ij = 1 - t_i t_j.  The double pole
    equals PV int (F phi)' dx'/(x'-x); with (t'-t)/(x'-x) = h (1-t'),
    h = (1-t)/(2 sigma), integrating it by parts in t leaves
    h [FP int F phi (1-t')/(t'-t)^2 dt' + PV int F phi/(t'-t) dt'], whose
    boundary terms vanish (F = 0 at x' = 0, the integrand carries 1-t');
    eta and omega are the finite-part and principal value weights.  Both
    bracketed rules are free of sigma: the grid's q0_table and pole_table.
    All diagonal entries are finite.
    """
    ell = problem.ell
    N = grid.N
    i0 = rows.indices(N)[0]
    t = grid.nodes[rows]
    xc = x[rows, None]
    regw = grid.plain_weights * J

    # Each term is formed in place, in the rounding order of its kernel
    # formula, and a buffer is dropped once no later term reads it.
    # P_0 = 1 and w_{-1} = 0, so ell = 0 needs no z.
    if ell >= 1:
        # z = (x^2 + x'^2)/(2 x x') with an exact diagonal, at offset i0 in a block
        z = xc ** 2 + x ** 2
        z /= 2.0 * xc * x
        z.flat[i0::N + 1] = 1.0
        p, dp = legendre_P(ell, z)
        w, dw = w_poly(ell, z)
        del z

    if problem.alpha > 0.0 or (problem.linear and ell >= 1):
        # log|(x'+x)/(x'-x)| weights [w_j log S_ij - Omega_j(t_i)] J_j
        logw = np.multiply(grid.q0_table[rows], J)

    terms = []
    if problem.linear and ell >= 1:
        # log + regular pieces: (P'_ell logw - w'_{ell-1} regw) / (pi x^2)
        dp *= logw
        dw *= regw
        dp -= dw
        dp /= np.pi * xc ** 2
        terms.append(dp)
        del dp, dw
        if problem.alpha == 0.0:
            del logw, w

    if problem.alpha > 0.0:
        # Coulomb: -(alpha/pi) (P_ell logw - w_{ell-1} regw) x' / x, kept
        # back until the double pole, which overwrites P_ell, is added
        coul = logw
        del logw
        if ell >= 1:
            coul *= p
            w *= regw
            coul -= w
            del w
        coul *= x
        coul *= -(problem.alpha / np.pi)
        coul /= xc

    if problem.linear:
        # double pole: -(4/pi) FP int F phi dx'/(x'-x)^2 with the factor
        # F = x'^2 P_ell(z) / (x'+x)^2
        F = np.add(xc, x)
        np.square(F, out=F)
        if ell >= 1:
            p *= x ** 2
            np.divide(p, F, out=F)
            del p
        else:
            np.divide(x ** 2, F, out=F)
        F *= grid.pole_table[rows]
        F *= (-(4.0 / np.pi) * (1.0 - t) / (2.0 * sigma))[:, None]
        terms.append(F)

    if problem.alpha > 0.0:
        terms.append(coul)
    V = terms[0]
    for term in terms[1:]:
        V += term
    return V


def kinetic_diagonal(problem, x):
    """Kinetic energy at the mesh momenta for the selected mode."""
    x = np.asarray(x, dtype=float)
    if problem.kinetic == "nonrelativistic":
        return problem.s * x * x
    am = problem.am
    return 2.0 * np.sqrt(x * x + am * am) - 2.0 * am


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


# Mesh order from which solve_levels asks ARPACK for the levels near the
# spectrum floor before it falls back to the dense QR solver.  Measured on a
# 2-core x86 machine, one BLAS thread, eigensolve alone for 5 levels (k = 7),
# dense vs Arnoldi: with a linear term the two break even near N = 80 (2.9
# vs 3.2 ms linear ell = 0, 3.4 vs 3.4 ms ell = 2) and Arnoldi wins from
# N = 100 (4.7 vs 3.4 ms; 32 vs 7 ms at N = 300); pure Coulomb converges
# slowly and breaks even between N = 200 and 300 (4.0 vs 12 ms at N = 100,
# 12 vs 15 ms at N = 200, 37 vs 25 ms at N = 300).  From N = 100 the dense
# solver also loses high-ell levels that the Arnoldi path keeps (linear
# ell = 10, N = 100: 9e-3 vs 2e-7; ell = 4, N = 300: 3e-3 vs 3e-10), so the
# bound is where Arnoldi wins with a linear term.
ARNOLDI_MIN_N = 100


def solve_spectrum(Hs, scale, shift=None, k=None):
    """Eigenvalues and right eigenvectors of H, from its similar matrix Hs.

    Hs = diag(scale) H diag(scale)^-1 is exact in floating point for powers
    of two (see similarity_scale); the eigenvectors are mapped back to those
    of H.  Both paths are deterministic; the dense one leaves Hs unchanged,
    the Arnoldi one factors it in place.  With the similarity scale the
    eigenvalues carry 1e-13 of rounding, those of H 1e-10 (linear, N = 200).

    Without a shift: all N eigenpairs from the LAPACK non-symmetric QR solver.
    With a shift and k: the k eigenpairs nearest the shift, by ARPACK's
    shift-invert Arnoldi iteration (Lehoucq, Sorensen & Yang, ARPACK Users'
    Guide, SIAM 1998) on an equilibrated LU factorization of Hs - shift,
    from a fixed start vector (a random one moves energies by 5e-14 from run
    to run); None when the shifted matrix is singular or the iteration
    fails, so that the caller can fall back to the dense solver.
    """
    if k is not None:
        pairs = _shift_invert_arnoldi(Hs, shift, k)
        if pairs is None:
            return None
        evals, evecs = pairs
    else:
        try:
            evals, evecs = scipy.linalg.eig(Hs, check_finite=False)
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
            raise RuntimeError(f"eigenvalue solver failed to converge: {exc}") from exc
    evecs /= scale[:, None]
    return evals, evecs


def _power_of_two_inverse(a):
    """1 / (a rounded down to a power of two), exact (2 where a is zero)."""
    return np.ldexp(1.0, 1 - np.frexp(a)[1])


def _abs_max(A, axis):
    """max |A| along axis, from the largest and smallest entries: no |A| copy."""
    return np.maximum(A.max(axis=axis), -A.min(axis=axis))


def _shift_invert_arnoldi(A, shift, k):
    """The k eigenpairs of A nearest the shift, or None if ARPACK cannot deliver.

    A - shift, equilibrated by power-of-two row and column scales, is
    factored in A's own memory, which holds the factors afterwards, also
    when None is returned.  Without the scales, the z^ell growth of the
    kernel corners (max|A| = 1e18 for Coulomb ell = 2 at N = 800) costs
    the factorization, and so the levels, 1e-8 of relative accuracy; with
    them they are within 1e-10 of the exact hydrogen levels there.  The
    normwise backward error of the dense QR solver meets the same corners
    at higher ell, where this iteration is the more accurate of the two.
    """
    N = len(A)
    A.flat[::N + 1] -= shift
    rows = _power_of_two_inverse(_abs_max(A, axis=1))
    A *= rows[:, None]
    cols = _power_of_two_inverse(_abs_max(A, axis=0))
    A *= cols
    with warnings.catch_warnings():
        # lu_factor only warns on an exactly singular factor
        warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
        try:
            # A.T is F-contiguous, so LAPACK factors it in A's own memory;
            # the solves below then use the transposed factors (trans = 1)
            lu = scipy.linalg.lu_factor(A.T, overwrite_a=True, check_finite=False)
        except scipy.linalg.LinAlgWarning:
            return None
    inverse = scipy.sparse.linalg.LinearOperator(
        (N, N), dtype=float,
        matvec=lambda b: cols * scipy.linalg.lu_solve(lu, rows * b, trans=1,
                                                      check_finite=False))
    # with a real shift ARPACK (mode 3) applies the inverse alone; A holds the factors
    shape_only = scipy.sparse.linalg.LinearOperator((N, N), matvec=None, dtype=float)
    try:
        # scipy's default basis, min(N, max(20, 2k + 1)) columns: on the four N = 800
        # benchmark solves 12-40 columns need 197-219 inverse applications, 20 the fewest
        evals, evecs = scipy.sparse.linalg.eigs(
            shape_only, k=k, sigma=shift, OPinv=inverse, v0=np.ones(N))
    except scipy.sparse.linalg.ArpackError:
        return None
    if not (np.all(np.isfinite(evals)) and np.all(np.isfinite(evecs))):
        return None
    return evals, evecs


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


def select_bound_states(eigenpairs, problem, grid, x, J, count):
    """The lowest `count` physical bound levels, indexed and normalized.

    x and J are the mapped momenta and Jacobian at the grid nodes.
    Eigenpairs are visited in stable ascending order of real part, and the
    first `count` that pass three filters are accepted.  (1) The eigenvalue
    must be real: LAPACK and ARPACK return a real eigenvalue of a real matrix
    with an imaginary part of exactly 0, and a nonzero one is a member of a
    conjugate pair.  (2) The real part must lie above the variational floor
    of the physical spectrum and, without a linear term, below the continuum
    threshold 0.  (3) The quadrature density w_j J_j x_j^2 |phi_j|^2 must not
    be concentrated on the extreme mesh points: discretizing the continuum
    produces corner modes pinned to the largest or smallest momenta, while
    genuine bound states decay at both ends.  The filters read the eigenpairs alone.
    Each filter looks at one eigenpair only, so stopping at `count` gives
    the same levels as filtering every eigenpair and sorting the survivors.
    Accepted levels are indexed n = 0, 1, ... and normalized to unit
    momentum-space norm int |phi|^2 x^2 dx = 1 under the mapped plain rule.
    Returns (levels, complete) where complete is False when fewer than
    `count` levels passed the filters.
    """
    evals, evecs = eigenpairs
    density_weights = grid.plain_weights * J * x * x
    corner = max(3, grid.N // 10)

    floor = spectrum_floor(problem)
    levels = []
    for i in np.argsort(evals.real, kind="stable"):
        if len(levels) == count:
            break
        lam = evals[i]
        if lam.imag != 0.0:
            continue
        if lam.real < floor or (not problem.linear and lam.real >= 0.0):
            continue
        v = np.real(evecs[:, i])
        density = density_weights * v * v
        total = density.sum()
        if total <= 0.0:
            continue
        if max(density[:corner].sum(), density[-corner:].sum()) > 0.5 * total:
            continue
        v = v / math.sqrt(total)
        # deterministic sign: largest-magnitude mesh value positive
        if v[np.argmax(np.abs(v))] < 0.0:
            v = -v
        v.setflags(write=False)
        levels.append(BoundLevel(
            ell=problem.ell, n=len(levels), epsilon=lam.real, mesh_values=v,
            imag_part=abs(lam.imag),
        ))
    return levels, len(levels) >= count


def _write_hamiltonian(H, problem, grid, sigma, x, J, scale):
    """Write d H d^-1 into H in row blocks of about 2^15 entries, each formed in cache."""
    N = len(H)
    block = max(1, cheb.BLOCK_ELEMENTS // N)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kinetic = kinetic_diagonal(problem, x)
        unscale = 1.0 / scale   # for powers of two, times 1/d rounds like the division
        for i in range(0, N, block):
            rows = slice(i, i + block)
            V = assemble_potential(problem, grid, sigma, x, J, rows)
            V.flat[i::N + 1] += kinetic[rows]
            Hb = np.multiply(scale[rows, None], V, out=H[rows])
            Hb *= unscale


def solve_levels(problem, N, sigma=1.0, count=5):
    """Lowest `count` levels: write H in row blocks, diagonalize, select lazily.

    sigma is the scale of the rational map (see mapped_nodes); a scale that
    is not positive and finite is a ValueError.  The weight tables come from
    the grid, which builds each once per mesh order, so a loop over ell at
    fixed N reuses them.  The similar matrix d H d^-1 that both eigensolver
    paths take is a solve's one N x N array.  From N = ARNOLDI_MIN_N only
    the count + 2 eigenpairs nearest the spectrum floor are computed, from
    an LU factorization in H's memory; their levels are kept when all
    `count` pass the filters and the top level lies nearer the shift than
    the farthest returned eigenvalue: a level below it is real and in [floor,
    top], so none is missing.  Otherwise, and below that N, H is written
    again if need be and the dense solver takes all its eigenpairs.
    """
    grid = cheb.chebyshev_grid(N)
    scale = similarity_scale(grid)
    H = np.empty((N, N))
    # an overflowing kernel shows up as a non-finite H: one numerical failure
    overflow = RuntimeError("Hamiltonian has non-finite entries: the kernels overflow "
                            "or underflow at this ell or mapping scale sigma")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, J = mapped_nodes(grid.nodes, sigma)
        # z is largest at the corner [0, N-1], where assembly's P_ell makes H non-finite
        # once it overflows: the same recurrence there ends a hopeless ell in <= 201 steps
        z = (x[:1] ** 2 + x[-1:] ** 2) / (2.0 * x[:1] * x[-1:])
        if not all(np.isfinite(p).all() for _, p, _ in _bonnet(problem.ell, z)):
            raise overflow
    _write_hamiltonian(H, problem, grid, sigma, x, J, scale)
    # max and min propagate NaN, so this reads every entry without an N x N mask
    if not math.isfinite(_abs_max(H, axis=None)):
        raise overflow
    if N >= ARNOLDI_MIN_N and 0 < count < N - 3:
        floor = spectrum_floor(problem)
        pairs = solve_spectrum(H, scale, floor, count + 2)
        if pairs is not None:
            levels, complete = select_bound_states(pairs, problem, grid, x, J, count)
            if complete and levels[-1].epsilon - floor < np.abs(pairs[0] - floor).max():
                return levels, complete
        _write_hamiltonian(H, problem, grid, sigma, x, J, scale)   # over the LU factors
    pairs = solve_spectrum(H, scale)
    return select_bound_states(pairs, problem, grid, x, J, count)
