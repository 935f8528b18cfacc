"""Momentum-space bound-state solver on a mapped Chebyshev mesh.

The semi-infinite momentum axis is mapped onto (-1, 1) by the rational map
x = sigma (1+t)/(1-t), the singular integral equation is enforced exactly at
the Chebyshev nodes, and each integral is replaced by the matching
quadrature rule: plain weights for the regular pieces, the log-kernel rule
for the log|(x'+x)/(x'-x)| pieces, and for the double pole of the linear
kernel a Hadamard finite-part rule in t, with no subtraction and no
derivative of the unknown function.  The final object is a dense real
non-symmetric N x N matrix whose eigenvalues approximate the bound-state
spectrum.  Dense QR serves small meshes; from ARNOLDI_MIN_N on the lowest
levels come from shift-invert Arnoldi near the spectrum floor on the matrix
factored in place, and only the levels certified to be the ones the whole
spectrum would give are returned.

Working units: those of `kernels.Problem` in and out, but a solve runs in the
wave's `Problem.natural_units`, so every energy it judges is of order one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
    """One accepted bound level: quantum numbers, energy (a real eigenvalue) and mesh values."""

    ell: int
    n: int
    epsilon: float
    mesh_values: np.ndarray


# ---------------------------------------------------------------------------
# assembly

def assemble_potential(problem, grid, sigma, x, J, rows=slice(None), pole=None):
    """Rows `rows` of the potential matrix V, with (V X)_i = the discretized right-hand side.

    x, J = mapped_nodes(grid.nodes, sigma) are the momenta and the Jacobian
    at all mesh points, which the caller computes once per solve; h below
    is formed from sigma itself, in fewer roundings than from J.  `rows` is
    a slice of step 1: solve_levels fills H in cache-sized row blocks, and
    the default, every row, is the whole matrix the tests compare against.
    Each entry takes the same floating-point operations whichever rows are
    asked for; a linear term reads `pole`, those rows of the double-pole rule
    cheb.pv_weight_table(grid, pole=True).  The substitutions at mesh point t_i:

      regular:     dx'                      -> w_j J_j
      log kernel:  log|(x'+x)/(x'-x)| dx'   -> [w_j log S_ij - Omega_j(t_i)] J_j
      double pole: FP F phi dx'/(x'-x)^2    -> F_ij h_i [(1-t_j) eta_j(t_i) + omega_j(t_i)] phi_j

    On the rational map (x'+x)/(x'-x) = (1 - t t')/(t'-t), so the smooth
    remainder of the log argument is S_ij = 1 - t_i t_j.  The double pole
    equals PV int (F phi)' dx'/(x'-x); with (t'-t)/(x'-x) = h (1-t'),
    h = (1-t)/(2 sigma), integrating it by parts in t leaves
    h [FP int F phi (1-t')/(t'-t)^2 dt' + PV int F phi/(t'-t) dt'], whose
    boundary terms vanish (F = 0 at x' = 0, the integrand carries 1-t');
    eta and omega are the finite-part and principal value weights.  The 1-t'
    stays inside the finite part because the rule (1-t_i) eta_ij, which agrees
    on degree <= N - 2, left table 3's Cornell ell = 2, n = 2 levels at N = 80
    12-75 times farther from the radial solver (6e-11 and 4.8e-10).  Both
    bracketed rules are free of sigma: the grid's q0_table and `pole`.
    All diagonal entries are finite.
    """
    ell = problem.ell
    N = grid.N
    i0, i1, _ = rows.indices(N)
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
        top, bottom = grid.q0_rows(i0, i1)
        logw = np.empty((i1 - i0, N))
        np.multiply(top, J, out=logw[:len(top)])
        np.multiply(bottom, J, out=logw[len(top):])

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
        F *= pole
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
    dropped, so the scale depends on the grid alone.  Without it (one BLAS
    thread, against the exact levels) Coulomb ell = 2 at N = 300-800 is 1e-5
    off instead of 2e-11, Coulomb ell = 3 there loses its certificate, and
    dense linear ell = 10 at N = 80 (sigma 1) is 0.72 off instead of 6.7e-5.
    """
    t = grid.nodes
    return np.exp2(np.round(np.log2(np.sqrt(grid.plain_weights) * (1.0 + t) / (1.0 - t) ** 2)))


# Mesh order from which solve_spectrum takes the levels near the spectrum
# floor from ARPACK alone instead of the dense QR solver.  Measured on a
# 2-core x86 machine, one BLAS thread, eigensolve alone for 5 levels (k = 7),
# dense vs Arnoldi in ms at N = 80 / 100 / 200 / 300: linear ell = 0 and 2
# (sigma 1) break even near N = 80 (1.5-2.5 vs 1.4-2.3, 2.6-4.3 vs 1.6-2.3,
# 9-13 vs 2.1-2.4, 22-26 vs 3.4); pure Coulomb (sigma 0.5, shifted at its own
# floor) near 200 at ell = 0 (1.2 vs 4.7, 2.0 vs 5.2, 7.5 vs 7.4, 20 vs 10)
# and near 100 at ell = 2 (1.2 vs 2.3, 2.0 vs 2.6, 7.5 vs 3.8, 21 vs 5.1).
# From N = 100 the dense solver also loses high-ell levels that the Arnoldi
# path keeps (linear ell = 10, N = 100: 7.5e-5 vs 5e-8; ell = 4, N = 300:
# 7.7e-5 vs 1.4e-11), so the bound is where Arnoldi wins with a linear term.
ARNOLDI_MIN_N = 100


def solve_spectrum(Hs, scale, shift, k):
    """Eigenvalues and right eigenvectors of H, from its similar matrix Hs.

    Hs = diag(scale) H diag(scale)^-1 is exact in floating point for powers
    of two (see similarity_scale); the eigenvectors are mapped back to those
    of H.  The mesh order N = len(Hs) alone picks the eigensolver, and both
    are deterministic.  With the similarity scale the eigenvalues carry 1e-13
    of rounding, those of H 1e-10 (linear, N = 200).

    Below ARNOLDI_MIN_N, shift and k are ignored: all N eigenpairs from
    LAPACK's non-symmetric QR solver geev through numpy.linalg.eig, which
    leaves Hs unchanged, raises LinAlgError when it does not converge and
    returns real arrays when every eigenvalue is real.  From ARNOLDI_MIN_N on: the
    certified ones of the k eigenpairs nearest the shift, or None, from
    _shift_invert_arnoldi, which factors Hs in place.
    """
    pairs = np.linalg.eig(Hs) if len(Hs) < ARNOLDI_MIN_N else _shift_invert_arnoldi(Hs, shift, k)
    if pairs is None:
        return None
    evals, evecs = pairs
    evecs /= scale[:, None]
    return evals, evecs


def _power_of_two_inverse(a):
    """1 / (a rounded down to a power of two), exact (2 where a is zero)."""
    return np.ldexp(1.0, 1 - np.frexp(a)[1])


def _abs_max(A, axis):
    """max |A| along axis, from the largest and smallest entries: no |A| copy."""
    return np.maximum(A.max(axis=axis), -A.min(axis=axis))


def _shift_invert_arnoldi(A, shift, k):
    """The certified ones of the k eigenpairs of A nearest the shift, or None if none can be had.

    ARPACK's shift-invert Arnoldi iteration (Lehoucq, Sorensen & Yang, ARPACK
    Users' Guide, SIAM 1998) runs from a fixed start vector (a random one
    moves energies by 5e-14 from run to run), and that one run decides the
    wave.  A returned pair is certified when it lies nearer the shift than
    the farthest returned eigenvalue: every eigenvalue in [shift, level] is
    then returned, so a level's n is certified and `complete` means on this
    path what it means on the dense one.  ARPACK needs k < N - 1.
    A - shift, equilibrated by power-of-two row and column scales, is
    factored in A's own memory, which holds the factors afterwards.  The
    scales undo the z^ell growth of the kernel corners (max|A| = 1e30 for
    Coulomb ell = 3 at N = 800), and both are needed.  Partial pivoting on
    A.T is blind to power-of-two row scales of A, so rows alone factor as no
    scaling does: Coulomb ell = 3 at N = 800 is 8e-5 off and refused, and
    linear ell >= 7 at N = 300 is refused.  Columns alone are 13-180 times
    less accurate at Coulomb ell = 3-4, N = 300, and up to 61 times at linear
    ell = 4-12.  The normwise backward error of the dense QR solver meets the
    same corners at higher ell, where this iteration is the more accurate.
    None when getrf reports info != 0 (info > 0: an exactly zero pivot, so
    A - shift is singular), when ARPACK raises, or when a pair is not finite.
    The one scipy user, so only a solve from ARNOLDI_MIN_N on loads scipy.
    """
    import scipy.linalg
    import scipy.sparse.linalg

    N = len(A)
    A.flat[::N + 1] -= shift
    rows, cols = np.empty(N), np.zeros(N)
    # row maxima, row scaling and column maxima in one pass of cache-sized row blocks
    for b in cheb.row_blocks(N, N):
        rows[b] = _power_of_two_inverse(_abs_max(A[b], axis=1))
        A[b] *= rows[b, None]
        np.maximum(cols, _abs_max(A[b], axis=0), out=cols)
    cols = _power_of_two_inverse(cols)
    A *= cols
    # lu_factor's and lu_solve's LAPACK calls without their checks: A.T is F-contiguous, so
    # getrf factors it in A's own memory, and the solves use the transposed factors (trans = 1)
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (A,))
    lu, piv, info = getrf(A.T, overwrite_a=True)
    if info != 0:
        return None
    inverse = scipy.sparse.linalg.LinearOperator(
        (N, N), dtype=float,
        matvec=lambda b: cols * getrs(lu, piv, rows * b, trans=1, overwrite_b=True)[0])
    try:
        # ARPACK's regular mode on the inverse (mu = 1/(lambda - shift)) is its shift-invert mode;
        # scipy's default basis, min(N, max(20, 2k + 1)) columns: the four N = 800 benchmark
        # solves take 46-52 inverse applications each with it, 197 in all; the even sizes
        # 12-40 take 35-69 each and 195-224 in all, and none is the fewest on all four
        mu, evecs = scipy.sparse.linalg.eigs(inverse, k=k, v0=np.ones(N))
    except scipy.sparse.linalg.ArpackError:
        return None
    evals = shift + 1.0 / mu
    if not (np.all(np.isfinite(evals)) and np.all(np.isfinite(evecs))):
        return None
    distance = np.abs(evals - shift)
    inside = distance < distance.max()
    return evals[inside], evecs[:, inside]


def spectrum_floor(problem):
    """Variational lower bound on physical energies, less a slack of 1e-6 max(1, |floor|).

    Dropping the (nonnegative) linear term lowers the spectrum to the Coulomb
    term's, whose lowest level in this wave is `coulomb_level(0)`; in salpeter
    mode the binding energy cannot drop below minus the rest mass, -2 am.
    """
    floor = -2.0 * problem.am if problem.kinetic == "salpeter" else problem.coulomb_level(0)
    return floor - 1e-6 * max(1.0, abs(floor))


def select_bound_states(eigenpairs, problem, grid, x, J, count):
    """The lowest `count` physical bound levels, indexed and normalized.

    x and J are the mapped momenta and Jacobian at the grid nodes.
    Eigenpairs are visited in stable ascending order of real part, and the
    first `count` that pass three filters are accepted.  (1) The eigenvalue
    must be real: LAPACK and ARPACK return a real eigenvalue of a real matrix
    with an imaginary part of exactly 0, and a nonzero one is a member of a
    conjugate pair.  (2) The real part must lie above `spectrum_floor`, the
    lowest Coulomb level of this partial wave (minus the rest mass in
    salpeter mode), and, without a linear term, below the continuum
    threshold 0.  (3) The quadrature density w_j J_j x_j^2 |phi_j|^2 must not
    be concentrated on the extreme mesh points: discretizing the continuum
    produces corner modes pinned to the largest or smallest momenta, while
    genuine bound states decay at both ends.
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
        levels.append(BoundLevel(ell=problem.ell, n=len(levels), epsilon=lam.real,
                                 mesh_values=v))
    return levels, len(levels) >= count


def solve_levels(problem, N, sigma=None, count=5):
    """Lowest `count` levels: write H in row blocks, diagonalize, select lazily.

    sigma scales the rational map of mapped_nodes, `problem.momentum_unit`
    by default; one that is not positive and finite is a ValueError, as is,
    before any grid, a count outside 1..N - 4.  H is that of
    `problem.natural_units()`'s unit problem mapped at sigma times its
    length, and levels come back as eps = energy * eps', phi = length^1.5 phi'.
    The similar matrix d H d^-1 is written once, in cheb.row_blocks formed in
    cache, and is a solve's one N x N array.  solve_spectrum takes it with a
    shift at or below the spectrum floor and k = count + 2 (ARPACK needs
    k < N - 1), and the lowest of the pairs it returns are selected, so
    `complete` has one meaning for either eigensolver; a refused run gives none.
    """
    if not 1 <= count <= N - 4:
        raise ValueError(f"count must be from 1 to N - 4 = {N - 4}, got {count}")
    length, energy, unit = problem.natural_units()
    sigma = problem.momentum_unit if sigma is None else sigma
    # a kernel overflowing to a non-finite H, or a natural sigma: one numerical failure
    overflow = RuntimeError("Hamiltonian has non-finite entries: the kernels overflow "
                            "or underflow at this ell or mapping scale sigma")
    if 0.0 < sigma < math.inf and not 0.0 < sigma * length < math.inf:
        raise overflow
    sigma *= length
    grid = cheb.chebyshev_grid(N)
    scale = similarity_scale(grid)
    H = np.empty((N, N))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, J = mapped_nodes(grid.nodes, sigma)
        # z is largest at the corner [0, N-1], where assembly's P_ell makes H non-finite
        # once it overflows: the same recurrence there ends a hopeless ell in <= 201 steps
        z = (x[:1] ** 2 + x[-1:] ** 2) / (2.0 * x[:1] * x[-1:])
        if not all(np.isfinite(p).all() for _, p, _ in _bonnet(unit.ell, z)):
            raise overflow
        kinetic = kinetic_diagonal(unit, x)
        unscale = 1.0 / scale   # for powers of two, times 1/d rounds like the division
        if unit.linear:    # the double-pole rule, whose rows each block reads before it writes them
            cheb.pv_weight_table(grid, pole=True, out=H)
        for rows in cheb.row_blocks(N, N):
            V = assemble_potential(unit, grid, sigma, x, J, rows, H[rows])
            V.flat[rows.start::N + 1] += kinetic[rows]
            Hb = np.multiply(scale[rows, None], V, out=H[rows])
            Hb *= unscale
            # max and min propagate NaN, so this reads every entry without a mask
            if not math.isfinite(_abs_max(Hb, axis=None)):
                raise overflow
    # with a linear term the lower s-wave floor: from ell = 5 on the factors are numerically
    # singular, and at the wave's own Cornell ell 7, s 0.1, N 300 gave n 0 3.2451, not 3.3972
    shift = spectrum_floor(replace(unit, ell=0) if unit.linear else unit)
    pairs = solve_spectrum(H, scale, shift, count + 2)
    if pairs is None:
        return [], False
    levels, complete = select_bound_states(pairs, unit, grid, x, J, count)
    return [replace(lv, epsilon=energy * lv.epsilon, mesh_values=lv.mesh_values * length ** 1.5)
            for lv in levels], complete
