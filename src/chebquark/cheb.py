"""Chebyshev mesh and its quadrature rules.

Everything here lives on the standard interval (-1, 1) and uses the zeros of
T_N (Chebyshev points of the first kind), so no mesh point ever touches an
endpoint.  Besides the plain Gauss-Chebyshev rule with unit weight function,
three singular rules are provided:

* a Cauchy principal value rule for integrals of f(t)/(t - tau),
* a Hadamard finite-part rule for integrals of f(t)/(t - tau)^2, the
  tau-derivative of the principal value rule, tabulated at the mesh points,
* a weakly singular rule for integrals of f(t) log|t - tau|.

All four rules are interpolatory, exact for polynomials of degree < N.  The
PV and finite-part tables at the mesh points have closed forms (see
pv_weight_table); the log weights and the PV weights at one point are a
DCT-III of Chebyshev moments from recurrences bounded on [-1, 1].
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
import scipy.fft

# Entries per row block of the N x N builds here and in momentum.solve_levels:
# the buffers of a block stay in cache.
BLOCK_ELEMENTS = 1 << 15


def _plain_moments(nmax):
    """Moments mu_n = int_{-1}^{1} T_n(t) dt for n = 0..nmax-1."""
    n = np.arange(nmax)
    mu = np.zeros(nmax)
    even = n % 2 == 0
    mu[even] = 2.0 / (1.0 - n[even].astype(float) ** 2)
    return mu


class ChebGrid:
    """Chebyshev mesh of order N with all derived tables cached immutably.

    Nodes are the N zeros of T_N in decreasing order,
    t_i = cos(pi (i + 1/2) / N) for i = 0..N-1 (0-based).
    """

    def __init__(self, N):
        if N < 2:
            raise ValueError(f"grid order must be >= 2, got {N}")
        self.N = int(N)
        self.nodes = np.cos(np.pi * (np.arange(self.N) + 0.5) / self.N)
        self.nodes.setflags(write=False)

    @cached_property
    def plain_weights(self):
        """Unit-weight quadrature weights w_i (positive, summing to 2)."""
        return _read_only(_cardinal_weights(_plain_moments(self.N)))

    @cached_property
    def q0_table(self):
        """Rule Q[i, j] = w_j log(1 - t_i t_j) - Omega_j(t_i) for log|(1 - t_i t)/(t - t_i)|."""
        t = self.nodes
        Q = np.multiply(t[:, None], t)
        np.subtract(1.0, Q, out=Q)
        np.log(Q, out=Q)
        Q *= self.plain_weights
        Q -= log_weight_table(self)
        return _read_only(Q)

    @cached_property
    def pole_table(self):
        """Double-pole rule (1 - t_j) eta_j(t_i) + omega_j(t_i), by parts (see momentum)."""
        W, eta = pv_weight_table(self)
        eta *= 1.0 - self.nodes
        eta += W
        return _read_only(eta)

    def __repr__(self):
        return f"ChebGrid(N={self.N})"


def _read_only(a):
    a.setflags(write=False)
    return a


def _cardinal_weights(moments):
    """Weights sum_n moments[n, ...] C[n, j] of the cardinal functions G_j.

    With C[n, j] = (2/N) cos(n theta_j), first row halved, this is a DCT-III
    along n, O(N^2 log N) for a table instead of the O(N^3) product with C.
    A moment table of shape (N, M) gives C-contiguous weights of shape
    (M, N), one row per point; one moment vector gives one weight vector.
    """
    W = scipy.fft.dct(moments.T, type=3, axis=-1)
    W /= moments.shape[0]
    return W


@lru_cache(maxsize=64)
def chebyshev_grid(N):
    """Shared, immutable grid of order N (tables are computed once)."""
    return ChebGrid(N)


def _recurrence(tau, nmax, y0, y1, source=None):
    """Rows n < nmax of y_{n+1} = 2 tau y_n - y_{n-1} (+ source[n]); y0 = 1, y1 = tau give T_n.

    Rows are written in place, as views also when tau is a scalar.
    """
    tau = np.asarray(tau, dtype=float)
    y = np.empty((nmax,) + tau.shape)
    y[0] = y0
    if nmax > 1:
        y[1] = y1
    tau2 = 2.0 * tau
    for n in range(1, nmax - 1):
        np.multiply(tau2, y[n], out=y[n + 1, ...])
        y[n + 1, ...] -= y[n - 1]
        if source is not None:
            y[n + 1, ...] += source[n]
    return y


def _pv_g_moments(tau, nmax):
    """Smooth parts g_n of the PV moments, n = 0..nmax-1.

    rho_n(tau) = PV int T_n(t)/(t - tau) dt = T_n(tau) log((1-tau)/(1+tau))
    + g_n(tau), g_0 = 0, g_1 = 2, g_{n+1} = 2 tau g_n - g_{n-1} + 2 mu_n:
    polynomials, valid on the closed interval, growing at most linearly in n.
    """
    return _recurrence(tau, nmax, 0.0, 2.0, 2.0 * _plain_moments(max(nmax, 2)))


def _pv_moments(tau, nmax):
    """PV moments rho_n(tau) = PV int T_n(t)/(t - tau) dt, |tau| < 1."""
    rho = _recurrence(tau, nmax, 1.0, tau)
    rho *= np.log((1.0 - tau) / (1.0 + tau))
    rho += _pv_g_moments(tau, nmax)
    return rho


def _log_moments(tau, nmax):
    """Log-kernel moments Lambda_n(tau) = int T_n(t) log|t - tau| dt.

    Built by integrating by parts against the PV moments.  With the
    antiderivative A_n of T_n the boundary and PV contributions combine to

        Lambda_n = (A_n(1) - A_n(tau)) log(1 - tau)
                 + (A_n(tau) - A_n(-1)) log(1 + tau)
                 - int (A_n(t) - A_n(tau))/(t - tau) dt,

    where each log coefficient vanishes at the matching endpoint, so the
    formula is finite on the whole closed interval (0 * log 0 = 0).  For
    n >= 2, A_n = (T_{n+1}/(n+1) - T_{n-1}/(n-1))/2, and the PV integral is
    the same combination of the g moments; both are formed for all n at
    once, in the buffers of the T and g tables.
    """
    tau = np.asarray(tau, dtype=float)
    one_m = 1.0 - tau
    one_p = 1.0 + tau
    # guarded logs: where 1 -+ tau == 0 the prefactor is exactly zero
    log_m = np.where(one_m > 0.0, np.log(np.where(one_m > 0.0, one_m, 1.0)), 0.0)
    log_p = np.where(one_p > 0.0, np.log(np.where(one_p > 0.0, one_p, 1.0)), 0.0)

    T = _recurrence(tau, nmax + 1, 1.0, tau)
    lam = np.empty((nmax,) + tau.shape)
    # n = 0: closed form, finite at the endpoints
    lam[0] = one_m * log_m + one_p * log_p - 2.0
    if nmax > 1:
        # n = 1: A_1 = t^2/2 = (T_2 + 1)/4, A_1(+-1) = 1/2
        a1 = 0.25 * (T[2] + 1.0)
        lam[1] = (0.5 - a1) * log_m + (a1 - 0.5) * log_p - tau
    if nmax <= 2:
        return lam
    # n = 2..nmax-1 as a column, k = 1..nmax as the divisors of T_k and g_k.
    # The g table is built once the T table is released: three tables are
    # live only for the last, unbroadcast steps, which take no buffers.
    n = np.arange(2.0, nmax).reshape((-1,) + (1,) * tau.ndim)
    k = np.arange(1.0, nmax + 1).reshape((-1,) + (1,) * tau.ndim)
    an_hi = -1.0 / (n * n - 1.0)
    an_lo = (-1.0) ** n / (n * n - 1.0)
    T[1:] /= k
    an = lam[2:]
    np.subtract(T[3:], T[1:-2], out=an)
    an *= 0.5
    piece = T[:-3]
    np.subtract(an, an_lo, out=piece)
    piece *= log_p
    np.subtract(an_hi, an, out=an)
    an *= log_m
    an += piece
    del T, piece
    g = _pv_g_moments(tau, nmax + 1)
    g[1:] /= k
    reg = np.subtract(g[3:], g[1:-2])
    reg *= 0.5
    an -= reg
    return lam


def weights_cauchy(grid, tau):
    """Weights omega_i(tau) with sum_i omega_i(tau) f(t_i) = PV int f(t)/(t-tau) dt.

    Exact for polynomial f of degree < N.  Undefined at tau = +-1, where the
    principal value integral itself does not exist.
    """
    tau = float(tau)
    if not -1.0 < tau < 1.0:
        raise ValueError(f"principal value point must lie strictly inside (-1, 1), got {tau}")
    return _cardinal_weights(_pv_moments(np.float64(tau), grid.N))


def weights_log(grid, tau):
    """Weights Omega_i(tau) with sum_i Omega_i(tau) f(t_i) = int f(t) log|t-tau| dt.

    Exact for polynomial f of degree < N; the endpoints tau = +-1 are allowed
    because the log singularity is integrable there.
    """
    tau = float(tau)
    if not -1.0 <= tau <= 1.0:
        raise ValueError(f"log-kernel point must lie in [-1, 1], got {tau}")
    return _cardinal_weights(_log_moments(np.float64(tau), grid.N))


def pv_weight_table(grid):
    """PV and finite-part weights at every mesh point, in closed form.

    Returns (W, eta) with W[i, j] = omega_j(t_i) and eta[i, j] = eta_j(t_i) =
    d omega_j/d tau at t_i, so sum_j eta_j(tau) f(t_j) = FP int f(t)/(t-tau)^2 dt.
    With l_j the cardinal functions and L(tau) = log((1-tau)/(1+tau)) =
    PV int dt/(t-tau), omega_j - l_j L is a polynomial of degree N - 2, which
    the plain rule integrates exactly.  So with c_ij = 1/(t_i - t_j),
    D_ij = l_j'(t_i) = (q_j/q_i) c_ij and q_i = (-1)^i sin theta_i, for i != j

        W_ij = w_i D_ij - w_j c_ij,        eta_ij = W_ii D_ij - W_ij c_ij,

    W_ii = L(t_i) + w_i t_i/(2 sin^2 theta_i) + sum_k w_k c_ik, and eta_ii is
    -2/sin^2 theta_i minus the rest of row i, since sum_j eta_j = L' (the
    negative sum trick of Baltensperger & Trummer, SIAM J. Sci. Comput. 24
    (2003) 1465).  L(t_i) and 1 - t_i^2 come from theta_i, accurate near
    the ends.  O(N^2), in cache-sized blocks of rows; the moment and DCT-III
    build it replaced is the test oracle tests/assembly_oracle.pv_weight_table.
    """
    N = grid.N
    t, w = grid.nodes, grid.plain_weights
    theta = np.pi * (np.arange(N) + 0.5) / N
    q = np.sin(theta) * (-1.0) ** np.arange(N)
    W_diag = 2.0 * np.log(np.tan(0.5 * theta)) + w * t / (2.0 * q * q)
    eta_diag = -2.0 / (q * q)
    W, eta = np.empty((N, N)), np.empty((N, N))
    rows = max(1, BLOCK_ELEMENTS // N)
    for i in range(0, N, rows):
        b = slice(i, i + rows)
        c = np.subtract.outer(t[b], t)
        c.flat[i::N + 1] = np.inf    # so that c_ii = 0
        np.reciprocal(c, out=c)
        Wb = np.multiply.outer(w[b] / q[b], q, out=W[b])
        Wb -= w
        Wb *= c
        W_diag[b] += c @ w
        eta_b = np.multiply.outer(W_diag[b] / q[b], q, out=eta[b])
        eta_b -= Wb
        eta_b *= c
        eta_diag[b] -= eta_b.sum(axis=1)
    W.flat[::N + 1] = W_diag
    eta.flat[::N + 1] = eta_diag
    return W, eta


def log_weight_table(grid):
    """Matrix W with W[i, j] = Omega_j(t_i): log weights at every mesh point."""
    return _cardinal_weights(_log_moments(grid.nodes, grid.N))
