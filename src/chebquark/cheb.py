"""Chebyshev mesh and its quadrature rules.

Everything here lives on the standard interval (-1, 1) and uses the zeros of
T_N (Chebyshev points of the first kind), so no mesh point ever touches an
endpoint.  Besides the plain Gauss-Chebyshev rule with unit weight function,
three singular rules are provided:

* a Cauchy principal value rule for integrals of f(t)/(t - tau),
* a Hadamard finite-part rule for integrals of f(t)/(t - tau)^2, the
  tau-derivative of the principal value rule, tabulated at the mesh points,
* a weakly singular rule for integrals of f(t) log|t - tau|.

All four rules are interpolatory: they integrate the degree-(N-1)
interpolant exactly, so they are exact for polynomials of degree < N.  The
principal value and log weights are built from Chebyshev moments of the
singular kernels, obtained by three-term recurrences that stay bounded on
[-1, 1].
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
import scipy.fft


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
    def _pv_tables(self):
        """The PV and finite-part tables, built from one set of PV moments."""
        return tuple(_read_only(table) for table in pv_weight_table(self))

    @property
    def pv_table(self):
        """PV weights at every node, W[i, j] = omega_j(t_i) (see pv_weight_table)."""
        return self._pv_tables[0]

    @property
    def fp_table(self):
        """Finite-part weights at every node, eta_j(t_i) (see pv_weight_table)."""
        return self._pv_tables[1]

    @cached_property
    def log_table(self):
        """Log weights at every node, W[i, j] = Omega_j(t_i) (see log_weight_table)."""
        return _read_only(log_weight_table(self))

    def __repr__(self):
        return f"ChebGrid(N={self.N})"


def _read_only(a):
    a.setflags(write=False)
    return a


def _cardinal_weights(moments):
    """Weights sum_n moments[n, ...] C[n, j] of the cardinal functions G_j.

    With C[n, j] = (2/N) cos(n theta_j), first row halved, this is a DCT-III
    along n, O(N^2 log N) for a table instead of the O(N^3) product with C.
    A moment table of shape (N, M) gives weights of shape (M, N), one row per
    point, stored C-contiguous like every matrix the solver combines them
    with; one moment vector gives one weight vector.
    """
    W = scipy.fft.dct(moments.T, type=3, axis=-1)
    W /= moments.shape[0]
    return W


@lru_cache(maxsize=64)
def chebyshev_grid(N):
    """Shared, immutable grid of order N (tables are computed once)."""
    return ChebGrid(N)


def _pv_g_moments(tau, nmax):
    """Smooth parts g_n of the PV moments, n = 0..nmax-1.

    rho_n(tau) = PV int T_n(t)/(t - tau) dt splits as
    T_n(tau) log((1-tau)/(1+tau)) + g_n(tau) with g_n polynomial in tau:
    g_0 = 0, g_1 = 2, g_{n+1} = 2 tau g_n - g_{n-1} + 2 mu_n.
    Valid on the whole closed interval; |g_n| grows at most linearly in n.
    """
    tau = np.asarray(tau, dtype=float)
    mu = _plain_moments(max(nmax, 2))
    g = np.zeros((nmax,) + tau.shape)
    if nmax > 1:
        g[1] = 2.0
    tau2 = 2.0 * tau
    # g[n, ...] is a view of row n also when tau is a scalar
    for n in range(1, nmax - 1):
        np.multiply(tau2, g[n], out=g[n + 1, ...])
        g[n + 1, ...] -= g[n - 1]
        g[n + 1, ...] += 2.0 * mu[n]
    return g


def _chebyshev_T_table(tau, nmax):
    """T_n(tau) for n = 0..nmax-1, tau scalar or array."""
    tau = np.asarray(tau, dtype=float)
    T = np.empty((nmax,) + tau.shape)
    T[0] = 1.0
    if nmax > 1:
        T[1] = tau
    tau2 = 2.0 * tau
    for n in range(1, nmax - 1):
        np.multiply(tau2, T[n], out=T[n + 1, ...])
        T[n + 1, ...] -= T[n - 1]
    return T


def _pv_moments(tau, nmax):
    """PV moments rho_n(tau) = PV int T_n(t)/(t - tau) dt, |tau| < 1."""
    tau = np.asarray(tau, dtype=float)
    rho = _chebyshev_T_table(tau, nmax)
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

    T = _chebyshev_T_table(tau, nmax + 1)
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
    """PV and finite-part weights at every mesh point, from one set of PV moments.

    Returns (W, eta) with W[i, j] = omega_j(t_i) and eta[i, j] = eta_j(t_i) =
    d omega_j/d tau at tau = t_i, so that sum_j eta_j(tau) f(t_j) =
    FP int f(t)/(t - tau)^2 dt.  Integrating the finite part by parts gives
    the moments of eta,

        FP int T_n(t)/(t - tau)^2 dt = PV int T_n'(t)/(t - tau) dt
                                       - 1/(1 - tau) - (-1)^n/(1 + tau),

    and T_n' = 2n sum' T_m over m < n with n - m odd, T_0 halved, turns the
    PV integral into 2n S_{n-1}, where S_k = rho_k + rho_{k-2} + ... (rho_0
    halved) is the running sum of the PV moments over one parity.  Both
    tables are DCT-III transforms of their moments, O(N^2 log N).
    """
    t = grid.nodes
    N = grid.N
    rho = _pv_moments(t, N)
    W = _cardinal_weights(rho)
    rho[0] *= 0.5
    # fp[n] = 2n S_{n-1}, the running sums written one row down
    fp = np.empty_like(rho)
    fp[0] = 0.0
    np.cumsum(rho[0:N - 1:2], axis=0, out=fp[1::2])
    np.cumsum(rho[1:N - 1:2], axis=0, out=fp[2::2])
    del rho
    fp[1:] *= 2.0 * np.arange(1.0, N)[:, None]
    fp -= 1.0 / (1.0 - t)
    # (-1)^n / (1 + t), subtracted on even rows and added on odd ones
    r = 1.0 / (1.0 + t)
    fp[0::2] -= r
    fp[1::2] += r
    return W, _cardinal_weights(fp)


def log_weight_table(grid):
    """Matrix W with W[i, j] = Omega_j(t_i): log weights at every mesh point."""
    return _cardinal_weights(_log_moments(grid.nodes, grid.N))
