"""Chebyshev mesh, cardinal interpolation, differentiation and quadratures.

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
        self._theta = np.pi * (np.arange(self.N) + 0.5) / self.N
        self.nodes = np.cos(self._theta)
        self.nodes.setflags(write=False)

    @cached_property
    def _C(self):
        """Cardinal coefficient matrix: G_j(t) = sum_n C[n, j] T_n(t)."""
        # T_n(t_j) = cos(n theta_j)
        C = (2.0 / self.N) * np.cos(np.outer(np.arange(self.N), self._theta))
        C[0] *= 0.5
        return _read_only(C)

    @cached_property
    def plain_weights(self):
        """Unit-weight quadrature weights w_i (positive, summing to 2)."""
        return _read_only(_cardinal_weights(_plain_moments(self.N)))

    @cached_property
    def diff_matrix(self):
        """Spectral differentiation matrix D with (D f)_i = p'(t_i)."""
        # T_n'(t_i) = n U_{n-1}(t_i) = n sin(n theta_i) / sin(theta_i)
        n = np.arange(self.N)[:, None]
        dT = n * np.sin(n * self._theta[None, :]) / np.sin(self._theta)[None, :]
        return _read_only(_cardinal_weights(dT))

    @cached_property
    def pv_table(self):
        """PV weights at every node, W[i, j] = omega_j(t_i) (see pv_weight_table)."""
        return _read_only(pv_weight_table(self))

    @cached_property
    def fp_table(self):
        """Finite-part weights at every node, W[i, j] = eta_j(t_i) = d omega_j/d tau.

        sum_j eta_j(tau) f(t_j) = FP int f(t)/(t - tau)^2 dt.  Differentiating
        PV int G_j(t)/(t - tau) dt in tau and integrating by parts gives
        eta_j(tau) = PV int G_j'(t)/(t - tau) dt - G_j(1)/(1 - tau) - G_j(-1)/(1 + tau),
        where the PV rule is exact on G_j' = sum_k D_kj G_k.
        """
        t = self.nodes
        g_hi = _cardinal_weights(np.ones(self.N))                  # G_j(1)
        g_lo = _cardinal_weights((-1.0) ** np.arange(self.N))      # G_j(-1)
        eta = self.pv_table @ self.diff_matrix
        eta -= np.outer(1.0 / (1.0 - t), g_hi)
        eta -= np.outer(1.0 / (1.0 + t), g_lo)
        return _read_only(eta)

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
    point; one moment vector gives one weight vector.
    """
    return scipy.fft.dct(moments, type=3, axis=0).T / moments.shape[0]


@lru_cache(maxsize=64)
def chebyshev_grid(N):
    """Shared, immutable grid of order N (tables are computed once)."""
    return ChebGrid(N)


def cardinal_eval(grid, j, t):
    """Cardinal function G_j(t): the interpolation basis with G_j(t_k) = delta_jk."""
    if not 0 <= j < grid.N:
        raise IndexError(f"cardinal index {j} out of range for N={grid.N}")
    return _clenshaw(grid._C[:, j], t)


def _clenshaw(coeffs, t):
    """Evaluate sum_n coeffs[n] T_n(t) by the Clenshaw recurrence."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-15):
        raise ValueError("argument outside [-1, 1]")
    bkp1 = np.zeros_like(t)
    bkp2 = np.zeros_like(t)
    for c in coeffs[:0:-1]:
        bkp1, bkp2 = c + 2.0 * t * bkp1 - bkp2, bkp1
    out = coeffs[0] + t * bkp1 - bkp2
    return out if out.ndim else float(out)


def interpolate(grid, values, t):
    """Evaluate the degree-(N-1) interpolant of mesh values at t."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.N,):
        raise ValueError(f"expected {grid.N} mesh values, got shape {values.shape}")
    return _clenshaw(grid._C @ values, t)


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
    for n in range(1, nmax - 1):
        g[n + 1] = 2.0 * tau * g[n] - g[n - 1] + 2.0 * mu[n]
    return g


def _chebyshev_T_table(tau, nmax):
    """T_n(tau) for n = 0..nmax-1, tau scalar or array."""
    tau = np.asarray(tau, dtype=float)
    T = np.empty((nmax,) + tau.shape)
    T[0] = 1.0
    if nmax > 1:
        T[1] = tau
    for n in range(1, nmax - 1):
        T[n + 1] = 2.0 * tau * T[n] - T[n - 1]
    return T


def _pv_moments(tau, nmax):
    """PV moments rho_n(tau) = PV int T_n(t)/(t - tau) dt, |tau| < 1."""
    tau = np.asarray(tau, dtype=float)
    rho0 = np.log((1.0 - tau) / (1.0 + tau))
    return _chebyshev_T_table(tau, nmax) * rho0 + _pv_g_moments(tau, nmax)


def _log_moments(tau, nmax):
    """Log-kernel moments Lambda_n(tau) = int T_n(t) log|t - tau| dt.

    Built by integrating by parts against the PV moments.  With the
    antiderivative A_n of T_n the boundary and PV contributions combine to

        Lambda_n = (A_n(1) - A_n(tau)) log(1 - tau)
                 + (A_n(tau) - A_n(-1)) log(1 + tau)
                 - int (A_n(t) - A_n(tau))/(t - tau) dt,

    where each log coefficient vanishes at the matching endpoint, so the
    formula is finite on the whole closed interval (0 * log 0 = 0).
    """
    tau = np.asarray(tau, dtype=float)
    one_m = 1.0 - tau
    one_p = 1.0 + tau
    # guarded logs: where 1 -+ tau == 0 the prefactor is exactly zero
    log_m = np.where(one_m > 0.0, np.log(np.where(one_m > 0.0, one_m, 1.0)), 0.0)
    log_p = np.where(one_p > 0.0, np.log(np.where(one_p > 0.0, one_p, 1.0)), 0.0)

    need = nmax + 1  # A_n involves T_{n+1}
    T = _chebyshev_T_table(tau, need + 1)
    g = _pv_g_moments(tau, need + 1)

    lam = np.empty((nmax,) + tau.shape)
    # n = 0: closed form, finite at the endpoints
    lam[0] = one_m * log_m + one_p * log_p - 2.0
    if nmax > 1:
        # n = 1: A_1 = t^2/2 = (T_2 + 1)/4, A_1(+-1) = 1/2
        a1 = 0.25 * (T[2] + 1.0)
        lam[1] = (0.5 - a1) * log_m + (a1 - 0.5) * log_p - tau
    for n in range(2, nmax):
        an = 0.5 * (T[n + 1] / (n + 1) - T[n - 1] / (n - 1))
        an_hi = -1.0 / (n * n - 1.0)
        an_lo = (-1.0) ** n / (n * n - 1.0)
        reg = 0.5 * (g[n + 1] / (n + 1) - g[n - 1] / (n - 1))
        lam[n] = (an_hi - an) * log_m + (an - an_lo) * log_p - reg
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
    """Matrix W with W[i, j] = omega_j(t_i): PV weights at every mesh point."""
    return _cardinal_weights(_pv_moments(grid.nodes, grid.N))


def log_weight_table(grid):
    """Matrix W with W[i, j] = Omega_j(t_i): log weights at every mesh point."""
    return _cardinal_weights(_log_moments(grid.nodes, grid.N))
