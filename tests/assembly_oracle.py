"""Vectorized assembly and weight-table builds, kept as a bit-identity oracle.

These are the formulations that `momentum.assemble_potential`,
`kernels.legendre_P`/`w_poly` and the `cheb` table builds replaced: every
kernel formula evaluated on whole matrices with fresh temporaries, the
Legendre recurrences by a generator that allocates three arrays a step,
the log moments by a loop over n, and the tables transposed out of one
DCT-III along the moment axis, on numpy.fft with the twiddle and the
reordering of `cheb._cardinal_weights`, which runs it in row blocks.  The
faster code performs the same floating-point operations in the same order,
so the tests require equal results, not close ones.  There are two
exceptions, which the tests hold to a tolerance.  `pv_weight_table` is the
moment build of the PV and finite-part tables, whose closed forms in
`cheb.pv_weight_table` round differently.  `pv_moments` and `weights_cauchy`
form the PV moments as T_n L + g_n from two recurrences, while
`cheb._pv_moments` runs the moments' own single recurrence, which is more
accurate near the ends (tests/test_cheb.py checks both against 40 digits);
the log moments keep the two.  The plain weights, the log table and the
log-kernel rule are built whole here and then given the library's one
change of arithmetic, its mirror step: the back half, in flat order, is
replaced by the front half reversed (`mirrored`), which the exactly odd
mesh makes an identity in exact arithmetic.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from chebquark import cheb
from chebquark.cheb import _plain_moments
from kernel_oracle import coulomb_log_regular, linear_log_regular, pv_factor


def _bonnet(ell, z):
    """Yield (m, P_m(z), P'_m(z)) for m = 0..ell by the Bonnet recurrence."""
    pprev = np.zeros_like(z)
    p = np.ones_like(z)
    dp = np.zeros_like(z)
    for m in range(ell + 1):
        yield m, p, dp
        if m < ell:
            pprev, p, dp = p, ((2 * m + 1) * z * p - m * pprev) / (m + 1), z * dp + (m + 1) * p


def legendre_P(ell, z):
    for _, p, dp in _bonnet(ell, np.asarray(z, dtype=float)):
        pass
    return p, dp


def w_poly(ell, z):
    z = np.asarray(z, dtype=float)
    w = np.zeros_like(z)
    dw = np.zeros_like(z)
    for m, p, dp in _bonnet(ell - 1, z):
        if (ell - 1 - m) % 2 == 0:
            c = 2.0 * (2 * m + 1) / ((ell - m) * (ell + m + 1))
            w += c * p
            dw += c * dp
    return w, dw


def assemble_potential(problem, grid, sigma, x, J):
    """The potential matrix V, one whole-matrix expression per kernel term."""
    t = grid.nodes
    regw = grid.plain_weights * J

    z = (x[:, None] ** 2 + x[None, :] ** 2) / (2.0 * x[:, None] * x[None, :])
    np.fill_diagonal(z, 1.0)
    p, dp = legendre_P(problem.ell, z)
    wl, dwl = w_poly(problem.ell, z) if problem.ell >= 1 else (0.0, 0.0)
    del z

    logw = q0_rule(grid)
    logw *= J

    V = np.zeros((grid.N, grid.N))
    if problem.linear:
        if problem.ell >= 1:
            V += linear_log_regular(x[:, None], dp, dwl, logw, regw)
        pole = pole_rule(grid)
        pole *= pv_factor(x[:, None], x[None, :], p)
        pole *= (-(4.0 / np.pi) * (1.0 - t) / (2.0 * sigma))[:, None]
        V += pole

    if problem.alpha > 0.0:
        V += coulomb_log_regular(problem.alpha, x[:, None], x[None, :],
                                 p, wl, logw, regw)
    return V


def q0_rule(grid):
    """Log-kernel weights w_j log(1 - t_i t_j) - Omega_j(t_i), as each solve formed them."""
    Q = np.log(1.0 - np.outer(grid.nodes, grid.nodes))
    Q *= grid.plain_weights
    Q -= grid.log_table
    return mirrored(Q)


def pole_rule(grid):
    """Double-pole weights (1 - t_j) eta_j(t_i) + omega_j(t_i), as each solve formed them."""
    pole = grid.fp_table * (1.0 - grid.nodes)
    pole += grid.pv_table
    return pole


def _cardinal_weights(moments):
    """The DCT-III of `cheb._cardinal_weights`, on the whole table along the moment axis."""
    N, h = len(moments), (len(moments) + 1) // 2
    k = np.arange(N // 2 + 1).reshape((-1,) + (1,) * (moments.ndim - 1))
    V = np.empty(k.shape[:1] + moments.shape[1:], dtype=complex)
    V.real = moments[:N // 2 + 1]
    V.imag[0] = 0.0
    V.imag[1:] = -moments[:h - 1:-1]
    V *= np.exp(0.5j * np.pi / N * k)
    v = np.fft.irfft(V, N, axis=0)
    W = np.empty_like(moments)
    W[::2] = v[:h]
    W[1::2] = v[:h - 1:-1]
    return W.T


def _pv_g_moments(tau, nmax):
    tau = np.asarray(tau, dtype=float)
    mu = _plain_moments(max(nmax, 2))
    g = np.zeros((nmax,) + tau.shape)
    if nmax > 1:
        g[1] = 2.0
    for n in range(1, nmax - 1):
        g[n + 1] = 2.0 * tau * g[n] - g[n - 1] + 2.0 * mu[n]
    return g


def _chebyshev_T_table(tau, nmax):
    tau = np.asarray(tau, dtype=float)
    T = np.empty((nmax,) + tau.shape)
    T[0] = 1.0
    if nmax > 1:
        T[1] = tau
    for n in range(1, nmax - 1):
        T[n + 1] = 2.0 * tau * T[n] - T[n - 1]
    return T


def pv_moments(tau, nmax):
    tau = np.asarray(tau, dtype=float)
    rho0 = np.log((1.0 - tau) / (1.0 + tau))
    return _chebyshev_T_table(tau, nmax) * rho0 + _pv_g_moments(tau, nmax)


def log_moments(tau, nmax):
    tau = np.asarray(tau, dtype=float)
    one_m = 1.0 - tau
    one_p = 1.0 + tau
    log_m = np.where(one_m > 0.0, np.log(np.where(one_m > 0.0, one_m, 1.0)), 0.0)
    log_p = np.where(one_p > 0.0, np.log(np.where(one_p > 0.0, one_p, 1.0)), 0.0)

    need = nmax + 1
    T = _chebyshev_T_table(tau, need + 1)
    g = _pv_g_moments(tau, need + 1)

    lam = np.empty((nmax,) + tau.shape)
    lam[0] = one_m * log_m + one_p * log_p - 2.0
    if nmax > 1:
        a1 = 0.25 * (T[2] + 1.0)
        lam[1] = (0.5 - a1) * log_m + (a1 - 0.5) * log_p - tau
    for n in range(2, nmax):
        an = 0.5 * (T[n + 1] / (n + 1) - T[n - 1] / (n - 1))
        an_hi = -1.0 / (n * n - 1.0)
        an_lo = (-1.0) ** n / (n * n - 1.0)
        reg = 0.5 * (g[n + 1] / (n + 1) - g[n - 1] / (n - 1))
        lam[n] = (an_hi - an) * log_m + (an - an_lo) * log_p - reg
    return lam


def weights_cauchy(N, tau):
    return _cardinal_weights(pv_moments(np.float64(tau), N))


def weights_log(N, tau):
    return _cardinal_weights(log_moments(np.float64(tau), N))


def pv_weight_table(nodes):
    t = nodes
    N = len(t)
    rho = pv_moments(t, N)
    W = _cardinal_weights(rho)
    rho[0] *= 0.5
    S = np.empty_like(rho)
    S[0::2] = np.cumsum(rho[0::2], axis=0)
    S[1::2] = np.cumsum(rho[1::2], axis=0)
    del rho
    n = np.arange(N)
    fp = np.empty_like(S)
    fp[0] = 0.0
    np.multiply(S[:-1], 2.0 * n[1:, None], out=fp[1:])
    del S
    fp -= 1.0 / (1.0 - t)
    fp -= np.outer((-1.0) ** n, 1.0 / (1.0 + t))
    return W, _cardinal_weights(fp)


def mirrored(a):
    """`a` with a.flat[-1 - k] = a.flat[k] for every k < a.size // 2."""
    f = a.ravel().copy()
    k = f.size // 2
    f[f.size - k:] = f[:k][::-1]
    return f.reshape(a.shape)


def log_weight_table(nodes):
    return mirrored(_cardinal_weights(log_moments(nodes, len(nodes))))


def oracle_grid(grid):
    """A stand-in for `grid` with the three raw tables that `q0_rule` and `pole_rule` read.

    The plain weights and the log table come from the builds above.  The PV
    and finite-part tables are the closed forms of `cheb.pv_weight_table`:
    they do not round like the moment build, which `pv_weight_table` keeps
    as their oracle within a tolerance.
    """
    pv_table, fp_table = cheb.pv_weight_table(grid)
    return SimpleNamespace(N=grid.N, nodes=grid.nodes,
                           plain_weights=mirrored(_cardinal_weights(_plain_moments(grid.N))),
                           pv_table=pv_table, fp_table=fp_table,
                           log_table=log_weight_table(grid.nodes))
