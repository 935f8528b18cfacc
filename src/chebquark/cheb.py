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
DCT-III of Chebyshev moments from recurrences bounded on [-1, 1], the PV
moments from a single one.  Tables at the exactly odd mesh are computed on
their top ceil(N/2) rows and mirrored, and the log tables keep those rows alone.
"""

from __future__ import annotations

import numbers
from functools import cached_property, lru_cache

import numpy as np

# Entries per row block of the N x N builds here and in momentum: the buffers
# of a block stay in cache.
BLOCK_ELEMENTS = 1 << 15


def row_blocks(n, width):
    """Slices of rows 0..n-1 in order, each of at most max(1, BLOCK_ELEMENTS // width) rows."""
    step = max(1, BLOCK_ELEMENTS // width)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _plain_moments(nmax):
    """Moments mu_n = int_{-1}^{1} T_n(t) dt for n = 0..nmax-1."""
    n = np.arange(nmax)
    mu = np.zeros(nmax)
    even = n % 2 == 0
    mu[even] = 2.0 / (1.0 - n[even].astype(float) ** 2)
    return mu


class ChebGrid:
    """Chebyshev mesh of order N with all derived tables cached immutably.

    Nodes are the N zeros of T_N in decreasing order, t_i = cos(pi (i + 1/2) / N)
    for i = 0..N-1 (0-based), computed as sin(pi (N - 1 - 2i) / (2N)), which
    is exactly odd: t_{N-1-i} = -t_i, and t = 0 in the middle for odd N.
    """

    def __init__(self, N):
        if not isinstance(N, numbers.Integral) or N < 2:
            raise ValueError(f"grid order must be an integer >= 2, got {N!r}")
        self.N = int(N)
        self.nodes = np.sin(np.pi * np.arange(N - 1, -N, -2) / (2 * self.N))
        self.nodes.setflags(write=False)

    @cached_property
    def plain_weights(self):
        """Unit-weight quadrature weights w_i (positive, summing to 2)."""
        return _read_only(_mirror(_cardinal_weights(_plain_moments(self.N)), 1.0))

    @cached_property
    def q0_table(self):
        """Top ceil(N/2) rows of the rule for log|(1 - t_i t)/(t - t_i)|, centrosymmetric (see
        q0_rows): Q[i, j] = w_j log(1 - t_i t_j) - Omega_j(t_i)."""
        Q, t = log_weight_table(self), self.nodes
        for b in row_blocks(len(Q), self.N):
            L = np.multiply.outer(t[b], t)
            np.subtract(1.0, L, out=L)
            np.log(L, out=L)
            L *= self.plain_weights
            np.subtract(L, Q[b], out=Q[b])
        return _read_only(Q)

    def q0_rows(self, start, stop):
        """Rows start..stop-1 of the whole rule Q as views: its top rows, then the bottom ones,
        row N-1-i being row i of q0_table reversed."""
        Q, N = self.q0_table, self.N
        mid = min(max(start, len(Q)), stop)
        return Q[start:mid], Q[N - stop:N - mid][::-1, ::-1]

    def __repr__(self):
        return f"ChebGrid(N={self.N})"


def _read_only(a):
    a.setflags(write=False)
    return a


def _mirror(a, sign):
    """Set a.flat[-1 - k] = sign a.flat[k] on the back half of C-contiguous a."""
    f = a.reshape(-1)
    k = f.size // 2
    np.multiply(f[:k][::-1], sign, out=f[f.size - k:])
    return a


def _cardinal_weights(moments):
    """Weights sum_n moments[n, ...] C[n, j] of the cardinal functions G_j.

    With C[n, j] = (2/N) cos(n theta_j), first row halved, this is a DCT-III
    along n, O(N^2 log N) for a table instead of the O(N^3) product with C,
    on numpy.fft by Makhoul's reordering (IEEE Trans. ASSP 28 (1980) 27): with
    X_N = 0, V_k = e^{i pi k/(2N)} (X_k - i X_{N-k}), k <= N/2, has the inverse
    real FFT v, whose 1/N is C's 2/N with the first row halved, and the
    weights are W_{2m} = v_m, W_{2m+1} = v_{N-1-m}.  A moment table of shape
    (N, M) gives weights of shape (M, N), one row per point, in row blocks;
    one moment vector gives one weight vector.
    """
    N, h = len(moments), (len(moments) + 1) // 2
    X = moments.reshape(N, -1)
    W = np.empty((X.shape[1], N))
    twiddle = np.exp(0.5j * np.pi / N * np.arange(N // 2 + 1))
    for b in row_blocks(len(W), N):
        V = np.zeros((len(W[b]), N // 2 + 1), dtype=complex)
        V.real = X[:N // 2 + 1, b].T
        np.negative(X[:h - 1:-1, b].T, out=V.imag[:, 1:])
        V *= twiddle
        v = np.fft.irfft(V, N)
        W[b, ::2] = v[:, :h]
        W[b, 1::2] = v[:, :h - 1:-1]
    return W.reshape(moments.shape[1:] + (N,))


@lru_cache(maxsize=1, typed=True)
def chebyshev_grid(N):
    """Shared, immutable grid of order N, cached for one order at a time.

    A new order evicts the old grid before any of its tables are built, so a
    caller who alternates N rebuilds them; solve N-major to build each once.
    """
    return ChebGrid(N)


def _recurrence(tau, nmax, y0, y1, source=None, out=None):
    """Rows n < nmax of y_{n+1} = 2 tau y_n - y_{n-1} (+ source[n]); y0 = 1, y1 = tau give T_n.

    Rows are written in place (into `out` if given), as views also when tau is a scalar.
    """
    tau = np.asarray(tau, dtype=float)
    y = np.empty((nmax,) + tau.shape) if out is None else out
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


def _pv_moments(tau, nmax):
    """PV moments rho_n(tau) = PV int T_n(t)/(t - tau) dt, |tau| < 1, by their own recurrence
    rho_{n+1} = 2 tau rho_n - rho_{n-1} + 2 mu_n from rho_0 = L = log((1-tau)/(1+tau)) and
    rho_1 = tau L + 2."""
    L = np.log((1.0 - tau) / (1.0 + tau))
    return _recurrence(tau, nmax, L, tau * L + 2.0, 2.0 * _plain_moments(nmax))


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
    the same combination of g_n = rho_n - T_n L, polynomials from g_0 = 0,
    g_1 = 2 and rho_n's recurrence.  Both are formed for all n at once, the T
    and then the g table in one buffer, and kept apart: in rho_n the T_n L
    part cancels against A_n(1) log(1 - tau) on the end rows.
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
    # n = 2..nmax-1 as a column, k = 1..nmax as the divisors of T_k and g_k
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
    g = _recurrence(tau, nmax + 1, 0.0, 2.0, 2.0 * _plain_moments(nmax + 1), out=T)
    g[1:] /= k
    for b in row_blocks(nmax - 2, g[0].size):
        reg = np.subtract(g[3:][b], g[1:-2][b])    # blocks, no third table
        reg *= 0.5
        an[b] -= reg
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


def pv_weight_table(grid, pole=False, out=None):
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
    the ends.  O(N^2), in cache-sized blocks of the top ceil(N/2) rows, then
    mirrored: W[N-1-i, N-1-j] = -W[i, j], eta[N-1-i, N-1-j] = eta[i, j].
    pole=True returns only the double-pole rule (1 - t_j) eta_ij + W_ij, in `out` if given.
    The moment and DCT-III build is the oracle tests/assembly_oracle.pv_weight_table.
    """
    N = grid.N
    h = (N + 1) // 2
    t, w = grid.nodes, grid.plain_weights
    theta = np.pi * (np.arange(N) + 0.5) / N
    q = np.sin(theta) * (-1.0) ** np.arange(N)
    W_diag = 2.0 * np.log(np.tan(0.5 * theta)) + w * t / (2.0 * q * q)
    eta_diag = -2.0 / (q * q)
    eta = np.empty((N, N)) if out is None else out    # the finite-part table, or the pole rule
    W = None if pole else np.empty((N, N))
    for b in row_blocks(h, N):
        c = np.subtract.outer(t[b], t)
        c.flat[b.start::N + 1] = np.inf    # so that c_ii = 0
        np.reciprocal(c, out=c)
        Wb = np.multiply.outer(w[b] / q[b], q, out=None if pole else W[b])
        Wb -= w
        Wb *= c
        W_diag[b] += c @ w
        eta_b = np.multiply.outer(W_diag[b] / q[b], q, out=eta[b])
        eta_b -= Wb
        eta_b *= c
        eta_diag[b] -= eta_b.sum(axis=1)
        Wb.flat[b.start::N + 1] = W_diag[b]
        eta_b.flat[b.start::N + 1] = eta_diag[b]
        if b.stop > N // 2:    # the middle row of odd N, at t = 0, is its own image
            _mirror(Wb[-1], -1.0)[N // 2] = 0.0
            _mirror(eta_b[-1], 1.0)
        if pole:
            back = np.multiply(eta_b, 1.0 + t, out=c)
            back -= Wb
            eta_b *= 1.0 - t
            eta_b += Wb
            eta[N - b.stop:N - b.start] = back[::-1, ::-1]
    return eta if pole else (_mirror(W, -1.0), _mirror(eta, 1.0))


def log_weight_table(grid):
    """Top ceil(N/2) rows of the log weights W[i, j] = Omega_j(t_i); row N-1-i is row i reversed."""
    N, h = grid.N, (grid.N + 1) // 2
    W = _cardinal_weights(_log_moments(grid.nodes[:h], N))
    if N % 2:    # the middle row, at t = 0, is its own image; q0_table's is 0 - this row
        _mirror(W[-1], 1.0)
    return W
