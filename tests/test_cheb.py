"""Mesh, interpolation, differentiation and quadrature rules."""

import numpy as np
import pytest
from scipy.integrate import quad

from chebquark import cheb


def analytic_plain(m):
    """int_{-1}^{1} t^m dt."""
    return 0.0 if m % 2 else 2.0 / (m + 1)


def analytic_pv(m, tau):
    """PV int_{-1}^{1} t^m/(t - tau) dt by the reduction p_m = mu_{m-1} + tau p_{m-1}."""
    p = np.log((1.0 - tau) / (1.0 + tau))
    for k in range(1, m + 1):
        p = analytic_plain(k - 1) + tau * p
    return p


def analytic_fp(m, tau):
    """FP int_{-1}^{1} t^m/(t - tau)^2 dt: the tau-derivative of analytic_pv's reduction."""
    p = np.log((1.0 - tau) / (1.0 + tau))
    dp = -2.0 / (1.0 - tau * tau)
    for k in range(1, m + 1):
        p, dp = analytic_plain(k - 1) + tau * p, p + tau * dp
    return dp


def analytic_log(m, tau):
    """int_{-1}^{1} t^m log|t - tau| dt, finite on the closed interval.

    By parts with the shifted antiderivative A(t) = (t^(m+1) - tau^(m+1))/(m+1),
    whose boundary terms vanish where the log diverges (0 log 0 = 0).
    """
    def a(t):
        return (t ** (m + 1) - tau ** (m + 1)) / (m + 1)

    bnd = 0.0
    if tau != 1.0:
        bnd += a(1.0) * np.log(1.0 - tau)
    if tau != -1.0:
        bnd -= a(-1.0) * np.log(1.0 + tau)
    # int (t^(m+1) - tau^(m+1))/(t - tau) dt is a plain polynomial integral
    poly = sum(tau ** k * analytic_plain(m - k) for k in range(m + 1)) / (m + 1)
    return bnd - poly


class TestGrid:
    def test_nodes_are_t_n_zeros(self):
        grid = cheb.chebyshev_grid(17)
        assert np.allclose(np.polynomial.Chebyshev.basis(17)(grid.nodes), 0.0, atol=1e-13)

    def test_nodes_interior_and_decreasing(self):
        grid = cheb.chebyshev_grid(40)
        assert np.all(np.abs(grid.nodes) < 1.0)
        assert np.all(np.diff(grid.nodes) < 0.0)

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            cheb.ChebGrid(1)

    def test_grid_cache_returns_same_object(self):
        assert cheb.chebyshev_grid(16) is cheb.chebyshev_grid(16)


class TestInterpolation:
    def test_cardinal_delta_property(self):
        grid = cheb.chebyshev_grid(9)
        for j in range(grid.N):
            vals = cheb.cardinal_eval(grid, j, grid.nodes)
            assert np.allclose(vals, np.eye(grid.N)[j], atol=1e-12)

    def test_polynomial_reproduction(self):
        grid = cheb.chebyshev_grid(12)
        coeffs = np.array([0.3, -1.0, 2.0, 0.0, 0.7, -0.2])
        f = np.polynomial.polynomial.Polynomial(coeffs)
        t = np.linspace(-0.97, 0.97, 41)
        assert np.allclose(cheb.interpolate(grid, f(grid.nodes), t), f(t),
                           atol=1e-12)

    def test_smooth_function_converges(self):
        t = np.linspace(-0.9, 0.9, 25)
        err = []
        for N in (8, 16, 32):
            grid = cheb.chebyshev_grid(N)
            approx = cheb.interpolate(grid, np.exp(grid.nodes), t)
            err.append(np.max(np.abs(approx - np.exp(t))))
        assert err[1] < 1e-3 * err[0]
        assert err[2] < 1e-13


class TestDifferentiation:
    def test_polynomial_derivative_exact(self):
        grid = cheb.chebyshev_grid(10)
        f = grid.nodes**7 - 3.0 * grid.nodes**4 + grid.nodes
        df = 7.0 * grid.nodes**6 - 12.0 * grid.nodes**3 + 1.0
        assert np.allclose(grid.diff_matrix @ f, df, atol=1e-10)

    def test_spectral_accuracy_on_sine(self):
        grid = cheb.chebyshev_grid(30)
        df = grid.diff_matrix @ np.sin(3.0 * grid.nodes)
        assert np.allclose(df, 3.0 * np.cos(3.0 * grid.nodes), atol=1e-10)


class TestPlainRule:
    def test_weights_positive_sum_two(self):
        grid = cheb.chebyshev_grid(25)
        w = grid.plain_weights
        assert np.all(w > 0.0)
        assert abs(w.sum() - 2.0) < 1e-13

    @pytest.mark.parametrize("N", [8, 32, 128])
    def test_monomials_exact(self, N):
        grid = cheb.chebyshev_grid(N)
        w = grid.plain_weights
        for m in range(N):
            assert abs(w @ grid.nodes**m - analytic_plain(m)) < 1e-12


class TestSingularRules:
    def test_pv_rejects_endpoint(self):
        grid = cheb.chebyshev_grid(8)
        with pytest.raises(ValueError):
            cheb.weights_cauchy(grid, 1.0)

    def test_log_allows_endpoint(self):
        grid = cheb.chebyshev_grid(16)
        w = cheb.weights_log(grid, 1.0)
        # int log|t - 1| dt = 2 log 2 - 2
        assert abs(w.sum() - (2.0 * np.log(2.0) - 2.0)) < 1e-12

    @pytest.mark.parametrize("tau", [-0.83, -0.3, 0.0, 0.41, 0.9])
    def test_pv_monomials(self, tau):
        grid = cheb.chebyshev_grid(32)
        w = cheb.weights_cauchy(grid, tau)
        for m in range(grid.N):
            exact = analytic_pv(m, tau)
            assert abs(w @ grid.nodes**m - exact) < 1e-10 * max(1.0, abs(exact))

    @pytest.mark.parametrize("tau", [-1.0, -0.55, 0.17, 0.98, 1.0])
    def test_log_monomials(self, tau):
        grid = cheb.chebyshev_grid(32)
        w = cheb.weights_log(grid, tau)
        for m in range(grid.N):
            exact = analytic_log(m, tau)
            assert abs(w @ grid.nodes**m - exact) < 1e-10 * max(1.0, abs(exact))

    def test_pv_against_subtraction_oracle(self):
        grid = cheb.chebyshev_grid(64)
        tau = 0.37
        w = cheb.weights_cauchy(grid, tau)
        for f in (np.exp, lambda t: 1.0 / (2.0 + t), lambda t: np.sin(3.0 * t)):
            # PV int f/(t-tau) = int (f(t)-f(tau))/(t-tau) + f(tau) log((1-tau)/(1+tau))
            reg, _ = quad(lambda t: (f(t) - f(tau)) / (t - tau), -1.0, 1.0,
                          epsabs=1e-13, limit=200, points=[tau])
            exact = reg + f(tau) * np.log((1.0 - tau) / (1.0 + tau))
            assert abs(w @ f(grid.nodes) - exact) < 1e-11

    def test_log_against_adaptive_oracle(self):
        grid = cheb.chebyshev_grid(64)
        tau = -0.22
        w = cheb.weights_log(grid, tau)
        for f in (np.exp, lambda t: 1.0 / (2.0 + t), lambda t: np.sin(3.0 * t)):
            exact, _ = quad(lambda t: f(t) * np.log(abs(t - tau)), -1.0, 1.0,
                            epsabs=1e-13, limit=200, points=[tau])
            assert abs(w @ f(grid.nodes) - exact) < 1e-11

    def test_grid_keeps_one_read_only_table_of_each_kind(self):
        grid = cheb.ChebGrid(24)
        for table, build in ((grid.pv_table, cheb.pv_weight_table),
                             (grid.log_table, cheb.log_weight_table)):
            assert np.array_equal(table, build(grid))
            assert not table.flags.writeable
        assert grid.pv_table is grid.pv_table
        assert grid.log_table is grid.log_table

    @pytest.mark.parametrize("N", (8, 32, 128))
    def test_finite_part_table_monomials(self, N):
        # eta_j(t_i) integrates t^m/(t - t_i)^2 exactly for m < N
        grid = cheb.ChebGrid(N)
        t = grid.nodes
        assert not grid.fp_table.flags.writeable
        for m in range(N):
            want = analytic_fp(m, t)
            assert np.all(np.abs(grid.fp_table @ t**m - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))

    def test_weight_tables_match_single_point_rules(self):
        grid = cheb.chebyshev_grid(20)
        pv = cheb.pv_weight_table(grid)
        lg = cheb.log_weight_table(grid)
        for i in (0, 7, 19):
            assert np.allclose(pv[i], cheb.weights_cauchy(grid, grid.nodes[i]),
                               atol=1e-12)
            assert np.allclose(lg[i], cheb.weights_log(grid, grid.nodes[i]),
                               atol=1e-12)


class TestCardinalProducts:
    """The weight tables are DCT-III transforms of moment tables."""

    @staticmethod
    def coefficient_matrix(N):
        """C[n, j] = (2/N) T_n(t_j), first row halved: G_j = sum_n C[n, j] T_n."""
        theta = np.pi * (np.arange(N) + 0.5) / N
        C = (2.0 / N) * np.cos(np.outer(np.arange(N), theta))
        C[0] *= 0.5
        return C, theta

    @pytest.mark.parametrize("N", (8, 80, 800))
    def test_tables_match_coefficient_products(self, N):
        grid = cheb.ChebGrid(N)
        C, theta = self.coefficient_matrix(N)
        n = np.arange(N)[:, None]
        dT = n * np.sin(n * theta) / np.sin(theta)
        for got, moments in ((cheb.pv_weight_table(grid), cheb._pv_moments(grid.nodes, N)),
                             (cheb.log_weight_table(grid), cheb._log_moments(grid.nodes, N)),
                             (grid.diff_matrix, dT)):
            want = moments.T @ C
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        want = cheb._plain_moments(N) @ C
        assert np.max(np.abs(grid.plain_weights - want)) <= 1e-15
