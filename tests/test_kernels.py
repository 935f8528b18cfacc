"""Legendre machinery and the partial-wave kernel groupings."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_legendre

import assembly_oracle
from chebquark import kernels, radial
from kernel_oracle import kernel_pieces, q0, z_of


def w_pairwise_oracle(ell, z):
    """w_{ell-1} = sum_{n=1..ell} P_{n-1} P_{ell-n} / n and its derivative.

    The pairwise sum that `kernels.w_poly` evaluated before it accumulated
    Christoffel's single sum, on numpy's Legendre series.
    """
    P = [np.polynomial.Legendre.basis(k) for k in range(ell)]
    w = sum(P[n - 1](z) * P[ell - n](z) / n for n in range(1, ell + 1))
    dw = sum((P[n - 1].deriv()(z) * P[ell - n](z) + P[n - 1](z) * P[ell - n].deriv()(z)) / n
             for n in range(1, ell + 1))
    return w, dw


def q_ell_oracle(ell, z):
    """Q_ell(z) = (1/2) int_{-1}^{1} P_ell(u)/(z - u) du for z > 1."""
    val, _ = quad(lambda u: eval_legendre(ell, u) / (z - u), -1.0, 1.0,
                  epsabs=1e-14, epsrel=1e-13, limit=400)
    return 0.5 * val


class TestProblem:
    @pytest.mark.parametrize("fields", (
        {"ell": 1.5}, {"ell": -1}, {"ell": True}, {"alpha": float("nan")}, {"s": float("inf")},
        {"alpha": 0.0, "linear": False}, {"kinetic": "salpeter", "s": 5e-324},
        {"kinetic": "dirac"},
    ), ids=str)
    def test_rejected(self, fields):
        with pytest.raises(ValueError):
            kernels.Problem(**fields)

    def test_quark_mass_is_one_over_s(self):
        assert kernels.Problem(kinetic="salpeter", s=0.5).am == 2.0
        with pytest.raises(TypeError):
            kernels.Problem(kinetic="salpeter", am=2.0)

    @pytest.mark.parametrize(("ell", "alpha", "s"), ((0, 1.0, 1.0), (3, 0.5, 1e-3),
                                                     (12, 0.50667, 0.3)))
    def test_coulomb_level_is_the_hydrogen_spectrum(self, ell, alpha, s):
        problem = kernels.Problem(ell=ell, alpha=alpha, s=s)
        for n in range(5):
            assert problem.coulomb_level(n) == pytest.approx(
                radial.hydrogen_energy(n, ell, alpha, 1.0 / (2.0 * s)), rel=1e-15)

    @pytest.mark.parametrize(("fields", "length", "alpha"), (
        ({"alpha": 0.5, "s": 1e-3}, 0.1, 50.0),
        ({"alpha": 0.0, "s": 8.0}, 2.0, 0.0),
        ({"alpha": 1e-8, "linear": False, "s": 2.0}, 2e8, 1.0),
    ), ids=("cornell", "linear", "coulomb"))
    def test_natural_units(self, fields, length, alpha):
        problem = kernels.Problem(ell=3, **fields)
        got, energy, unit = problem.natural_units()
        assert got == pytest.approx(length, rel=1e-15)
        assert energy == pytest.approx(problem.s / length ** 2, rel=1e-15)
        assert (unit.ell, unit.linear, unit.s) == (3, problem.linear, 1.0)
        assert unit.alpha == pytest.approx(alpha, rel=1e-14)
        # the Coulomb levels scale with the energy: eps = energy * eps'
        if alpha:
            assert energy * unit.coulomb_level(0) == pytest.approx(problem.coulomb_level(0),
                                                                   rel=1e-14)

    def test_salpeter_keeps_its_units(self):
        problem = kernels.Problem(alpha=0.5, s=0.3, kinetic="salpeter")
        length, energy, unit = problem.natural_units()
        assert (length, energy) == (1.0, 1.0) and unit is problem


class TestLegendreP:
    @pytest.mark.parametrize("ell", range(7))
    def test_matches_scipy(self, ell):
        z = np.linspace(1.0, 30.0, 60)
        assert np.allclose(kernels.legendre_P(ell, z)[0], eval_legendre(ell, z),
                           rtol=1e-12)

    @pytest.mark.parametrize("ell", range(1, 7))
    def test_derivative_by_finite_difference(self, ell):
        z = np.array([1.3, 2.0, 5.0, 12.0])
        h = 1e-6
        _, dp = kernels.legendre_P(ell, z)
        fd = (eval_legendre(ell, z + h) - eval_legendre(ell, z - h)) / (2.0 * h)
        assert np.allclose(dp, fd, rtol=1e-8)

    def test_derivative_at_one(self):
        for ell in range(6):
            _, dp = kernels.legendre_P(ell, 1.0)
            assert abs(dp - 0.5 * ell * (ell + 1)) < 1e-12

    def test_negative_ell_rejected(self):
        with pytest.raises(ValueError):
            kernels.legendre_P(-1, 2.0)


class TestRecurrenceOracle:
    @pytest.mark.parametrize("ell", range(9))
    def test_bit_identical_to_generator_recurrence(self, ell):
        # a matrix, a strided view and a scalar
        z = np.linspace(1.0, 40.0, 3 * ((1 << 14) + 7)).reshape(3, -1)
        pairs = [(kernels.legendre_P, assembly_oracle.legendre_P)]
        if ell >= 1:
            pairs.append((kernels.w_poly, assembly_oracle.w_poly))
        for arg in (z, z[:, ::5], 2.5):
            for fast, slow in pairs:
                for got, want in zip(fast(ell, arg), slow(ell, arg), strict=True):
                    assert np.shape(got) == np.shape(arg)
                    assert np.array_equal(got, want)


class TestQFunctions:
    def test_q0_closed_form(self):
        z = np.array([1.1, 2.0, 7.0])
        assert np.allclose(q0(z), 0.5 * np.log((z + 1.0) / (z - 1.0)),
                           rtol=1e-13)

    def test_singular_at_one(self):
        with pytest.raises(ValueError):
            q0(1.0)

    @pytest.mark.parametrize("ell", range(5))
    def test_q_ell_reconstruction(self, ell):
        # Q_ell = P_ell Q_0 - w_{ell-1}; the difference cancels violently at
        # large z and high ell, so the tolerance is scaled by the term size
        for z in (1.02, 1.5, 3.0, 10.0):
            p = kernels.legendre_P(ell, z)[0]
            w = kernels.w_poly(ell, z)[0] if ell >= 1 else 0.0
            q = p * q0(z) - w
            exact = q_ell_oracle(ell, z)
            scale = max(abs(exact), 1e-3 * abs(p * q0(z)))
            assert abs(q - exact) < 1e-10 * scale


class TestWPoly:
    def test_requires_ell_geq_one(self):
        with pytest.raises(ValueError):
            kernels.w_poly(0, 2.0)

    def test_low_order_closed_forms(self):
        z = np.linspace(1.0, 6.0, 20)
        assert np.allclose(kernels.w_poly(1, z)[0], np.ones_like(z))
        assert np.allclose(kernels.w_poly(2, z)[0], 1.5 * z)
        assert np.allclose(kernels.w_poly(3, z)[0], 2.5 * z**2 - 2.0 / 3.0)

    @pytest.mark.parametrize("ell", range(1, 9))
    def test_matches_pairwise_sum(self, ell):
        z = np.concatenate([np.linspace(1.0, 3.0, 41), np.geomspace(3.0, 1e4, 41)])
        w, dw = kernels.w_poly(ell, z)
        want_w, want_dw = w_pairwise_oracle(ell, z)
        np.testing.assert_allclose(w, want_w, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(dw, want_dw, rtol=1e-14, atol=0.0)

    def test_derivative_by_finite_difference(self):
        z, h = 2.7, 1e-6
        for ell in range(1, 6):
            _, dw = kernels.w_poly(ell, z)
            fd = (kernels.w_poly(ell, z + h)[0] - kernels.w_poly(ell, z - h)[0]) / (2.0 * h)
            assert abs(dw - fd) < 1e-7 * max(1.0, abs(dw))


class TestKernelArgument:
    def test_z_of_diagonal_is_one(self):
        assert z_of(0.7, 0.7) == 1.0

    def test_positive_momenta_required(self):
        with pytest.raises(ValueError):
            z_of(-1.0, 2.0)


class TestKernelPieces:
    def test_coulomb_pieces_reassemble_q_ell(self):
        # coefficient grouping must reproduce -(alpha/(pi x)) x' Q_ell(z)
        ell, x, xp, alpha = 3, 0.9, 2.1, 0.5
        kp = kernel_pieces(ell, x, xp, alpha)
        q = q_ell_oracle(ell, kp.z)
        combined = kp.coulomb_log_coeff * q0(kp.z) + kp.coulomb_regular
        assert abs(combined - (-(alpha / (np.pi * x)) * xp * q)) < 1e-12

    def test_linear_pieces_use_q_ell_derivative_split(self):
        # log and regular coefficients must carry P'_ell and w'_{ell-1}
        ell, x, xp = 2, 1.1, 1.7
        kp = kernel_pieces(ell, x, xp, alpha=0.0)
        z = kp.z
        _, dp = kernels.legendre_P(ell, z)
        _, dw = kernels.w_poly(ell, z)
        assert abs(kp.linear_log_coeff - dp / (np.pi * x * x)) < 1e-14
        assert abs(kp.linear_regular + dw / (np.pi * x * x)) < 1e-14
