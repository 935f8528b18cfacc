"""Configuration-space shooting solver and analytic references."""

import math

import pytest
import scipy.integrate

import radial_nodes_oracle as oracle
from chebquark import radial
from chebquark import references as refs
from chebquark.kernels import Problem


def _no_integration(*args, **kwargs):
    raise AssertionError("solve_ivp called before the input was checked")


class TestReferences:
    def test_hydrogen_formula(self):
        assert radial.hydrogen_energy(0, 0, 1.0, 1.0) == -0.5
        # same principal number, same energy
        assert radial.hydrogen_energy(1, 0, 1.0, 0.5) == radial.hydrogen_energy(0, 1, 1.0, 0.5)
        # linear in mu a
        assert radial.hydrogen_energy(0, 0, 1.0, 2.0) == 2.0 * radial.hydrogen_energy(0, 0, 1.0, 1.0)

    def test_hydrogen_rejects_bad_input(self):
        with pytest.raises(ValueError):
            radial.hydrogen_energy(0, 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            radial.hydrogen_energy(-1, 0, 1.0, 1.0)

    def test_airy_values(self):
        assert abs(radial.airy_reference(1) - 2.338107) < 5e-7
        assert abs(radial.airy_reference(3) - 5.520560) < 5e-7
        assert abs(radial.airy_reference(5) - 7.944134) < 5e-7

    def test_airy_range(self):
        with pytest.raises(ValueError):
            radial.airy_reference(0)
        with pytest.raises(ValueError):
            radial.airy_reference(6)


class TestProblemValidation:
    def test_rejects_zero_potential(self):
        with pytest.raises(ValueError):
            Problem(alpha=0.0, linear=False)

    def test_rejects_negative_quantum_numbers(self):
        with pytest.raises(ValueError):
            Problem(ell=-1)
        with pytest.raises(ValueError):
            radial.solve_radial(Problem(), -1)

    def test_rejects_salpeter(self):
        with pytest.raises(ValueError, match="nonrelativistic"):
            radial.solve_radial(Problem(kinetic="salpeter", am=2.0), 0)

    @pytest.mark.parametrize("n", (1.5, True, "0", None))
    def test_rejects_non_integer_n_before_integrating(self, n, monkeypatch):
        monkeypatch.setattr(radial, "solve_ivp", _no_integration)
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            radial.solve_radial(Problem(), n)

    @pytest.mark.parametrize("r_max", (math.nan, math.inf, -1.0, 0.0))
    def test_rejects_bad_domain_before_integrating(self, r_max, monkeypatch):
        monkeypatch.setattr(radial, "solve_ivp", _no_integration)
        with pytest.raises(ValueError, match="r_max must be positive and finite"):
            radial.solve_radial(Problem(), 0, r_max=r_max)

    # a domain ending inside the matching point would integrate the inward
    # phase outward and give a wrong level (10.37 and 3.45 against 2.338)
    @pytest.mark.parametrize("r_max", (1.0, 2.0))
    def test_domain_inside_matching_point_is_a_runtime_error(self, r_max):
        with pytest.raises(RuntimeError, match="extend r_max"):
            radial.solve_radial(Problem(), 0, r_max=r_max)


class TestShooting:
    def test_airy_ladder(self):
        for nu in range(1, 6):
            pb = Problem(ell=0, alpha=0.0, linear=True, s=1.0)
            eps = radial.solve_radial(pb, nu - 1)
            assert abs(eps / radial.airy_reference(nu) - 1.0) < 1e-10

    def test_hydrogen_ground_state(self):
        pb = Problem(ell=0, alpha=1.0, linear=False, s=0.5)
        assert abs(radial.solve_radial(pb, 0) + 0.5) < 1e-10

    def test_hydrogen_excited_states(self):
        for ell, n in ((0, 3), (2, 1), (3, 0)):
            pb = Problem(ell=ell, alpha=1.0, linear=False, s=1.0)
            exact = radial.hydrogen_energy(n, ell, 1.0, 0.5)
            assert abs(radial.solve_radial(pb, n) / exact - 1.0) < 1e-9

    def test_linear_ell3_published_value(self):
        pb = Problem(ell=3, alpha=0.0, linear=True, s=1.0)
        assert abs(radial.solve_radial(pb, 4) - 9.627267) < 5e-7

    def test_cornell_monotone_in_n_and_ell(self):
        def solve(ell, n):
            return radial.solve_radial(Problem(ell=ell, alpha=0.5, linear=True, s=1.0), n)
        e00, e01, e10 = solve(0, 0), solve(0, 1), solve(1, 0)
        assert e00 < e01
        assert e00 < e10

    def test_node_count_of_converged_solution(self):
        pb = Problem(ell=1, alpha=0.5, linear=True, s=1.0)
        eps = radial.solve_radial(pb, 3)
        assert oracle._node_count(pb, 3, None, eps - 0.01) == 3
        assert oracle._node_count(pb, 3, None, eps + 0.01) == 4

    def test_outward_phase_counts_nodes_of_converged_solution(self):
        # the zeros of u on (0, r] are the multiples of pi the phase has passed
        pb = Problem(ell=1, alpha=0.5, linear=True, s=1.0)
        eps = radial.solve_radial(pb, 3)
        tol = (radial._RTOL, radial._ATOL)

        def zeros(e):
            r_end = radial._r_max(pb, 3, None, e)
            return math.floor(radial._phase_out(pb, e, r_end, tol) / math.pi)

        assert zeros(eps - 0.01) == 3
        assert zeros(eps + 0.01) == 4

    def test_explicit_domain_cutoff_respected(self):
        pb = Problem(ell=0, alpha=0.0, linear=True, s=1.0)
        assert abs(radial.solve_radial(pb, 0, r_max=25.0) / radial.airy_reference(1) - 1.0) < 1e-10

    def test_no_sign_change_is_a_runtime_error(self, monkeypatch):
        monkeypatch.setattr(radial, "_phase_mismatch", lambda *args: 1.0)
        with pytest.raises(RuntimeError, match="does not change sign"):
            radial.solve_radial(Problem(ell=0, alpha=0.0, linear=True, s=1.0), 0)

    def test_failed_integration_is_a_runtime_error(self, monkeypatch):
        def failing(*args, **kwargs):
            sol = scipy.integrate.solve_ivp(*args, **kwargs)
            sol.success, sol.message = False, "step size too small"
            return sol

        monkeypatch.setattr(radial, "solve_ivp", failing)
        with pytest.raises(RuntimeError, match="step size too small"):
            radial.solve_radial(Problem(ell=0, alpha=0.0, linear=True, s=1.0), 0)

    def test_integrations_per_level(self, monkeypatch):
        # every integration goes through the module's solve_ivp, which the
        # benchmark's traced run wraps: each one builds exactly one stepper
        calls, steppers = [], []
        real_ivp = radial.solve_ivp
        real_init = scipy.integrate.DOP853.__init__

        def counting_ivp(*args, **kwargs):
            calls.append(1)
            return real_ivp(*args, **kwargs)

        def counting_init(self, *args, **kwargs):
            steppers.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(radial, "solve_ivp", counting_ivp)
        monkeypatch.setattr(scipy.integrate.DOP853, "__init__", counting_init)
        radial.solve_radial(Problem(ell=0, alpha=0.0, linear=True, s=1.0), 0)
        assert 0 < len(calls) <= 45
        assert len(steppers) == len(calls)


class TestNodeBisectionOracle:
    """The phase root-find agrees with the node-bisection plus Wronskian solver."""

    @pytest.mark.parametrize("problem, n, r_max", (
        (refs.linear_params(0), 0, None),
        (refs.linear_params(0), 1, None),
        (refs.coulomb_params(1), 1, None),
        (refs.cornell_params("charm", 0), 0, None),
        (refs.linear_params(0), 0, 25.0),
    ))
    def test_agrees_with_oracle(self, problem, n, r_max):
        eps = radial.solve_radial(problem, n, r_max)
        assert abs(eps / oracle.solve_radial(problem, n, r_max) - 1.0) <= 1e-10
