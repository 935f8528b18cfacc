"""Configuration-space Lagrange-mesh solver, its shooting oracles and analytic references."""

import math

import numpy as np
import pytest
import scipy.integrate

import radial_nodes_oracle as oracle
import radial_prufer_oracle as prufer
from chebquark import cli, radial
from chebquark import references as refs
from chebquark.kernels import Problem


def _no_solve(*args, **kwargs):
    raise AssertionError("mesh solved before the input was checked")


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
        monkeypatch.setattr(radial, "_level", _no_solve)
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            radial.solve_radial(Problem(), n)

    @pytest.mark.parametrize("r_max", (math.nan, math.inf, -1.0, 0.0))
    def test_rejects_bad_domain_before_integrating(self, r_max, monkeypatch):
        monkeypatch.setattr(radial, "_level", _no_solve)
        with pytest.raises(ValueError, match="r_max must be positive and finite"):
            radial.solve_radial(Problem(), 0, r_max=r_max)

    # a mesh ending inside the turning point squeezes the level upward
    # (8.19 and 3.01 against 2.338)
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

    def test_explicit_domain_cutoff_respected(self):
        pb = Problem(ell=0, alpha=0.0, linear=True, s=1.0)
        assert abs(radial.solve_radial(pb, 0, r_max=25.0) / radial.airy_reference(1) - 1.0) < 1e-10

    # the internals of the Prüfer shooting solver, now the test oracle in
    # radial_prufer_oracle.py

    def test_outward_phase_counts_nodes_of_converged_solution(self):
        # the zeros of u on (0, r] are the multiples of pi the phase has passed
        pb = Problem(ell=1, alpha=0.5, linear=True, s=1.0)
        eps = prufer.solve_radial(pb, 3)
        tol = (prufer._RTOL, prufer._ATOL)

        def zeros(e):
            r_end = prufer._r_max(pb, None, e)
            return math.floor(prufer._phase_out(pb, e, r_end, tol) / math.pi)

        assert zeros(eps - 0.01) == 3
        assert zeros(eps + 0.01) == 4

    def test_no_sign_change_is_a_runtime_error(self, monkeypatch):
        monkeypatch.setattr(prufer, "_phase_mismatch", lambda *args: 1.0)
        with pytest.raises(RuntimeError, match="does not change sign"):
            prufer.solve_radial(Problem(ell=0, alpha=0.0, linear=True, s=1.0), 0)

    def test_failed_integration_is_a_runtime_error(self, monkeypatch):
        def failing(*args, **kwargs):
            sol = scipy.integrate.solve_ivp(*args, **kwargs)
            sol.success, sol.message = False, "step size too small"
            return sol

        monkeypatch.setattr(prufer, "solve_ivp", failing)
        with pytest.raises(RuntimeError, match="step size too small"):
            prufer.solve_radial(Problem(ell=0, alpha=0.0, linear=True, s=1.0), 0)

    def test_coulomb_bracket_root_find_cost(self, monkeypatch):
        # the bracket E(n -+ 1/2) holds level n alone and stays below the
        # continuum, so the root-find needs few mismatch evaluations
        calls = []
        real = prufer._phase_mismatch

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(prufer, "_phase_mismatch", counting)
        pb = Problem(ell=0, alpha=1.0, linear=False, s=1.0)
        eps = prufer.solve_radial(pb, 4)
        assert abs(eps / radial.hydrogen_energy(4, 0, 1.0, 0.5) - 1.0) < 1e-9
        assert len(calls) <= 20

    def test_integrations_per_level(self, monkeypatch):
        # every integration goes through the module's solve_ivp: each one
        # builds exactly one stepper
        calls, steppers = [], []
        real_ivp = prufer.solve_ivp
        real_init = scipy.integrate.DOP853.__init__

        def counting_ivp(*args, **kwargs):
            calls.append(1)
            return real_ivp(*args, **kwargs)

        def counting_init(self, *args, **kwargs):
            steppers.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(prufer, "solve_ivp", counting_ivp)
        monkeypatch.setattr(scipy.integrate.DOP853, "__init__", counting_init)
        prufer.solve_radial(Problem(ell=0, alpha=0.0, linear=True, s=1.0), 0)
        assert 0 < len(calls) <= 45
        assert len(steppers) == len(calls)


class TestPruferOracle:
    """The mesh agrees with the Prüfer shooting solver it replaced."""

    @pytest.mark.parametrize("problem, n, r_max", (
        (refs.linear_params(0), 1, None),
        (refs.linear_params(4), 4, None),
        (refs.linear_params(12), 0, None),
        (refs.coulomb_params(2), 0, None),
        (refs.coulomb_params(0), 4, None),
        (refs.cornell_params("charm", 0), 0, None),
        (refs.cornell_params("bottom", 2), 2, None),
        (Problem(ell=0, alpha=0.0, linear=True, s=1.0), 0, 25.0),
    ), ids=("linear-l0-n1", "linear-l4-n4", "linear-l12-n0", "coulomb-l2-n0",
            "coulomb-l0-n4", "charm-l0-n0", "bottom-l2-n2", "airy-n0-rmax25"))
    def test_agrees_with_prufer(self, problem, n, r_max):
        eps = radial.solve_radial(problem, n, r_max)
        assert abs(eps / prufer.solve_radial(problem, n, r_max) - 1.0) <= 1e-9

    # the N = 40 mesh is off by 7e-9 (ell = 20, n = 4) and 2.7e-9 (ell = 30,
    # n = 2) here, so these levels come from N = 50 checked by N = 60
    @pytest.mark.parametrize("ell, n", ((20, 4), (30, 2)))
    def test_high_ell(self, ell, n):
        problem = refs.linear_params(ell)
        eps = radial.solve_radial(problem, n)
        assert abs(eps / prufer.solve_radial(problem, n) - 1.0) <= 1e-9


class TestMeshRobustness:
    """Every level is right to 1e-9 or the solve raises."""

    def test_disagreeing_orders_raise(self, monkeypatch):
        # 8- to 12-point meshes cannot resolve a level to 1e-9
        monkeypatch.setattr(radial, "_ORDERS", (8, 10, 12))
        with pytest.raises(RuntimeError, match="no two agreeing values"):
            radial.solve_radial(refs.linear_params(0), 0)

    def test_compare_reports_disagreeing_orders(self, monkeypatch):
        monkeypatch.setattr(radial, "_ORDERS", (8, 10, 12))
        cfg = cli.parse_config(
            "command = compare\npotential = linear\ns = 1\nell = 0\nlevels = 1\nN = 60\n")
        report = cli.run(cfg)
        assert report.status == cli.EXIT_NUMERICAL
        assert report.extra["compare"] == []
        assert any("ell=0 n=0: coordinate solver failed: mesh orders" in line
                   for line in report.diagnostics)

    def test_coulomb_level_outside_its_bracket_raises(self, monkeypatch):
        # a bracket that misses the level stands for a mesh eigenvalue that
        # both orders put at the wrong index
        monkeypatch.setattr(radial, "_coulomb_bracket", lambda problem, n: (-1.0, -0.9))
        with pytest.raises(RuntimeError, match="outside its Coulomb bracket"):
            radial.solve_radial(refs.coulomb_params(0), 0)

    def test_level_beyond_the_mesh_raises(self):
        with pytest.raises(RuntimeError, match="beyond the 40-point mesh"):
            radial.solve_radial(refs.linear_params(0), 40)

    # the domain of `_r_max` has margins in absolute lengths; taken in the
    # problem's natural units these levels come back, within 6e-12
    @pytest.mark.parametrize("s", (1e-4, 1e4))
    @pytest.mark.parametrize("n", (0, 4))
    def test_extreme_s_linear(self, s, n):
        eps = radial.solve_radial(Problem(ell=0, alpha=0.0, linear=True, s=s), n)
        assert abs(eps / (s ** (1.0 / 3.0) * radial.airy_reference(n + 1)) - 1.0) <= 1e-9

    def test_extreme_s_linear_ell2(self):
        # eps(ell, s, 0) = s^(1/3) eps(ell, 1, 0), with the shooting oracle
        # at s = 1: at s = 1e4 its own domain is too short (8e-5 off at ell = 0)
        ref = prufer.solve_radial(refs.linear_params(2), 2)
        for s in (1e-4, 1e4):
            eps = radial.solve_radial(Problem(ell=2, alpha=0.0, linear=True, s=s), 2)
            assert abs(eps / (s ** (1.0 / 3.0) * ref) - 1.0) <= 1e-9

    @pytest.mark.parametrize("s", (1e-4, 1e4))
    @pytest.mark.parametrize("ell, n", ((0, 0), (0, 4), (2, 2)))
    def test_extreme_s_coulomb(self, s, ell, n):
        eps = radial.solve_radial(Problem(ell=ell, alpha=1.0, linear=False, s=s), n)
        assert abs(eps / radial.hydrogen_energy(n, ell, 1.0, 0.5 / s) - 1.0) <= 1e-9

    # natural length s/alpha = inf; natural alpha = inf; H overflows
    @pytest.mark.parametrize("problem", (
        Problem(ell=0, alpha=1e-300, linear=False, s=1e300),
        Problem(ell=0, alpha=1e300, linear=True, s=1e-300),
        Problem(ell=0, alpha=1e152, linear=False, s=1.0),
    ), ids=("coulomb-length", "cornell-alpha", "coulomb-matrix"))
    def test_scales_out_of_range_raise(self, problem):
        with pytest.raises(RuntimeError, match="out of floating-point range|not finite"):
            radial.solve_radial(problem, 0)

    def test_mesh_tables_cached_read_only(self):
        x, T = radial._mesh(40)
        assert radial._mesh(40)[1] is T
        assert not T.flags.writeable
        assert np.array_equal(T, T.T)


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
