"""Configuration-space Lagrange-mesh solver, its shooting oracle and analytic references."""

import numpy as np
import pytest

import radial_prufer_oracle as prufer
from chebquark import cli, radial
from chebquark import momentum as mom
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

    def test_table2_airy_row_is_the_printed_row(self):
        # the graded ell = 0 row is built from the Airy zeros; it must read
        # as the paper printed it
        assert refs.TABLE2_EXACT[0] == (2.338107, 4.087949, 5.520560, 6.786708, 7.944134)

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

    # a mesh ending inside the turning point squeezes the level upward
    # (8.19 and 3.01 against 2.338)
    @pytest.mark.parametrize("r_end", (1.0, 2.0))
    def test_domain_inside_matching_point_is_a_runtime_error(self, r_end, monkeypatch):
        monkeypatch.setattr(radial, "_r_max", lambda problem, eps: r_end)
        with pytest.raises(RuntimeError, match="is not beyond the turning point"):
            radial.solve_radial(Problem(), 0)


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


class TestPruferOracle:
    """The mesh agrees with the Prüfer shooting solver it replaced."""

    @pytest.mark.parametrize("problem, n", (
        (refs.linear_params(0), 0),
        (refs.linear_params(0), 1),
        (refs.linear_params(4), 4),
        (refs.linear_params(12), 0),
        (refs.coulomb_params(1), 1),
        (refs.coulomb_params(2), 0),
        (refs.coulomb_params(0), 4),
        (refs.cornell_params("charm", 0), 0),
        (refs.cornell_params("bottom", 2), 2),
    ), ids=("linear-l0-n0", "linear-l0-n1", "linear-l4-n4", "linear-l12-n0", "coulomb-l1-n1",
            "coulomb-l2-n0", "coulomb-l0-n4", "charm-l0-n0", "bottom-l2-n2"))
    def test_agrees_with_prufer(self, problem, n):
        eps = radial.solve_radial(problem, n)
        assert abs(eps / prufer.solve_radial(problem, n) - 1.0) <= 1e-10

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

    # a deep Cornell level, Coulomb-like with a Bohr length of 4e-4: a margin
    # of ten natural lengths (0.46 here) would spread the mesh too thin for
    # two orders to agree
    def test_deep_cornell_level(self):
        problem = Problem(ell=0, alpha=0.5, s=1e-4)
        levels, complete = mom.solve_levels(problem, 200, 1250.0, 2)
        assert complete
        for lv in levels:
            assert abs(radial.solve_radial(problem, lv.n) / lv.epsilon - 1.0) <= 1e-9

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
