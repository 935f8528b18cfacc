"""Configuration-space Lagrange-mesh solver, its shooting oracle and analytic references."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_laguerre

import radial_prufer_oracle as prufer
from chebquark import cli, radial
from chebquark import momentum as mom
from chebquark import references as refs
from chebquark.kernels import Problem


def _no_solve(*args, **kwargs):
    raise AssertionError("mesh solved before the input was checked")


def _largest_root(mp, problem, eps):
    """Largest positive real root of x^2 (V_eff - eps) at 40 digits, or 0."""
    with mp.workdps(40):
        coeffs = [-eps, -problem.alpha, problem.s * problem.ell * (problem.ell + 1)]
        coeffs = [mp.mpf(c) for c in ([1.0, *coeffs] if problem.linear else coeffs)]
        while coeffs[0] == 0:
            coeffs.pop(0)
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
        real = [mp.re(r) for r in roots if abs(mp.im(r)) <= mp.mpf(10) ** -30 * (1 + abs(r))]
        return max((r for r in real if r > 0), default=mp.mpf(0))


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
        # non-finite couplings, and quantum numbers that are bool or not integral
        for args in ((0, 0, float("nan"), 1.0), (0, 0, 1.0, float("inf")), (0, 0, float("inf"), 1.0),
                     (True, 0, 1.0, 1.0), (0, False, 1.0, 1.0), (0.5, 0, 1.0, 1.0), (0, 1.0, 1.0, 1.0)):
            with pytest.raises(ValueError):
                radial.hydrogen_energy(*args)

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
        for nu in (True, 2.0, 1.5):
            with pytest.raises(ValueError):
                radial.airy_reference(nu)


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
            radial.solve_radial(Problem(kinetic="salpeter", s=0.5), 0)

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
        # the module docstring's 4e-15, with tenfold room (9.1e-13 on the subset syevr)
        for nu in range(1, 6):
            pb = Problem(ell=0, alpha=0.0, linear=True, s=1.0)
            eps = radial.solve_radial(pb, nu - 1)
            assert abs(eps / radial.airy_reference(nu) - 1.0) < 4e-14

    def test_hydrogen_ground_state(self):
        pb = Problem(ell=0, alpha=1.0, linear=False, s=0.5)
        assert abs(radial.solve_radial(pb, 0) + 0.5) < 1e-10

    def test_hydrogen_excited_states(self):
        # every ell 0-40, n 0-4, the circular orbits (n = 0, high ell) among them, whose
        # r^(ell+1) tail reaches far past the outer turning point: the module docstring's
        # 1.1e-12, with tenfold room (1.5e-10 on the subset syevr)
        for ell, n in itertools.product(range(41), range(5)):
            pb = Problem(ell=ell, alpha=1.0, linear=False, s=1.0)
            exact = radial.hydrogen_energy(n, ell, 1.0, 0.5)
            assert abs(radial.solve_radial(pb, n) / exact - 1.0) < 1e-11, (ell, n)

    def test_linear_ell3_published_value(self):
        pb = Problem(ell=3, alpha=0.0, linear=True, s=1.0)
        assert abs(radial.solve_radial(pb, 4) - 9.627267) < 5e-7

    def test_cornell_monotone_in_n_and_ell(self):
        def solve(ell, n):
            return radial.solve_radial(Problem(ell=ell, alpha=0.5, linear=True, s=1.0), n)
        e00, e01, e10 = solve(0, 0), solve(0, 1), solve(1, 0)
        assert e00 < e01
        assert e00 < e10


PRUFER_CASES = (
    (Problem(ell=0), 0),
    (Problem(ell=0), 1),
    (Problem(ell=4), 4),
    (Problem(ell=12), 0),
    (Problem(ell=1, alpha=1.0, linear=False), 1),
    (Problem(ell=2, alpha=1.0, linear=False), 0),
    (Problem(ell=0, alpha=1.0, linear=False), 4),
    (Problem(ell=0, alpha=refs.CORNELL_ALPHA, s=refs.physical_scales("charm").s), 0),
    (Problem(ell=2, alpha=refs.CORNELL_ALPHA, s=refs.physical_scales("bottom").s), 2),
)
PRUFER_IDS = ("linear-l0-n0", "linear-l0-n1", "linear-l4-n4", "linear-l12-n0", "coulomb-l1-n1",
              "coulomb-l2-n0", "coulomb-l0-n4", "charm-l0-n0", "bottom-l2-n2")


class TestPruferOracle:
    """The mesh agrees with the Prüfer shooting solver it replaced."""

    @pytest.mark.parametrize("problem, n", PRUFER_CASES, ids=PRUFER_IDS)
    def test_agrees_with_prufer(self, problem, n):
        eps = radial.solve_radial(problem, n)
        assert abs(eps / prufer.solve_radial(problem, n) - 1.0) <= 1e-10

    # the N = 40 mesh is off by 7e-9 (ell = 20, n = 4) and 2.7e-9 (ell = 30,
    # n = 2) here, so these levels come from N = 50 checked by N = 60
    @pytest.mark.parametrize("ell, n", ((20, 4), (30, 2)))
    def test_high_ell(self, ell, n):
        problem = Problem(ell=ell)
        eps = radial.solve_radial(problem, n)
        assert abs(eps / prufer.solve_radial(problem, n) - 1.0) <= 1e-9

    # radial's domain end does not truncate the level: on a domain that reaches past
    # it and past the oracle's own end, the same mesh order gives the same level
    @pytest.mark.parametrize("problem, n", (
        *PRUFER_CASES, (Problem(ell=20), 4), (Problem(ell=30), 2),
    ), ids=(*PRUFER_IDS, "linear-l20-n4", "linear-l30-n2"))
    def test_domain_reaches_past_radials(self, problem, n):
        eps = radial.solve_radial(problem, n)
        length, energy, unit = problem.natural_units()
        r_end = length * radial._r_max(unit, eps / energy)
        x_match = max(prufer._turning_point(problem, eps), 0.5)
        r_far = max(prufer._domain_end(problem, eps, x_match), 1.25 * r_end)
        near, far = (radial._level(problem, n, radial._ORDERS[1], r) for r in (r_end, r_far))
        assert abs(near / far - 1.0) <= (1e-9 if problem.ell >= 20 else 1e-10)


class TestTurningPoint:
    def test_narrow_allowed_interval(self):
        # linear ell 6, alpha 0.5, s 0.1 at its level n = 0, in natural units:
        # allowed only on (3.15, 5.79), so the bound lies at or past 5.79
        length, energy, unit = Problem(ell=6, alpha=0.5, s=0.1).natural_units()
        eps = 3.0818558383809878 / energy
        x = radial._turning_point(unit, eps)
        beyond = x * (1.0 + np.logspace(-6, 3, 50))
        assert np.all(-unit.alpha / beyond + beyond + unit.ell * (unit.ell + 1) / beyond ** 2
                      > eps)

    # forbidden everywhere (V_eff = x > -1), and a Coulomb wave allowed
    # everywhere at the threshold eps = 0
    @pytest.mark.parametrize("problem, eps", (
        (Problem(ell=0, alpha=0.0, s=1.0), -1.0),
        (Problem(ell=0, alpha=1.0, linear=False, s=1.0), 0.0),
    ), ids=("linear-forbidden", "coulomb-threshold"))
    def test_no_positive_root_is_zero(self, problem, eps):
        assert radial._turning_point(problem, eps) == 0.0

    # the bound on the largest root of x^2 (V_eff - eps) over grids that give it three
    # real roots, one real root (below the minimum of V_eff, or eps < 0 at alpha = ell = 0)
    # and eps = -3e4, where the largest root is far below the others; without the linear
    # term, the threshold eps = 0 and both sides of the minimum -alpha^2/(4 s l(l+1)) of V_eff
    @pytest.mark.parametrize("linear, alphas, ells, epsilons", (
        (True, (0.0, 0.5, 2.0, 400.0), (0, 1, 6), (-3e4, -20.0, -1.0, -1e-9, 0.0, 1e-9, 1.0, 20.0)),
        (False, (0.5, 3.0), (0, 1, 6), (-20.0, -1.0, -0.01, 0.0, 0.01, 1.0)),
        # eps 1e-3 on either side of the V_eff minimum, where the top two roots merge:
        # 0 at alpha 3, ell 1 with the linear term, -1/2 at alpha 2, ell 1 without
        (True, (3.0,), (1,), (-1e-3, 1e-3)),
        (False, (2.0,), (1,), (-0.5 - 1e-3, -0.5 + 1e-3)),
    ), ids=("cubic", "quadratic", "cubic-merger", "quadratic-merger"))
    def test_largest_root_against_mpmath(self, linear, alphas, ells, epsilons):
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        for alpha, ell, eps in itertools.product(alphas, ells, epsilons):
            problem = Problem(ell=ell, alpha=alpha, linear=linear, s=1.0)
            got, want = radial._turning_point(problem, eps), _largest_root(mp, problem, eps)
            if not linear and eps >= 0.0:
                # allowed out to infinity: there is no outer turning point
                assert got == 0.0, (alpha, ell, eps)
            elif ell > 0:
                assert got >= want, (alpha, ell, eps)
            elif want == 0:
                assert got == 0.0, (alpha, ell, eps)
            else:
                # without a centrifugal term the bound is the root itself
                worst = max(worst, float(abs(got / want - 1)))
        assert worst <= 1e-14

    def test_check_reuses_the_settled_domain(self, monkeypatch):
        # the turning-point check is at the eps whose domain settled the loop:
        # one root per domain, then the last root at the last domain's eps
        ends, roots = [], []
        r_max, turning_point = radial._r_max, radial._turning_point

        def recorded(record, fn):
            def wrapper(problem, eps):
                record.append(eps)
                return fn(problem, eps)
            return wrapper

        monkeypatch.setattr(radial, "_r_max", recorded(ends, r_max))
        monkeypatch.setattr(radial, "_turning_point", recorded(roots, turning_point))
        radial.solve_radial(Problem(ell=2, alpha=0.5, s=0.1), 1)
        assert len(ends) > 1
        assert roots == ends + ends[-1:]

    def test_unsettled_domain_is_still_checked(self, monkeypatch):
        # a domain end that jumps between 1 and 2 never settles, and both lie
        # inside the turning point of the level (2.34): the check still runs
        ends = iter([1.0, 2.0] * 5)
        monkeypatch.setattr(radial, "_r_max", lambda problem, eps: next(ends))
        with pytest.raises(RuntimeError, match="is not beyond the turning point"):
            radial.solve_radial(Problem(), 0)


class TestMesh:
    @pytest.mark.parametrize("N", radial._ORDERS)
    def test_nodes_are_the_laguerre_zeros(self, N):
        x, T = radial._mesh(N)
        assert np.max(np.abs(x / roots_laguerre(N)[0] - 1.0)) <= 5e-13
        assert np.array_equal(T, T.T)
        assert not T.flags.writeable

    # a level is one symmetric eigenvalue: the radial solver runs no general eigensolver,
    # and no np.roots, which costs 27 us a call and holds its own reference to eigvals
    @pytest.mark.parametrize("problem, n", (
        (Problem(ell=2), 1),
        (Problem(ell=1, alpha=1.0, linear=False), 2),
        (Problem(ell=1, alpha=refs.CORNELL_ALPHA, s=refs.physical_scales("charm").s), 0),
    ), ids=("linear", "coulomb", "cornell"))
    def test_solve_calls_no_general_eigensolver(self, problem, n, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("general eigensolver called")

        for module, name in ((np, "roots"), (np.linalg, "eig"), (np.linalg, "eigvals")):
            monkeypatch.setattr(module, name, forbidden)
        radial._mesh.cache_clear()
        radial.solve_radial(problem, n)

    def test_solve_loads_no_scipy(self):
        # numpy.linalg serves every radial eigenproblem, so the oracle adds nothing to a start
        code = ("import sys\n"
                "from chebquark import radial\n"
                "from chebquark import references as refs\n"
                "from chebquark.kernels import Problem\n"
                "radial.solve_radial(Problem(ell=2), 1)\n"
                "radial.solve_radial(Problem(ell=1, alpha=1.0, linear=False), 2)\n"
                "radial.solve_radial(Problem(ell=1, alpha=refs.CORNELL_ALPHA,\n"
                "                            s=refs.physical_scales('charm').s), 0)\n"
                "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", code],
                             env={**os.environ, "PYTHONPATH": str(src)},
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == []


class TestMeshRobustness:
    """Every level is right to 1e-9 or the solve raises."""

    def test_disagreeing_orders_raise(self, monkeypatch):
        # 8- to 12-point meshes cannot resolve a level to 1e-9
        monkeypatch.setattr(radial, "_ORDERS", (8, 10, 12))
        with pytest.raises(RuntimeError, match="no two agreeing values"):
            radial.solve_radial(Problem(ell=0), 0)

    def test_compare_reports_disagreeing_orders(self, monkeypatch):
        monkeypatch.setattr(radial, "_ORDERS", (8, 10, 12))
        cfg = cli.build_config(cli.read_config(
            "command = compare\npotential = linear\ns = 1\nell = 0\nlevels = 1\nN = 60\n"))
        report = cli.run(cfg)
        assert report.status == cli.EXIT_NUMERICAL
        assert report.extra["compare"] == []
        assert any("ell=0 n=0: coordinate solver failed: mesh orders" in line
                   for line in report.diagnostics)

    def test_coulomb_level_outside_its_bracket_raises(self, monkeypatch):
        # both mesh orders agree on the eigenvalue at the wrong index, n + 1
        level = radial._level
        monkeypatch.setattr(radial, "_level",
                            lambda problem, n, N, r_end: level(problem, n + 1, N, r_end))
        with pytest.raises(RuntimeError, match="outside its Coulomb bracket"):
            radial.solve_radial(Problem(ell=0, alpha=1.0, linear=False), 0)

    def test_level_beyond_the_mesh_raises(self):
        with pytest.raises(RuntimeError, match="beyond the 40-point mesh"):
            radial.solve_radial(Problem(ell=0), 40)

    # the domain of `_r_max` has margins in absolute lengths; taken in the
    # problem's natural units these levels come back, within 6e-12
    @pytest.mark.parametrize("s", (1e-4, 1e4))
    @pytest.mark.parametrize("n", (0, 4))
    def test_extreme_s_linear(self, s, n):
        eps = radial.solve_radial(Problem(ell=0, alpha=0.0, linear=True, s=s), n)
        assert abs(eps / (s ** (1.0 / 3.0) * radial.airy_reference(n + 1)) - 1.0) <= 1e-9

    def test_extreme_s_linear_ell2(self):
        # eps(ell, s, 0) = s^(1/3) eps(ell, 1, 0), with the shooting oracle at s = 1
        ref = prufer.solve_radial(Problem(ell=2), 2)
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
    # two orders to agree; and two levels whose classically allowed interval
    # is narrower than a factor of 2 (3.15 to 5.79 natural lengths at ell 6)
    @pytest.mark.parametrize("problem, N, sigma, count", (
        (Problem(ell=0, alpha=0.5, s=1e-4), 200, 1250.0, 2),
        (Problem(ell=6, alpha=0.5, s=0.1), 300, None, 1),
        (Problem(ell=7, alpha=0.5, s=0.1), 300, None, 1),
    ), ids=("ell0-s1e-4", "ell6-s0.1", "ell7-s0.1"))
    def test_deep_cornell_level(self, problem, N, sigma, count):
        levels, complete = mom.solve_levels(problem, N, sigma, count)
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
