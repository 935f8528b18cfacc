"""Configuration-space shooting solver and analytic references."""

import numpy as np
import pytest

from chebquark import radial
from chebquark.kernels import Problem


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
        assert radial._node_count(pb, 3, None, eps - 0.01) == 3
        assert radial._node_count(pb, 3, None, eps + 0.01) == 4

    def test_explicit_domain_cutoff_respected(self):
        pb = Problem(ell=0, alpha=0.0, linear=True, s=1.0)
        assert abs(radial.solve_radial(pb, 0, r_max=25.0) / radial.airy_reference(1) - 1.0) < 1e-10
