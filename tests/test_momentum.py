"""Momentum-space solver: the rational map, assembly, spectra, wavefunctions."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import assembly_oracle
from cheb_interpolation import wavefunction_at
from chebquark import cheb
from chebquark import momentum as mom
from chebquark import radial
from chebquark import references as refs
from chebquark.kernels import Problem
from kernel_oracle import kernel_pieces


class TestMapping:
    def test_rational_examples(self):
        assert mom.mapped_nodes(0.0, 1.0) == (1.0, 2.0)
        x, j = mom.mapped_nodes(0.5, 2.0)
        assert abs(x - 6.0) < 1e-14
        assert abs(j - 16.0) < 1e-14

    def test_small_t_limit_linear(self):
        delta = 1e-8
        x, _ = mom.mapped_nodes(-1.0 + delta, 1.0)
        assert abs(x - 0.5 * delta) < 1e-15

    def test_jacobian_by_finite_difference(self):
        t = np.linspace(-0.95, 0.95, 31)
        x, J = mom.mapped_nodes(t, 1.7)
        assert np.all(np.diff(x) > 0.0)
        h = 1e-7
        fd = (mom.mapped_nodes(t + h, 1.7)[0] - mom.mapped_nodes(t - h, 1.7)[0]) / (2.0 * h)
        assert np.allclose(J, fd, rtol=1e-6)

    def test_rejects_bad_sigma(self):
        t = cheb.chebyshev_grid(8).nodes
        for sigma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                mom.mapped_nodes(t, sigma)
            with pytest.raises(ValueError):
                mom.solve_levels(refs.linear_params(0), 8, sigma, 1)

    def test_rejects_non_integral_order(self):
        # also once the grid of the integral order is cached
        mom.solve_levels(refs.linear_params(0), 80, 1.0, 2)
        for N in (80.0, 80.7):
            with pytest.raises(ValueError):
                mom.solve_levels(refs.linear_params(0), N, 1.0, 2)


class TestParams:
    def test_salpeter_needs_masses(self):
        with pytest.raises(ValueError):
            Problem(kinetic="salpeter")

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            Problem(alpha=-0.1)


class TestAssembly:
    def test_disabled_potentials_rejected(self):
        with pytest.raises(ValueError):
            Problem(alpha=0.0, linear=False)

    def test_matrix_is_finite(self):
        grid = cheb.chebyshev_grid(30)
        for ell in range(4):
            params = Problem(ell=ell, alpha=0.4)
            V = mom.assemble_potential(params, grid, 1.0, *mom.mapped_nodes(grid.nodes, 1.0))
            assert np.all(np.isfinite(V))

    @pytest.mark.parametrize("N", (10, 800))
    def test_hopeless_ell_fails_before_assembly(self, N, monkeypatch):
        # P_ell overflows at the kernel corner from ell = 70 at N = 10 and 26
        # at N = 800; a recurrence run to ell = 10**9 would take minutes
        def no_recurrence(ell, z):
            raise AssertionError(f"kernel recurrence run to ell = {ell}")
        monkeypatch.setattr(mom, "legendre_P", no_recurrence)
        monkeypatch.setattr(mom, "w_poly", no_recurrence)
        with pytest.raises(RuntimeError, match="non-finite"):
            mom.solve_levels(Problem(ell=10**9), N, 1.0, 3)

    @pytest.mark.parametrize(("N", "ell"), ((4, 110), (20, 55), (80, 39)))
    @pytest.mark.parametrize("case", ("coulomb", "linear", "cornell"))
    def test_corner_check_stops_only_non_finite_matrices(self, case, N, ell, monkeypatch):
        # ell is the first at which P_ell overflows at the corner z[0, N-1]:
        # there the assembled corner entry is non-finite, and one ell lower
        # the solve still reaches the assembly
        grid = cheb.chebyshev_grid(N)
        with np.errstate(all="ignore"):
            V = mom.assemble_potential(SELECTION_CASES[case][0](ell), grid, 1.0,
                                       *mom.mapped_nodes(grid.nodes, 1.0))
        assert not np.isfinite(V[0, N - 1])

        class Assembled(Exception):
            pass

        def assembled(problem, *args):
            raise Assembled

        monkeypatch.setattr(mom, "assemble_potential", assembled)
        with pytest.raises(Assembled):
            mom.solve_levels(SELECTION_CASES[case][0](ell - 1), N, 1.0, 1)
        with pytest.raises(RuntimeError, match="non-finite"):
            mom.solve_levels(SELECTION_CASES[case][0](ell), N, 1.0, 1)

    def test_coulomb_attractive_quadratic_form(self):
        grid = cheb.chebyshev_grid(40)
        params = Problem(ell=0, alpha=1.0, linear=False)
        x, J = mom.mapped_nodes(grid.nodes, 1.0)
        V = mom.assemble_potential(params, grid, 1.0, x, J)
        phi = np.exp(-x)     # smooth positive test vector
        form = np.sum(grid.plain_weights * J * x * x * phi * (V @ phi))
        assert form < 0.0

    def test_kinetic_modes(self):
        params = Problem(s=1.0)
        x = np.array([0.0, 1.0, 3.0])
        assert np.allclose(mom.kinetic_diagonal(params, x), x * x)
        rel = Problem(kinetic="salpeter", am=2.0)
        k = mom.kinetic_diagonal(rel, x)
        assert k[0] == 0.0
        big = mom.kinetic_diagonal(rel, np.array([500.0]))[0]
        assert abs(big - (2.0 * 500.0 - 4.0)) < 0.01

    @pytest.mark.parametrize("ell", range(4))
    @pytest.mark.parametrize("case", ("coulomb", "linear", "cornell"))
    def test_matches_kernel_pieces_entry_by_entry(self, case, ell):
        # rebuild V from the scalar oracle, the grid's tables and the closed
        # forms of the rational map: log remainder S_ij = 1 - t_i t_j and
        # (t_j-t_i)/(x_j-x_i) = h_i (1-t_j) with h_i = (1-t_i)/(2 sigma)
        problem = SELECTION_CASES[case][0](ell)
        grid = cheb.chebyshev_grid(10)
        sigma = 0.8
        t, w = grid.nodes, grid.plain_weights
        pv, fp = cheb.pv_weight_table(grid)
        lg = cheb.log_weight_table(grid)
        x, J = mom.mapped_nodes(t, sigma)
        V = np.zeros((grid.N, grid.N))
        for i in range(grid.N):
            h = (1.0 - t[i]) / (2.0 * sigma)
            for j in range(grid.N):
                kp = kernel_pieces(ell, x[i], x[j], problem.alpha)
                log_w = (w[j] * np.log(1.0 - t[i] * t[j]) - lg[i, j]) * J[j]
                reg_w = w[j] * J[j]
                if problem.linear:
                    fp_w = h * ((1.0 - t[j]) * fp[i, j] + pv[i, j])
                    V[i, j] += (kp.linear_log_coeff * log_w + kp.linear_regular * reg_w
                                + kp.pv_factor * fp_w)
                V[i, j] += kp.coulomb_log_coeff * log_w + kp.coulomb_regular * reg_w
        want = mom.assemble_potential(problem, grid, sigma, x, J)
        np.testing.assert_allclose(V, want, rtol=1e-12, atol=0.0)

    def test_log_remainder_closed_form(self):
        # S_ij = (x_j+x_i)|t_j-t_i|/|x_j-x_i| is 1 - t_i t_j off the
        # diagonal, with the diagonal limit 2 x_i / J_i
        t = cheb.chebyshev_grid(12).nodes
        x, J = mom.mapped_nodes(t, 1.7)
        i, j = np.triu_indices(len(t), 1)
        S = (x[j] + x[i]) * np.abs((t[j] - t[i]) / (x[j] - x[i]))
        np.testing.assert_allclose(S, 1.0 - t[i] * t[j], rtol=1e-13)
        np.testing.assert_allclose(2.0 * x / J, 1.0 - t * t, rtol=1e-13)

    def test_solve_memory_does_not_grow_with_ell(self):
        # H, which LAPACK factors in place on the Arnoldi path, is the only
        # N x N array of a solve; assembly adds at most eleven row-block
        # buffers (ell = 7), which then set the peak, and ARPACK its N x ncv basis:
        # scipy's default ncv = max(20, 2k + 1) is 20 columns at k = count + 2 = 7
        N = 800
        grid = cheb.chebyshev_grid(N)
        for table in ("plain_weights", "q0_table", "pole_table"):
            getattr(grid, table)
        block_bytes = cheb.BLOCK_ELEMENTS * 8
        basis_bytes = N * 20 * 8
        for ell in (0, 2, 7):
            tracemalloc.start()
            try:
                mom.solve_levels(refs.linear_params(ell), N, 1.0, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * N**2 + 12 * block_bytes + basis_bytes, ell

    def test_grid_keeps_only_the_two_kernel_rules(self, monkeypatch):
        # a Cornell ell = 2 solve reads every kernel term; afterwards its
        # fresh grid holds two N x N arrays, the rules assembly reads
        monkeypatch.setattr(cheb, "chebyshev_grid", functools.lru_cache(cheb.ChebGrid))
        N = 40
        mom.solve_levels(refs.cornell_params("charm", 2), N, 1.0, 3)
        grid = cheb.chebyshev_grid(N)
        assert sorted(vars(grid)) == ["N", "nodes", "plain_weights", "pole_table", "q0_table"]
        for table in (grid.q0_table, grid.pole_table):
            assert table.shape == (N, N)
            assert not table.flags.writeable
            assert table.flags.c_contiguous

    @pytest.mark.parametrize("N", (20, 80, 300))
    @pytest.mark.parametrize("case", ("coulomb", "cornell", "linear", "salpeter"))
    def test_bit_identical_to_vectorized_assembly(self, case, N):
        # same floating-point operations in the same order as the
        # whole-matrix formulas, on the log table from the earlier build and
        # the grid's own PV and finite-part tables; H adds the same kinetic
        # diagonal to both
        make_params, sigma = SELECTION_CASES[case]
        grid = cheb.chebyshev_grid(N)
        oracle = oracle_grid(N)
        x, J = mom.mapped_nodes(grid.nodes, sigma)
        for ell in range(8):
            params = make_params(ell)
            got = mom.assemble_potential(params, grid, sigma, x, J)
            want = assembly_oracle.assemble_potential(params, oracle, sigma, x, J)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("N", (80, 300, 800))
    @pytest.mark.parametrize("case", ("coulomb", "cornell", "linear", "salpeter"))
    def test_row_blocks_equal_the_whole_matrix(self, case, N, monkeypatch):
        # solve_levels writes d H d^-1 in row blocks: one block at N = 80, a
        # ragged last block at N = 300, twenty at N = 800
        class Handed(Exception):
            pass

        def handed(Hs, *args, **kwargs):
            raise Handed(Hs)

        monkeypatch.setattr(mom, "solve_spectrum", handed)
        make_params, sigma = SELECTION_CASES[case]
        grid = cheb.chebyshev_grid(N)
        x, J = mom.mapped_nodes(grid.nodes, sigma)
        for ell in range(8):
            params = make_params(ell)
            with pytest.raises(Handed) as got:
                mom.solve_levels(params, N, sigma, 5)
            assert np.array_equal(got.value.args[0],
                                  scaled_hamiltonian(params, grid, sigma, x, J))


@functools.cache
def oracle_grid(N):
    return assembly_oracle.oracle_grid(cheb.chebyshev_grid(N))


class TestSpectrum:
    def test_diagonal_matrix(self):
        evals, evecs = mom.solve_spectrum(np.diag([1.0, 2.0, 3.0]), np.ones(3))
        assert np.allclose(sorted(evals.real), [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(evecs), np.eye(3), atol=1e-12)

    def test_dense_path_leaves_its_input_unchanged(self):
        # the Arnoldi path factors its input in place; the dense one copies it
        params = refs.linear_params(2)
        grid = cheb.chebyshev_grid(200)
        x, J = mom.mapped_nodes(grid.nodes, 1.0)
        Hs = scaled_hamiltonian(params, grid, 1.0, x, J)
        before = Hs.copy()
        evals, _ = mom.solve_spectrum(Hs, mom.similarity_scale(grid))
        assert len(evals) == 200
        assert np.array_equal(Hs, before)

    def test_hydrogen_ground_state(self):
        # alpha = 1, 2 mu a = 1: eps_0 = -(mu a) alpha^2/2 = -0.25
        levels, ok = mom.solve_levels(refs.coulomb_params(0), 80,
                                      0.5, count=3)
        assert ok
        assert abs(levels[0].epsilon + 0.25) < 1e-9

    def test_linear_ell0_n300(self):
        levels, ok = mom.solve_levels(refs.linear_params(0), 300,
                                      0.5, count=1)
        assert ok
        assert abs(levels[0].epsilon - 2.338107) < 2e-6

    def test_linear_ell1_row(self):
        levels, ok = mom.solve_levels(refs.linear_params(1), 100,
                                      1.0, count=5)
        assert ok
        for lv, exact in zip(levels, refs.TABLE2_EXACT[1]):
            assert abs(lv.epsilon - exact) < 2e-6

    def test_hydrogenic_degeneracy(self):
        m = 0.5
        l0, _ = mom.solve_levels(refs.coulomb_params(0), 80, m, 2)
        l1, _ = mom.solve_levels(refs.coulomb_params(1), 80, m, 1)
        assert abs(l0[1].epsilon / l1[0].epsilon - 1.0) < 1e-9

    def test_ground_state_increases_with_ell(self):
        eps = []
        for ell in range(4):
            levels, _ = mom.solve_levels(refs.linear_params(ell), 80,
                                         1.0, 1)
            eps.append(levels[0].epsilon)
        assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_accepted_levels_real_positive_distinct(self):
        levels, ok = mom.solve_levels(refs.linear_params(2), 100,
                                      1.0, 5)
        assert ok
        eps = [lv.epsilon for lv in levels]
        assert all(e > 0.0 for e in eps)
        assert all(b - a > 1e-10 for a, b in zip(eps, eps[1:]))
        assert all(lv.imag_part == 0.0 for lv in levels)

    def test_normalization(self):
        grid = cheb.chebyshev_grid(100)
        levels, _ = mom.solve_levels(refs.linear_params(0), 100, 1.0, 2)
        x, J = mom.mapped_nodes(grid.nodes, 1.0)
        for lv in levels:
            norm = np.sum(grid.plain_weights * J * x * x * lv.mesh_values**2)
            assert abs(norm - 1.0) < 1e-10


def select_all_then_sort(eigenpairs, params, grid, sigma, count):
    """Reference selection: filter every eigenpair, then sort.

    This is the selection `select_bound_states` replaced; the faster one
    must return bit-identical levels.
    """
    evals, evecs = eigenpairs
    x, J = mom.mapped_nodes(grid.nodes, sigma)
    density_weights = grid.plain_weights * J * x * x
    corner = max(3, grid.N // 10)

    floor = mom.spectrum_floor(params)
    accepted = []
    for lam, vec in zip(evals, evecs.T):
        if lam.imag != 0.0:
            continue
        if lam.real < floor or (not params.linear and lam.real >= 0.0):
            continue
        v = np.real(vec)
        density = density_weights * v * v
        total = density.sum()
        if total <= 0.0:
            continue
        if max(density[:corner].sum(), density[-corner:].sum()) > 0.5 * total:
            continue
        accepted.append((lam.real, v, abs(lam.imag)))

    accepted.sort(key=lambda item: item[0])
    levels = []
    for n, (eps, v, im) in enumerate(accepted[:count]):
        norm2 = np.sum(grid.plain_weights * J * x * x * v * v)
        if norm2 <= 0.0:
            continue
        v = v / math.sqrt(norm2)
        if v[np.argmax(np.abs(v))] < 0.0:
            v = -v
        levels.append(mom.BoundLevel(
            ell=params.ell, n=n, epsilon=eps, mesh_values=v, imag_part=im,
        ))
    return levels, len(levels) >= count


def scaled_hamiltonian(params, grid, sigma, x, J):
    """d (V + K) d^-1, the similar matrix solve_levels hands both eigensolver paths."""
    H = mom.assemble_potential(params, grid, sigma, x, J)
    H.flat[::grid.N + 1] += mom.kinetic_diagonal(params, x)
    scale = mom.similarity_scale(grid)
    return scale[:, None] * H / scale


def assert_same_levels(got, want):
    assert got[1] == want[1]
    assert len(got[0]) == len(want[0])
    for a, b in zip(got[0], want[0]):
        assert (a.ell, a.n) == (b.ell, b.n)
        assert a.epsilon == b.epsilon
        assert a.imag_part == b.imag_part
        assert np.array_equal(a.mesh_values, b.mesh_values)


SELECTION_CASES = {
    "coulomb": (refs.coulomb_params, 0.5),
    "linear": (refs.linear_params, 1.0),
    "cornell": (functools.partial(refs.cornell_params, "charm"), 1.0),
    "salpeter": (functools.partial(refs.cornell_params, "bottom",
                                   kinetic="salpeter"), 1.0),
}


class TestSelection:
    @pytest.mark.parametrize("N", (40, 80))
    @pytest.mark.parametrize("ell", range(4))
    @pytest.mark.parametrize("case", sorted(SELECTION_CASES))
    def test_matches_filter_all_then_sort(self, case, ell, N):
        make_params, sigma = SELECTION_CASES[case]
        params = make_params(ell)
        grid = cheb.chebyshev_grid(N)
        x, J = mom.mapped_nodes(grid.nodes, sigma)
        Hs = scaled_hamiltonian(params, grid, sigma, x, J)
        pairs = mom.solve_spectrum(Hs, mom.similarity_scale(grid))
        # count = N always exceeds the number of levels that pass
        for count in (1, 5, N):
            want = select_all_then_sort(pairs, params, grid, sigma, count)
            assert_same_levels(
                mom.select_bound_states(pairs, params, grid, x, J, count), want)
        assert not want[1]
        assert_same_levels(mom.solve_levels(params, N, sigma, 5),
                           select_all_then_sort(pairs, params, grid, sigma, 5))

    def test_one_assembly_and_one_table_build_per_grid(self, monkeypatch):
        # "pv" counts PV table builds; none computes PV moments over the mesh
        calls = {"assemble": 0, "pv": 0, "pv_moments": 0, "log": 0}

        def counting(key, fn, whole_mesh_only=False):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                if not whole_mesh_only or np.ndim(out) > 1:
                    calls[key] += 1
                return out
            return wrapped

        monkeypatch.setattr(mom, "assemble_potential",
                            counting("assemble", mom.assemble_potential))
        monkeypatch.setattr(cheb, "pv_weight_table", counting("pv", cheb.pv_weight_table))
        monkeypatch.setattr(cheb, "_pv_moments",
                            counting("pv_moments", cheb._pv_moments, True))
        monkeypatch.setattr(cheb, "_log_moments", counting("log", cheb._log_moments, True))
        # a private grid cache, so the tables are built inside this test
        monkeypatch.setattr(cheb, "chebyshev_grid", functools.lru_cache(cheb.ChebGrid))

        sigma = 1.0
        for ell in range(4):
            before = calls["assemble"]
            mom.solve_levels(refs.linear_params(ell), 40, sigma, 3)
            assert calls["assemble"] == before + 1
            # no term of the linear ell = 0 kernel reads the log table
            if ell == 0:
                assert calls == {"assemble": 1, "pv": 1, "pv_moments": 0, "log": 0}
        assert calls == {"assemble": 4, "pv": 1, "pv_moments": 0, "log": 1}
        # pure Coulomb has no double pole, so it builds no principal value table
        mom.solve_levels(refs.coulomb_params(0), 50, sigma, 1)
        assert calls == {"assemble": 5, "pv": 1, "pv_moments": 0, "log": 2}


def dense_levels(params, N, sigma, count, Hs=None):
    """Levels selected from all N eigenpairs of the dense solver: the oracle.

    Hs, d H d^-1, is assembled here unless the caller already holds it.
    """
    grid = cheb.chebyshev_grid(N)
    x, J = mom.mapped_nodes(grid.nodes, sigma)
    if Hs is None:
        Hs = scaled_hamiltonian(params, grid, sigma, x, J)
    pairs = mom.solve_spectrum(Hs, mom.similarity_scale(grid))
    return mom.select_bound_states(pairs, params, grid, x, J, count)


@pytest.fixture
def eigensolves(monkeypatch):
    """Sizes of the spectra momentum.solve_spectrum returned (None: no result).

    Also fails the test if a LAPACK or ARPACK eigensolver runs outside it.
    """
    sizes, inside = [], []

    def spy(*args, **kwargs):
        inside.append(True)
        try:
            out = solve_spectrum(*args, **kwargs)
        finally:
            inside.pop()
        sizes.append(None if out is None else len(out[0]))
        return out

    def only_inside(fn):
        def guarded(*args, **kwargs):
            assert inside, f"{fn.__name__} called outside momentum.solve_spectrum"
            return fn(*args, **kwargs)
        return guarded

    solve_spectrum = mom.solve_spectrum
    monkeypatch.setattr(mom, "solve_spectrum", spy)
    monkeypatch.setattr(scipy.linalg, "eig", only_inside(scipy.linalg.eig))
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", only_inside(scipy.sparse.linalg.eigs))
    return sizes


class TestArnoldi:
    """Shift-invert Arnoldi from ARNOLDI_MIN_N on, certified against the dense solver."""

    # salpeter ell = 2, N = 800 is graded by the next test: there the dense QR
    # levels carry 1.1e-9 of rounding, the Arnoldi levels 3e-13
    @pytest.mark.parametrize(("case", "ell", "N"), [
        (case, ell, N) for N in (400, 800) for ell in range(3) for case in sorted(SELECTION_CASES)
        if (case, ell, N) != ("salpeter", 2, 800)])
    def test_matches_dense(self, case, ell, N, eigensolves, monkeypatch):
        # the dense reference solves the matrix the Arnoldi path was handed,
        # so each case assembles it once; test_row_blocks_equal_the_whole_matrix
        # checks the matrix solve_levels hands over against the whole-matrix formula
        handed, spy = [], mom.solve_spectrum

        def record(Hs, *args, **kwargs):
            # the Arnoldi path overwrites Hs with its factors
            handed.append(Hs.copy())
            return spy(Hs, *args, **kwargs)

        monkeypatch.setattr(mom, "solve_spectrum", record)
        make_params, sigma = SELECTION_CASES[case]
        params = make_params(ell)
        got, ok = mom.solve_levels(params, N, sigma, 5)
        assert eigensolves == [7]
        want, want_ok = dense_levels(params, N, sigma, 5, handed[0])
        assert ok and want_ok
        for a, b in zip(got, want, strict=True):
            assert a.n == b.n
            assert abs(a.epsilon / b.epsilon - 1.0) < 1e-9

    def test_dense_rounding_case_against_converged_levels(self):
        params = SELECTION_CASES["salpeter"][0](2)
        got, _ = mom.solve_levels(params, 800, 1.0, 5)
        want, _ = dense_levels(params, 120, 1.0, 5)
        for a, b in zip(got, want, strict=True):
            assert abs(a.epsilon / b.epsilon - 1.0) < 1e-10

    @pytest.mark.parametrize(("ell", "N"), ((4, 300), (6, 160)))
    def test_high_ell_matches_radial_where_dense_does_not(self, ell, N):
        # the dense QR levels are off by 2.8e-3 (ell = 4) and over 0.1
        # (ell = 6) here: its normwise backward error meets the z^ell
        # kernel corners
        levels, ok = mom.solve_levels(refs.linear_params(ell), N, 1.0, 5)
        assert ok
        for lv in levels:
            assert abs(lv.epsilon - radial_level(ell, lv.n)) < 1e-9

    def test_falls_back_when_arpack_does_not_converge(self, monkeypatch, eigensolves):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
        params = refs.linear_params(1)
        got = mom.solve_levels(params, 400, 1.0, 5)
        assert eigensolves == [None, 400]
        assert_same_levels(got, dense_levels(params, 400, 1.0, 5))

    def test_falls_back_when_the_shift_is_singular(self, monkeypatch, eigensolves):
        def singular(*args, **kwargs):
            raise scipy.linalg.LinAlgWarning("Diagonal number 1 is exactly zero.")

        monkeypatch.setattr(scipy.linalg, "lu_factor", singular)
        params = refs.linear_params(0)
        got = mom.solve_levels(params, 400, 0.5, 3)
        assert eigensolves == [None, 400]
        assert_same_levels(got, dense_levels(params, 400, 0.5, 3))

    def test_falls_back_when_the_disc_excludes_the_top_level(self, monkeypatch, eigensolves):
        # only the `count` eigenvalues nearest the shift come back: the top
        # accepted level lies on the edge of their disc, so an eigenvalue
        # below it could be missing
        eigs = scipy.sparse.linalg.eigs

        def too_few(A, k, **kwargs):
            return eigs(A, 3, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", too_few)
        params = SELECTION_CASES["cornell"][0](0)
        got = mom.solve_levels(params, 400, 1.0, 3)
        assert eigensolves == [3, 400]
        assert_same_levels(got, dense_levels(params, 400, 1.0, 3))

    @pytest.mark.parametrize("fallback", ("singular", "arpack", "disc"))
    def test_dense_fallback_gets_the_matrix_written_again(self, fallback, monkeypatch,
                                                          eigensolves):
        # the Arnoldi path leaves its LU factors in H, so whenever its result
        # is not kept solve_levels writes H again before the dense solver runs
        lu_factor, eigs = scipy.linalg.lu_factor, scipy.sparse.linalg.eigs

        def singular(*args, **kwargs):
            lu_factor(*args, **kwargs)
            raise scipy.linalg.LinAlgWarning("Diagonal number 1 is exactly zero.")

        def arpack_error(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        def too_few(A, k, **kwargs):
            return eigs(A, k - 2, **kwargs)

        if fallback == "singular":
            monkeypatch.setattr(scipy.linalg, "lu_factor", singular)
        else:
            monkeypatch.setattr(scipy.sparse.linalg, "eigs",
                                arpack_error if fallback == "arpack" else too_few)
        dense_input, spy = [], mom.solve_spectrum

        def record(Hs, scale, shift=None, k=None):
            if k is None:
                dense_input.append(Hs.copy())
            return spy(Hs, scale, shift, k)

        monkeypatch.setattr(mom, "solve_spectrum", record)
        params, N = refs.linear_params(2), 200
        got = mom.solve_levels(params, N, 1.0, 5)
        assert eigensolves == [5 if fallback == "disc" else None, N]
        grid = cheb.chebyshev_grid(N)
        x, J = mom.mapped_nodes(grid.nodes, 1.0)
        Hs = scaled_hamiltonian(params, grid, 1.0, x, J)
        assert np.array_equal(dense_input[0], Hs)
        assert_same_levels(got, dense_levels(params, N, 1.0, 5, Hs))

    def test_a_conjugate_pair_is_not_two_levels(self):
        # the eigensolvers return a real eigenvalue of a real matrix with an
        # imaginary part of exactly 0; here a pair -3.9e-8 +- 1.0e-8 i lies
        # next to the real ones and must not be printed as n = 0 and n = 1
        levels, _ = mom.solve_levels(refs.linear_params(20), 80, 1.0, 2)
        assert all(lv.imag_part == 0.0 for lv in levels)
        eps = [lv.epsilon for lv in levels]
        assert len(set(eps)) == len(eps)

    def test_bit_reproducible(self, eigensolves):
        params = SELECTION_CASES["coulomb"][0](1)
        first = mom.solve_levels(params, 400, 0.5, 5)
        assert_same_levels(mom.solve_levels(params, 400, 0.5, 5), first)
        assert eigensolves == [7, 7]

    def test_dense_below_threshold_and_for_many_levels(self, eigensolves):
        mom.solve_levels(refs.linear_params(0), mom.ARNOLDI_MIN_N - 1, 1.0, 5)
        mom.solve_levels(refs.linear_params(0), mom.ARNOLDI_MIN_N, 1.0, 5)
        # ARPACK needs k = count + 2 < N - 1
        mom.solve_levels(refs.linear_params(0), mom.ARNOLDI_MIN_N, 1.0,
                         mom.ARNOLDI_MIN_N - 3)
        assert eigensolves == [mom.ARNOLDI_MIN_N - 1, 7, mom.ARNOLDI_MIN_N]


@functools.cache
def radial_level(ell, n):
    return radial.solve_radial(refs.linear_params(ell), n)


class TestFiniteParts:
    """Linear levels the differentiation-matrix elimination lost to rounding."""

    def test_linear_ell2_large_mesh(self):
        levels, ok = mom.solve_levels(refs.linear_params(2), 800, 1.0, 5)
        assert ok
        for lv, exact in zip(levels, refs.TABLE2_EXACT[2], strict=True):
            assert abs(lv.epsilon - exact) < 2e-6

    @pytest.mark.parametrize("sigma", (1.0, 4.0))
    @pytest.mark.parametrize("ell", (4, 5, 6))
    def test_high_ell_matches_radial(self, ell, sigma):
        levels, ok = mom.solve_levels(refs.linear_params(ell), 120, sigma, 5)
        assert ok
        for lv in levels:
            assert abs(lv.epsilon - radial_level(ell, lv.n)) < 1e-8


class TestWavefunction:
    def setup_method(self):
        self.sigma = 1.0
        self.grid = cheb.chebyshev_grid(100)
        self.levels, ok = mom.solve_levels(refs.linear_params(1), 100,
                                           self.sigma, 4)
        assert ok

    def test_mesh_point_reproduction(self):
        x, _ = mom.mapped_nodes(self.grid.nodes, self.sigma)
        lv = self.levels[0]
        for j in (5, 50, 90):
            val = wavefunction_at(lv, self.grid, self.sigma, x[j])
            assert abs(val - lv.mesh_values[j]) < 1e-9

    def test_nodal_counts(self):
        x = np.linspace(0.05, 8.0, 1200)
        for lv in self.levels:
            # all points at once, bit for bit the values of one call per point
            vals = wavefunction_at(lv, self.grid, self.sigma, x)
            signs = np.sign(vals[np.abs(vals) > 1e-6])
            flips = int(np.sum(signs[1:] != signs[:-1]))
            assert flips == lv.n

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            wavefunction_at(self.levels[0], self.grid, self.sigma, 0.0)


class TestScanAndScaling:
    def test_scan_matches_published_column(self):
        # the published column (2.338034 at N = 50, 2.338099 at N = 100),
        # which the earlier principal value rule with the derivative
        # eliminated through the differentiation matrix reproduced to 2e-6;
        # the finite-part rule must be at least as close to the exact level,
        # and is within the table tolerance already at N = 50
        exact = radial.airy_reference(1)
        for N, published in ((50, 2.338034), (100, 2.338099)):
            levels, _ = mom.solve_levels(refs.linear_params(0), N, 0.5, 1)
            err = abs(levels[0].epsilon - exact)
            assert err <= abs(published - exact) and err < 2e-6

    def test_linear_scaling_exponent(self):
        # eps(0, s, 0) = s^(1/3) eps(0, 1, 0): mapping scale sigma s^(-1/3)
        # makes the discrete Hamiltonian exactly homogeneous in s
        for s in (0.5, 2.0):
            levels, _ = mom.solve_levels(
                refs.linear_params(0, s), 200,
                0.5 * s ** (-1.0 / 3.0), 3)
            base, _ = mom.solve_levels(refs.linear_params(0), 200,
                                       0.5, 3)
            for a, b in zip(levels, base):
                assert abs(a.epsilon - s ** (1.0 / 3.0) * b.epsilon) < 1e-10

    def test_cross_solver_agreement_table3_configs(self):
        # dimensionless energies of the quarkonium campaign vs the
        # coordinate solver, in units of sqrt(beta)
        for flavor in ("charm", "bottom"):
            params = refs.cornell_params(flavor, 1)
            levels, _ = mom.solve_levels(params, 80, 1.0, 2)
            for lv in levels:
                eps_r = radial.solve_radial(params, lv.n)
                assert abs(lv.epsilon - eps_r) < 1e-3
