"""Momentum-space solver: the rational map, assembly, spectra, wavefunctions."""

import functools
import itertools
import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

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
    def test_salpeter_mass_must_be_finite(self):
        # am = 1/s overflows below s = 1/DBL_MAX
        with pytest.raises(ValueError, match="am = 1/s"):
            Problem(kinetic="salpeter", s=5e-324)

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
            V = whole_potential(params, grid, 1.0, *mom.mapped_nodes(grid.nodes, 1.0))
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

    @pytest.mark.parametrize(("N", "ell"), ((5, 97), (20, 55), (80, 39)))
    @pytest.mark.parametrize("case", ("coulomb", "linear", "cornell"))
    def test_corner_check_stops_only_non_finite_matrices(self, case, N, ell, monkeypatch):
        # ell is the first at which P_ell overflows at the corner z[0, N-1]:
        # there the assembled corner entry is non-finite, and one ell lower
        # the solve still reaches the assembly
        grid = cheb.chebyshev_grid(N)
        with np.errstate(all="ignore"):
            V = whole_potential(SELECTION_CASES[case][0](ell), grid, 1.0,
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
        rel = Problem(kinetic="salpeter", s=0.5)
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
        lg = cheb.log_weight_table(grid)    # the top rows; row N-1-i is row i reversed
        lg = np.vstack((lg, lg[:grid.N // 2][::-1, ::-1]))
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
        want = whole_potential(problem, grid, sigma, x, J)
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
        # H, which holds the double-pole rule until assembly overwrites it and
        # which LAPACK factors in place on the Arnoldi path, is the only
        # N x N array of a solve; assembly adds at most eleven row-block
        # buffers (ell = 7), which then set the peak, and ARPACK its N x ncv basis:
        # scipy's default ncv = max(20, 2k + 1) is 20 columns at k = count + 2 = 7
        N = 800
        grid = cheb.chebyshev_grid(N)
        for table in ("plain_weights", "q0_table"):
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

    def test_grid_keeps_only_the_top_half_of_the_log_rule(self, monkeypatch):
        # a Cornell ell = 2 solve reads every kernel term; afterwards its fresh
        # grid holds the top ceil(N/2) rows of the log rule, and no double-pole
        # rule, which the solve wrote into H: 4.4 bytes * N^2 with the nodes and weights
        monkeypatch.setattr(cheb, "chebyshev_grid", functools.lru_cache(cheb.ChebGrid))
        N = 40
        mom.solve_levels(refs.cornell_params("charm", 2), N, 1.0, 3)
        grid = cheb.chebyshev_grid(N)
        assert sorted(vars(grid)) == ["N", "nodes", "plain_weights", "q0_table"]
        assert grid.q0_table.shape == ((N + 1) // 2, N)
        assert not grid.q0_table.flags.writeable
        assert grid.q0_table.flags.c_contiguous
        kept = sum(a.nbytes for a in vars(grid).values() if isinstance(a, np.ndarray))
        assert kept <= 4.5 * N**2

    def test_grid_cache_holds_one_mesh_order(self):
        # a solve at a new mesh order frees the previous order's grid and rules
        mom.solve_levels(refs.linear_params(0), 60, 1.0, 2)
        old = weakref.ref(cheb.chebyshev_grid(60))
        mom.solve_levels(refs.linear_params(0), 80, 1.0, 2)
        gc.collect()
        assert old() is None
        assert cheb.chebyshev_grid.cache_info().currsize == 1

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
            got = whole_potential(params, grid, sigma, x, J)
            want = assembly_oracle.assemble_potential(params, oracle, sigma, x, J)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("N", (80, 300, 301, 800))
    def test_blocks_read_the_pole_rule_written_into_h(self, N, monkeypatch):
        # solve_levels writes the double-pole rule into H, and each row block
        # reads its own rows of it before it overwrites them: the rows read
        # are the rule, bit for bit, and are H's own memory
        read, assemble = [], mom.assemble_potential

        def recording(problem, grid, sigma, x, J, rows, pole):
            read.append(pole.copy())
            assert pole.base is not None and pole.base.shape == (N, N)
            return assemble(problem, grid, sigma, x, J, rows, pole)

        monkeypatch.setattr(mom, "assemble_potential", recording)
        mom.solve_levels(refs.linear_params(2), N, 1.0, 3)
        want = cheb.pv_weight_table(cheb.chebyshev_grid(N), pole=True)
        assert np.array_equal(np.vstack(read), want)

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
        for ell in range(8):
            params = make_params(ell)
            with pytest.raises(Handed) as got:
                mom.solve_levels(params, N, sigma, 5)
            assert np.array_equal(got.value.args[0],
                                  scaled_hamiltonian(*natural_mesh(params, grid, sigma)))


@functools.cache
def oracle_grid(N):
    return assembly_oracle.oracle_grid(cheb.chebyshev_grid(N))


class TestSpectrum:
    def test_diagonal_matrix(self):
        # below ARNOLDI_MIN_N the shift and k are ignored: every pair comes back
        evals, evecs = mom.solve_spectrum(np.diag([1.0, 2.0, 3.0]), np.ones(3), 0.0, 1)
        assert np.allclose(sorted(evals.real), [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(evecs), np.eye(3), atol=1e-12)

    def test_dense_path_leaves_its_input_unchanged(self):
        # the Arnoldi path factors its input in place; the dense one copies it
        params, N = refs.linear_params(2), mom.ARNOLDI_MIN_N - 1
        grid = cheb.chebyshev_grid(N)
        x, J = mom.mapped_nodes(grid.nodes, 1.0)
        Hs = scaled_hamiltonian(params, grid, 1.0, x, J)
        before = Hs.copy()
        evals, _ = mom.solve_spectrum(Hs, mom.similarity_scale(grid), mom.spectrum_floor(params), 7)
        assert len(evals) == N
        assert np.array_equal(Hs, before)

    @pytest.mark.parametrize("N", (mom.ARNOLDI_MIN_N - 1, mom.ARNOLDI_MIN_N))
    def test_mesh_order_alone_picks_the_eigensolver(self, N, eigensolves, arpack_runs,
                                                    monkeypatch):
        # the same call, with a shift and k, runs dense QR below ARNOLDI_MIN_N and
        # ARPACK with that k from there on
        dense, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda A: dense.append(len(A)) or eig(A))
        params, k = refs.linear_params(0), 7
        grid = cheb.chebyshev_grid(N)
        Hs = scaled_hamiltonian(params, grid, 1.0, *mom.mapped_nodes(grid.nodes, 1.0))
        mom.solve_spectrum(Hs, mom.similarity_scale(grid), mom.spectrum_floor(params), k)
        if N < mom.ARNOLDI_MIN_N:
            assert dense == [N] and arpack_runs == [] and eigensolves == [N]
        else:
            assert dense == [] and arpack_runs == [k] and eigensolves == [k - 1]

    @pytest.mark.parametrize("table", (1, 2, 3))
    def test_dense_levels_match_scipy_eig(self, table, monkeypatch):
        # numpy.linalg.eig replaced scipy.linalg.eig on the dense path; both run LAPACK geev,
        # and the replaced solver, the oracle here, gives the stored campaigns' dense levels
        # (bit for bit on the machine this was measured on; table-1 ell 3 n 4 moves by
        # 1.5e-10 under half-ulp noise in the kernel rules, so the bound is 1e-9)
        waves = [w for w in refs.campaign(table) if w.N < mom.ARNOLDI_MIN_N]
        got = [mom.solve_levels(w.problem, w.N, w.sigma, w.levels) for w in waves]
        monkeypatch.setattr(np.linalg, "eig", functools.partial(scipy.linalg.eig, check_finite=False))
        for w, (levels, ok) in zip(waves, got, strict=True):
            want, want_ok = mom.solve_levels(w.problem, w.N, w.sigma, w.levels)
            assert ok and want_ok
            for a, b in zip(levels, want, strict=True):
                assert a.n == b.n and abs(a.epsilon / b.epsilon - 1.0) < 1e-9

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

    def test_accepted_levels_real_positive_distinct(self, spectra):
        levels, ok = mom.solve_levels(refs.linear_params(2), 100,
                                      1.0, 5)
        assert ok
        eps = [lv.epsilon for lv in levels]
        assert all(e > 0.0 for e in eps)
        assert all(b - a > 1e-10 for a, b in zip(eps, eps[1:]))
        assert_real_eigenvalues(levels, spectra)

    def test_normalization(self):
        grid = cheb.chebyshev_grid(100)
        # in the caller's momenta x also where the solve runs in natural units (s != 1)
        for problem, sigma in ((refs.linear_params(0), 1.0), (refs.linear_params(2, 0.03), 2.0),
                               (Problem(alpha=1e-8, linear=False, s=3.0), 2e-9)):
            levels, _ = mom.solve_levels(problem, 100, sigma, 2)
            x, J = mom.mapped_nodes(grid.nodes, sigma)
            assert len(levels) == 2
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
        accepted.append((lam.real, v))

    accepted.sort(key=lambda item: item[0])
    levels = []
    for n, (eps, v) in enumerate(accepted[:count]):
        norm2 = np.sum(grid.plain_weights * J * x * x * v * v)
        if norm2 <= 0.0:
            continue
        v = v / math.sqrt(norm2)
        if v[np.argmax(np.abs(v))] < 0.0:
            v = -v
        levels.append(mom.BoundLevel(ell=params.ell, n=n, epsilon=eps, mesh_values=v))
    return levels, len(levels) >= count


def whole_potential(params, grid, sigma, x, J):
    """Every row of V, with the double-pole rule built whole, as solve_levels builds it in H."""
    return mom.assemble_potential(params, grid, sigma, x, J,
                                  pole=cheb.pv_weight_table(grid, pole=True))


def scaled_hamiltonian(params, grid, sigma, x, J):
    """d (V + K) d^-1, the similar matrix solve_levels hands either eigensolver."""
    H = whole_potential(params, grid, sigma, x, J)
    H.flat[::grid.N + 1] += mom.kinetic_diagonal(params, x)
    scale = mom.similarity_scale(grid)
    return scale[:, None] * H / scale


def natural_mesh(params, grid, sigma):
    """(unit, grid, sigma', x, J): the problem and mesh solve_levels writes H in.

    unit is params in its natural units, and the map is scaled by their length.
    """
    length, _, unit = params.natural_units()
    return unit, grid, sigma * length, *mom.mapped_nodes(grid.nodes, sigma * length)


def assert_same_levels(got, want):
    assert got[1] == want[1]
    assert len(got[0]) == len(want[0])
    for a, b in zip(got[0], want[0]):
        assert (a.ell, a.n) == (b.ell, b.n)
        assert a.epsilon == b.epsilon
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
        # selection runs on the natural-unit problem, whose energies solve_levels scales back
        unit, grid, natural, x, J = natural_mesh(params, cheb.chebyshev_grid(N), sigma)
        pairs = dense_pairs(scaled_hamiltonian(unit, grid, natural, x, J), grid)
        # count = N always exceeds the number of levels that pass
        for count in (1, 5, N):
            want = select_all_then_sort(pairs, unit, grid, natural, count)
            assert_same_levels(
                mom.select_bound_states(pairs, unit, grid, x, J, count), want)
        assert not want[1]
        levels, complete = select_all_then_sort(pairs, unit, grid, natural, 5)
        length, energy, _ = params.natural_units()
        assert_same_levels(mom.solve_levels(params, N, sigma, 5),
                           ([replace(lv, epsilon=energy * lv.epsilon,
                                     mesh_values=lv.mesh_values * length ** 1.5)
                             for lv in levels], complete))

    @pytest.mark.parametrize("ell", (10, 12))
    def test_no_level_below_the_coulomb_floor_of_its_wave(self, ell):
        # no level of this wave lies below the hydrogen ground state of its
        # Coulomb term alone, -0.517 (ell 10) and -0.370 (ell 12); the s-wave
        # floor -62.5 let through -42.640 and -17.226
        problem = Problem(ell=ell, alpha=0.5, s=1e-3)
        floor = radial.hydrogen_energy(0, ell, problem.alpha, 0.5 / problem.s)
        levels, complete = mom.solve_levels(problem, 300, count=3)
        assert all(lv.epsilon >= floor - 1e-6 for lv in levels)
        # nor is a wrong level above it printed as complete: the Arnoldi run
        # cannot certify all three, and the wave is refused
        assert not complete

    def test_one_assembly_and_one_table_build_per_grid(self, monkeypatch):
        # "pv" counts double-pole rule builds, one per linear solve, each written into
        # its H; "log" counts log rule builds, the grid's one table, built once per grid;
        # none computes PV moments over the mesh
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
            assert calls["pv"] == ell + 1
        assert calls == {"assemble": 4, "pv": 4, "pv_moments": 0, "log": 1}
        # pure Coulomb has no double pole, so it builds no principal value table
        mom.solve_levels(refs.coulomb_params(0), 50, sigma, 1)
        assert calls == {"assemble": 5, "pv": 4, "pv_moments": 0, "log": 2}


# LAPACK geev as numpy exposes it, taken before any fixture wraps numpy.linalg.eig
DENSE_EIG = np.linalg.eig


def dense_pairs(Hs, grid):
    """All N eigenpairs of H from dense QR on Hs = d H d^-1, as solve_spectrum's dense path."""
    evals, evecs = DENSE_EIG(Hs)
    return evals, evecs / mom.similarity_scale(grid)[:, None]


def dense_levels(params, N, sigma, count, Hs=None):
    """Levels selected from all N eigenpairs of the dense solver, at any N: the oracle.

    Hs, d H d^-1, is assembled here unless the caller already holds it.
    """
    grid = cheb.chebyshev_grid(N)
    x, J = mom.mapped_nodes(grid.nodes, sigma)
    if Hs is None:
        Hs = scaled_hamiltonian(params, grid, sigma, x, J)
    return mom.select_bound_states(dense_pairs(Hs, grid), params, grid, x, J, count)


@pytest.fixture
def spectra(monkeypatch):
    """The eigenvalues of every spectrum momentum.solve_spectrum returned."""
    returned, solve_spectrum = [], mom.solve_spectrum

    def spy(*args, **kwargs):
        out = solve_spectrum(*args, **kwargs)
        if out is not None:
            returned.append(out[0])
        return out

    monkeypatch.setattr(mom, "solve_spectrum", spy)
    return returned


def assert_real_eigenvalues(levels, spectra):
    """Each level is a returned eigenvalue with imaginary part exactly 0; no two are one."""
    evals = np.concatenate(spectra)
    real = evals.real[evals.imag == 0.0]
    assert all(np.any(real == lv.epsilon) for lv in levels)
    eps = [lv.epsilon for lv in levels]
    assert len(set(eps)) == len(eps)


@pytest.fixture
def arpack_runs(monkeypatch):
    """ARPACK's k in every scipy.sparse.linalg.eigs call."""
    ks, eigs = [], scipy.sparse.linalg.eigs

    def spy(A, k, **kwargs):
        ks.append(k)
        return eigs(A, k, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", spy)
    return ks


@pytest.fixture
def eigensolves(monkeypatch):
    """Sizes of the spectra momentum.solve_spectrum returned (None: no result).

    From ARNOLDI_MIN_N on a size counts the certified pairs only.

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
    monkeypatch.setattr(np.linalg, "eig", only_inside(np.linalg.eig))
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", only_inside(scipy.sparse.linalg.eigs))
    return sizes


class TestArnoldi:
    """Shift-invert Arnoldi from ARNOLDI_MIN_N on, certified against the dense solver."""

    # salpeter ell = 2, N = 800 is graded by the next test: there the dense QR
    # levels carry 1.1e-9 of rounding, the Arnoldi levels 3e-13
    @pytest.mark.parametrize(("case", "ell", "N"), [
        (case, ell, N) for N in (400, 800) for ell in range(3) for case in sorted(SELECTION_CASES)
        if (case, ell, N) != ("salpeter", 2, 800)])
    def test_matches_dense(self, case, ell, N, eigensolves, arpack_runs, monkeypatch):
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
        # of ARPACK's count + 2 pairs all but the farthest from the shift are certified
        assert arpack_runs == [7] and eigensolves == [6]
        # the handed matrix is in natural units, and so are the dense levels
        length, energy, unit = params.natural_units()
        want, want_ok = dense_levels(unit, N, sigma * length, 5, handed[0])
        assert ok and want_ok
        for a, b in zip(got, want, strict=True):
            assert a.n == b.n
            assert abs(a.epsilon / (energy * b.epsilon) - 1.0) < 1e-9

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

    @pytest.mark.parametrize("count", (3, 5))
    @pytest.mark.parametrize("ell", (3, 4))
    def test_coulomb_high_ell_stays_on_the_arnoldi_path(self, ell, count, eigensolves,
                                                        arpack_runs):
        # shifted at the s-wave floor -1/4, the nearest eigenvalues included
        # spurious ones and the solve fell back to dense QR, 5.1e-8 off at
        # ell 3; shifted at -1/(4 (ell + 1)^2) none is.  ell 3 n 0-3 are
        # within 7e-10; n 4 (4.8e-9 or 1.1e-8 with one or two BLAS threads)
        # and ell 4 (8.6e-7 at n 2) are off the 1e-8 tolerance (CHANGES.md FOUND 60)
        levels, ok = mom.solve_levels(refs.coulomb_params(ell), 800, 0.5, count)
        assert ok and arpack_runs == [count + 2] and eigensolves == [count + 1]
        if ell == 3:
            for lv in levels[:4]:
                exact = radial.hydrogen_energy(lv.n, ell, refs.TABLE1_ALPHA, 0.5 / refs.TABLE1_S)
                assert abs(lv.epsilon / exact - 1.0) < 1e-8

    @pytest.mark.parametrize("rejection", ("singular", "arpack", "no-convergence", "disc"))
    def test_a_rejected_arnoldi_run_is_refused(self, rejection, monkeypatch, eigensolves,
                                               arpack_runs):
        # one eigensolve decides the wave: a rejected run returns the levels it
        # certified and an incomplete set, and dense QR never runs
        get_lapack_funcs, eigs = scipy.linalg.get_lapack_funcs, scipy.sparse.linalg.eigs
        disc = []

        def singular(names, *args, **kwargs):
            # getrf factors, then reports info = 1: an exactly zero first pivot
            def zero_pivot(getrf):
                return lambda *a, **kw: (*getrf(*a, **kw)[:2], 1)
            funcs = get_lapack_funcs(names, *args, **kwargs)
            return [zero_pivot(f) if name == "getrf" else f for name, f in zip(names, funcs)]

        def arpack_error(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        def too_few(A, k, **kwargs):
            # only the `count` eigenvalues nearest the shift come back: the top
            # one bounds their disc, so a level on its edge is not certified
            mu, evecs = eigs(A, k - 2, **kwargs)
            # the s-wave floor of solve_levels, and the eigenvalues shift + 1/mu
            shift = mom.spectrum_floor(replace(params, ell=0))
            disc.append((shift, shift + 1.0 / mu))
            return mu, evecs

        if rejection == "singular":
            monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", singular)
        else:
            monkeypatch.setattr(scipy.sparse.linalg, "eigs", {
                "arpack": arpack_error, "no-convergence": no_convergence,
                "disc": too_few}[rejection])
        params, N, count = refs.linear_params(2), mom.ARNOLDI_MIN_N, 5
        levels, complete = mom.solve_levels(params, N, 1.0, count)
        assert not complete
        if rejection != "disc":
            assert eigensolves == [None] and levels == []
            return
        # the run's own eigenvalues strictly inside its disc, not dense QR's: the
        # level on the edge lies on either side of it by an ulp of the tables
        (shift, evals), = disc
        distance = np.abs(evals - shift)
        certified = np.count_nonzero(distance < distance.max())
        assert arpack_runs == [count] and eigensolves == [certified]
        want, _ = dense_levels(params, N, 1.0, count)
        inside = want[:certified]
        assert 0 < len(inside) < count
        for a, b in zip(levels, inside, strict=True):
            assert a.n == b.n
            assert abs(a.epsilon / b.epsilon - 1.0) < 1e-9

    def test_an_exactly_singular_shifted_matrix_is_refused(self, monkeypatch):
        # row 40 is 2.5 e_40, so A - 2.5 I has a zero row and getrf a zero pivot: the
        # run is refused before ARPACK applies the singular factors (their NaN solves
        # would reach LAPACK as illegal values); 0.1 away the factors are regular
        # and the certified ones of the k pairs nearest the shift come back: here
        # the farthest two are a conjugate pair, equally far, and both go
        eigs, runs = scipy.sparse.linalg.eigs, []

        def counted(*args, **kwargs):
            runs.append(kwargs["k"])
            return eigs(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", counted)
        A = np.random.default_rng(30).standard_normal((120, 120))
        A[40] = 0.0
        A[40, 40] = 2.5
        k = 5
        assert mom._shift_invert_arnoldi(A.copy(), 2.5, k) is None
        assert runs == []
        evals, evecs = mom._shift_invert_arnoldi(A.copy(), 2.4, k)
        assert runs == [k] and len(evals) == k - 2 and evecs.shape == (120, k - 2)
        assert np.min(np.abs(evals - 2.5)) < 1e-12

    def test_a_conjugate_pair_is_not_two_levels(self, spectra):
        # the eigensolvers return a real eigenvalue of a real matrix with an
        # imaginary part of exactly 0; here a pair -3.9e-8 +- 1.0e-8 i lies
        # next to the real ones and must not be printed as n = 0 and n = 1
        levels, _ = mom.solve_levels(refs.linear_params(20), 80, 1.0, 2)
        assert levels
        assert_real_eigenvalues(levels, spectra)

    def test_bit_reproducible(self, eigensolves, arpack_runs):
        params = SELECTION_CASES["coulomb"][0](1)
        first = mom.solve_levels(params, 400, 0.5, 5)
        assert_same_levels(mom.solve_levels(params, 400, 0.5, 5), first)
        assert arpack_runs == [7, 7] and eigensolves == [6, 6]

    def test_dense_only_below_threshold(self, eigensolves, arpack_runs, monkeypatch):
        dense = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda A: dense.append(len(A)) or eig(A))
        N = mom.ARNOLDI_MIN_N
        for count in (1, 5, N - 5):
            mom.solve_levels(refs.linear_params(0), N - 1, 1.0, count)
        # ARPACK needs k = count + 2 < N - 1, which holds up to the largest count, N - 4
        for count in (1, 5, N - 4):
            mom.solve_levels(refs.linear_params(0), N, 1.0, count)
        assert dense == [N - 1] * 3
        assert arpack_runs == [3, 7, N - 2]
        assert eigensolves == [N - 1] * 3 + [2, 6, N - 3]
        with pytest.raises(ValueError, match="from 1 to N - 4"):
            mom.solve_levels(refs.linear_params(0), N, 1.0, N - 3)

    @pytest.mark.parametrize("N", (80, 100))
    def test_count_outside_one_to_n_minus_four_is_refused_before_the_grid(
            self, N, eigensolves, monkeypatch):
        assert 80 < mom.ARNOLDI_MIN_N <= 100    # one mesh order on each eigensolver path

        def no_grid(N):
            raise AssertionError(f"grid of order {N} built before the count was checked")
        monkeypatch.setattr(cheb, "ChebGrid", no_grid)
        monkeypatch.setattr(cheb, "chebyshev_grid", no_grid)
        for count in (0, N - 3):
            with pytest.raises(ValueError, match=f"from 1 to N - 4 = {N - 4}, got {count}$"):
                mom.solve_levels(refs.linear_params(0), N, 1.0, count)
        assert eigensolves == []


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
        # eps(ell, s, 0) = s^(1/3) eps(ell, 1, 0): mapping scale sigma s^(-1/3)
        # makes the discrete Hamiltonian exactly homogeneous in s; ell 4 moves
        # by 1.8e-12 relative under rounding here, 3e-10 at s = 1e4
        for ell, s in itertools.product(range(4), (0.5, 2.0, 1e-8, 1e-4, 1e4)):
            levels, complete = mom.solve_levels(
                refs.linear_params(ell, s), 200,
                0.5 * s ** (-1.0 / 3.0), 3)
            base, _ = mom.solve_levels(refs.linear_params(ell), 200,
                                       0.5, 3)
            assert complete
            for a, b in zip(levels, base, strict=True):
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


class TestDefaultScale:
    """Without sigma a solve maps at sqrt(E/s), E the energy unit `compare` grades in."""

    @pytest.mark.parametrize(("problem", "E", "sigma"), (
        (Problem(), 1.0, 1.0),
        (Problem(alpha=1.0, linear=False), 0.25, 0.5),
        (Problem(alpha=4.0), 4.0, 2.0),
        (Problem(s=1e-8), 1e-8 ** (1.0 / 3.0), 464.1588833612779),
        # alpha ** 2 raised OverflowError above alpha = 1.34e154
        (Problem(alpha=1e300, linear=False), math.inf, math.inf),
        (Problem(alpha=1e300), math.inf, math.inf),
    ), ids=("linear", "coulomb", "cornell", "small-s", "coulomb-large-alpha",
            "cornell-large-alpha"))
    def test_units(self, problem, E, sigma):
        assert problem.energy_unit == E
        assert problem.momentum_unit == pytest.approx(sigma, rel=1e-15)
        # the kinetic energy s x^2 at the momentum unit is the energy unit
        assert problem.s * problem.momentum_unit ** 2 == pytest.approx(E, rel=1e-15)

    # waves with a linear term drawn at random from numpy.random.default_rng(2026), s and
    # alpha rounded to four figures, whose levels at sigma = 1 are off by 2e-4 to
    # 0.24 of the energy unit and pass every filter
    @pytest.mark.parametrize(("ell", "s", "alpha", "N"), (
        (3, 1.354e-3, 0.0, 80), (2, 1.379e-3, 0.622, 150),
        (1, 2.914e-4, 0.6439, 80), (2, 3.485e-4, 0.4701, 60),
    ))
    def test_sample_problems_silent_at_sigma_one(self, ell, s, alpha, N):
        problem = Problem(ell=ell, alpha=alpha, s=s)
        exact = [radial.solve_radial(problem, n) for n in range(3)]

        def errors(sigma):
            levels, complete = mom.solve_levels(problem, N, sigma, 3)
            assert complete
            return [abs(lv.epsilon - e) / problem.energy_unit for lv, e in zip(levels, exact)]

        assert max(errors(1.0)) > 1e-4
        assert max(errors(None)) < 1e-8
        assert_same_levels(mom.solve_levels(problem, N, count=3),
                           mom.solve_levels(problem, N, problem.momentum_unit, 3))


@functools.cache
def coulomb_unit_levels(ell):
    """Levels of the alpha = s = 1 Coulomb wave at N = 300 and the derived sigma."""
    return mom.solve_levels(Problem(ell=ell, alpha=1.0, linear=False), 300, count=3)


class TestNaturalUnits:
    """solve_levels solves every wave in its natural units, where energies are of order one."""

    # at the parent the floor's absolute slack of 1e-6 refused alpha 1e-8 and
    # 1e-5 from N = 100 on, and alpha 1e-100 printed -6.2e-147 at N = 80,
    # where H's entries of order alpha^2 underflowed
    @pytest.mark.parametrize("N", (80, 100, 300, 800))
    @pytest.mark.parametrize("alpha", (1e-8, 1e-5, 1e-3, 1e-100))
    def test_weak_coulomb_coupling(self, alpha, N):
        levels, complete = mom.solve_levels(Problem(alpha=alpha, linear=False), N, count=3)
        assert complete
        for lv in levels:
            exact = -alpha * alpha / (4.0 * (lv.n + 1) ** 2)
            assert abs(lv.epsilon / exact - 1.0) <= 1e-10

    # eps alpha^-2 s is the level of the alpha = s = 1 wave, up to rounding; at
    # the parent all but ell 0-1, alpha 1e-8, s 1e-8 were refused or off;
    # ell 4 is off its own tolerance at N = 300 (pure Coulomb, CHANGES.md FOUND 69)
    @pytest.mark.parametrize("s", (1e-8, 1.0, 1e4))
    @pytest.mark.parametrize("alpha", (1e-100, 1e-8))
    @pytest.mark.parametrize("ell", range(4))
    def test_coulomb_scale_covariance(self, ell, alpha, s):
        levels, complete = mom.solve_levels(Problem(ell=ell, alpha=alpha, linear=False, s=s),
                                            300, count=3)
        want, want_complete = coulomb_unit_levels(ell)
        assert complete and want_complete
        for a, b in zip(levels, want, strict=True):
            assert abs(a.epsilon / (alpha * alpha / s * b.epsilon) - 1.0) <= 1e-10

    @pytest.mark.parametrize(("problem", "sigma"), (
        (Problem(alpha=1e-160, linear=False), None),     # the natural area overflows
        (Problem(alpha=1e-10, linear=False), 1e300),     # sigma * length overflows
        (Problem(alpha=1e10, linear=False), 1e-320),     # sigma * length underflows
    ), ids=("area", "sigma-inf", "sigma-zero"))
    def test_scales_out_of_range_are_numerical_failures(self, problem, sigma):
        with pytest.raises(RuntimeError):
            mom.solve_levels(problem, 40, sigma, 1)
