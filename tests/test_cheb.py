"""Mesh, interpolation, differentiation and quadrature rules."""

import os
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad

import assembly_oracle
from cheb_interpolation import cardinal_eval, coefficient_matrix, interpolate
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


def diff_matrix(N):
    """Spectral differentiation matrix D with (D f)_i = p'(t_i) on the order-N grid.

    D = dT^T C with dT[n, i] = T_n'(t_i) = n sin(n theta_i) / sin(theta_i).
    """
    C, theta = coefficient_matrix(N)
    n = np.arange(N)[:, None]
    dT = n * np.sin(n * theta) / np.sin(theta)
    return dT.T @ C


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

    def test_order_must_be_integral(self):
        for N in (80.7, 80.0, "80"):
            with pytest.raises(ValueError):
                cheb.ChebGrid(N)
        assert cheb.ChebGrid(np.int64(9)).N == 9

    def test_grid_cache_returns_same_object(self):
        assert cheb.chebyshev_grid(16) is cheb.chebyshev_grid(16)

    # width 800 takes 40 rows a step: n below, at and above one step, a ragged
    # last block, whole steps, and a row wider than a block, one row a step
    @pytest.mark.parametrize(("n", "width", "blocks"), (
        (0, 800, 0), (1, 800, 1), (39, 800, 1), (40, 800, 1), (41, 800, 2), (401, 800, 11),
        (800, 800, 20), (5, 1, 1), (3, cheb.BLOCK_ELEMENTS + 1, 3), (3, 4 * cheb.BLOCK_ELEMENTS, 3),
    ))
    def test_row_blocks_cover_the_rows_in_order(self, n, width, blocks):
        slices = cheb.row_blocks(n, width)
        assert len(slices) == blocks
        assert [i for b in slices for i in range(n)[b]] == list(range(n))
        step = max(1, cheb.BLOCK_ELEMENTS // width)
        assert all(b.step is None and b.start < b.stop <= b.start + step for b in slices)


def stored(N, name="q0"):
    return Path(cheb._store_root(), cheb._store_key(), f"{name}-{N}")


def file_bytes(table):
    # a stored file: the table's bytes, then the complement of the sum of its words
    return table.tobytes() + (~table.view(np.uint64).sum(dtype=np.uint64)).tobytes()


def no_build(grid):
    raise AssertionError("the table store should have served this rule")


@pytest.fixture
def fresh_key():
    # the key is computed once per process; recompute it around a test that changes it
    cheb._store_key.cache_clear()
    yield
    cheb._store_key.cache_clear()


class TestTableStore:
    # every test starts from an empty store of its own (conftest.py)
    @pytest.mark.parametrize("N", (80, 301))
    def test_a_hit_is_the_build_bit_for_bit(self, N, monkeypatch):
        built = cheb.ChebGrid(N).q0_table
        assert stored(N).read_bytes() == file_bytes(built)
        monkeypatch.setattr(cheb, "log_weight_table", no_build)
        read = cheb.ChebGrid(N).q0_table
        assert np.array_equal(read, built)
        assert read.shape == ((N + 1) // 2, N)
        assert read.flags.c_contiguous and not read.flags.writeable

    def test_a_file_of_the_wrong_size_or_sum_is_ignored_and_replaced(self):
        # short, long, zeroed (as a crash can leave it), a table changed in one entry, or a
        # good file with bytes after it
        N = 80
        want = cheb.ChebGrid(N).q0_table
        other = np.ones(want.size + 2).tobytes()
        changed = want.copy()
        changed[3, 5] = np.nextafter(changed[3, 5], 1.0)
        bad = [other[:size] for size in (0, want.nbytes, want.nbytes + 16)]
        bad += [bytes(want.nbytes + 8), changed.tobytes() + file_bytes(want)[-8:],
                file_bytes(want) + bytes(8)]
        for content in bad:
            stored(N).write_bytes(content)
            assert np.array_equal(cheb.ChebGrid(N).q0_table, want)
            assert stored(N).read_bytes() == file_bytes(want)

    @pytest.mark.parametrize("change", ("source-mtime", "source-size", "numpy", "simd", "blas",
                                        "libc", "byteorder", "host"))
    def test_a_changed_key_reads_no_other_keys_file(self, change, tmp_path, monkeypatch,
                                                    fresh_key):
        # a well-formed file under the old key is never read under the new one
        N = 40
        want = cheb.ChebGrid(N).q0_table
        old = stored(N)
        old.write_bytes(file_bytes(np.ones_like(want)))
        if change.startswith("source"):
            # an edit of the same size with a new mtime, or one byte more with the same mtime
            source = tmp_path / "cheb.py"
            text = Path(cheb.__file__).read_bytes()
            source.write_bytes(text if change == "source-mtime" else text + b"\n")
            mtime = os.stat(cheb.__file__).st_mtime_ns
            os.utime(source, ns=(mtime, mtime + 10 ** 9 * (change == "source-mtime")))
            monkeypatch.setattr(cheb, "__file__", str(source))
        elif change == "numpy":
            monkeypatch.setattr(np, "__version__", np.__version__ + "+other")
        elif change in ("simd", "blas"):
            config = np.show_config(mode="dicts")
            other = {"simd": {"SIMD Extensions": {"found": ["OTHER"]}},
                     "blas": {"Build Dependencies": {"blas": {
                         **config["Build Dependencies"]["blas"], "version": "other"}}}}
            monkeypatch.setattr(np, "show_config", lambda mode: {**config, **other[change]})
        elif change == "libc":
            monkeypatch.setattr(os, "confstr", lambda name: "glibc 0.0", raising=False)
        elif change == "byteorder":
            monkeypatch.setattr(sys, "byteorder", {"little": "big"}.get(sys.byteorder, "little"))
        else:
            monkeypatch.setattr(os, "uname", lambda: SimpleNamespace(nodename="other-host"),
                                raising=False)
        cheb._store_key.cache_clear()
        assert stored(N) != old
        assert np.array_equal(cheb.ChebGrid(N).q0_table, want)
        assert stored(N).read_bytes() == file_bytes(want)

    def test_eviction_keeps_the_budget_and_drops_the_least_recently_used_first(
            self, monkeypatch):
        # q0 rules of 6408, 7064, 7752 and 8472 bytes at N = 40, 42, 44 and 46, and a
        # stale key's 100-byte file, the oldest
        stale = Path(cheb._store_root(), "stale-key", "q0-99")
        stale.parent.mkdir(parents=True)
        stale.write_bytes(bytes(100))
        os.utime(stale, (500, 500))
        for N in (40, 42, 44):
            cheb.ChebGrid(N).q0_table
            os.utime(stored(N), (1000 * N, 1000 * N))
        monkeypatch.setattr(cheb, "STORE_BYTES", 23000)
        cheb.ChebGrid(40).q0_table    # a hit makes N = 40 the most recently used
        cheb.ChebGrid(46).q0_table
        files = sorted(Path(cheb._store_root()).glob("*/*"))
        assert files == sorted(stored(N) for N in (40, 44, 46))
        assert sum(f.stat().st_size for f in files) == 22632
        # a table larger than the whole budget is not stored, and evicts nothing
        monkeypatch.setattr(cheb, "STORE_BYTES", 1000)
        cheb.ChebGrid(48).q0_table
        assert sorted(Path(cheb._store_root()).glob("*/*")) == files

    def test_a_replaced_file_is_not_counted_against_the_budget(self, monkeypatch):
        # the store is at its budget, and its most recently used file has a wrong sum: the
        # rebuilt rule takes that file's place, so the other file is not evicted
        for N in (40, 42):
            cheb.ChebGrid(N).q0_table
        want = stored(40).read_bytes()
        stored(40).write_bytes(bytes(len(want)))
        os.utime(stored(42), (1000, 1000))
        os.utime(stored(40), (2000, 2000))
        monkeypatch.setattr(cheb, "STORE_BYTES", len(want) + stored(42).stat().st_size)
        cheb.ChebGrid(40).q0_table
        assert sorted(Path(cheb._store_root()).glob("*/*")) == [stored(40), stored(42)]
        assert stored(40).read_bytes() == want

    def test_a_relative_root_is_no_store(self, tmp_path, monkeypatch):
        # a relative XDG_CACHE_HOME (or "~" where no home is known) would write into the
        # working directory
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "cache")
        want = cheb.ChebGrid(40).q0_table
        assert np.array_equal(cheb.ChebGrid(40).q0_table, want)
        assert list(tmp_path.iterdir()) == []


class TestInterpolation:
    def test_cardinal_delta_property(self):
        grid = cheb.chebyshev_grid(9)
        for j in range(grid.N):
            vals = cardinal_eval(grid, j, grid.nodes)
            assert np.allclose(vals, np.eye(grid.N)[j], atol=1e-12)

    def test_polynomial_reproduction(self):
        grid = cheb.chebyshev_grid(12)
        coeffs = np.array([0.3, -1.0, 2.0, 0.0, 0.7, -0.2])
        f = np.polynomial.polynomial.Polynomial(coeffs)
        t = np.linspace(-0.97, 0.97, 41)
        assert np.allclose(interpolate(grid, f(grid.nodes), t), f(t),
                           atol=1e-12)

    def test_smooth_function_converges(self):
        t = np.linspace(-0.9, 0.9, 25)
        err = []
        for N in (8, 16, 32):
            grid = cheb.chebyshev_grid(N)
            approx = interpolate(grid, np.exp(grid.nodes), t)
            err.append(np.max(np.abs(approx - np.exp(t))))
        assert err[1] < 1e-3 * err[0]
        assert err[2] < 1e-13


class TestDifferentiation:
    def test_polynomial_derivative_exact(self):
        grid = cheb.chebyshev_grid(10)
        f = grid.nodes**7 - 3.0 * grid.nodes**4 + grid.nodes
        df = 7.0 * grid.nodes**6 - 12.0 * grid.nodes**3 + 1.0
        assert np.allclose(diff_matrix(grid.N) @ f, df, atol=1e-10)

    def test_spectral_accuracy_on_sine(self):
        grid = cheb.chebyshev_grid(30)
        df = diff_matrix(grid.N) @ np.sin(3.0 * grid.nodes)
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
        # the log-kernel rule's top ceil(N/2) rows, built once per grid; the
        # double-pole rule is not the grid's: each solve writes it into its H
        for N in (24, 25):
            grid = cheb.ChebGrid(N)
            table = grid.q0_table
            assert table is grid.q0_table
            assert table.shape == ((N + 1) // 2, N)
            assert not table.flags.writeable
            assert table.flags.c_contiguous
            assert not hasattr(grid, "pole_table")

    @pytest.mark.parametrize("N", (8, 32, 128))
    def test_finite_part_table_monomials(self, N):
        # eta_j(t_i) integrates t^m/(t - t_i)^2 exactly for m < N
        grid = cheb.ChebGrid(N)
        t = grid.nodes
        fp = cheb.pv_weight_table(grid)[1]
        for m in range(N):
            want = analytic_fp(m, t)
            assert np.all(np.abs(fp @ t**m - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("N", (8, 80, 800))
    def test_finite_part_table_matches_differentiation_oracle(self, N):
        # the moment build, the oracle of the closed forms, against the
        # construction before it: PV rule on G_j' = sum_k D_kj G_k, minus
        # the boundary terms of the integration by parts
        t = cheb.ChebGrid(N).nodes
        pv, fp = assembly_oracle.pv_weight_table(t)
        C, _ = coefficient_matrix(N)
        g_hi = C.sum(axis=0)                                   # G_j(1)
        g_lo = ((-1.0) ** np.arange(N)) @ C                    # G_j(-1)
        want = (pv @ diff_matrix(N)
                - np.outer(1.0 / (1.0 - t), g_hi) - np.outer(1.0 / (1.0 + t), g_lo))
        assert np.max(np.abs(fp - want)) <= 1e-13 * np.max(np.abs(want))

    def test_weight_tables_match_single_point_rules(self):
        grid = cheb.chebyshev_grid(20)
        pv = cheb.pv_weight_table(grid)[0]
        lg = whole(cheb.log_weight_table(grid), grid.N)
        for i in (0, 7, 19):
            assert np.allclose(pv[i], cheb.weights_cauchy(grid, grid.nodes[i]),
                               atol=1e-12)
            assert np.allclose(lg[i], cheb.weights_log(grid, grid.nodes[i]),
                               atol=1e-12)


class TestCardinalProducts:
    """The log table and the oracle PV table are DCT-III transforms of moment tables."""

    @pytest.mark.parametrize("N", (8, 80, 800))
    def test_tables_match_coefficient_products(self, N):
        grid = cheb.ChebGrid(N)
        C, _ = coefficient_matrix(N)
        for got, moments in ((assembly_oracle.pv_weight_table(grid.nodes)[0],
                              assembly_oracle.pv_moments(grid.nodes, N)),
                             (cheb.log_weight_table(grid),
                              cheb._log_moments(grid.nodes[:(N + 1) // 2], N))):
            want = moments.T @ C
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        want = cheb._plain_moments(N) @ C
        assert np.max(np.abs(grid.plain_weights - want)) <= 1e-15


def long_double_cosines(N):
    """The long-double matrix C_jn = cos(pi n (2j + 1)/(2N)), with column 0 set to 1/2.

    The cosine has period 4N in n (2j + 1), which is reduced in integers
    before pi multiplies it, so every argument is below 2 pi and rounds
    alike at every N, and each entry is read from a table of the 4N cosines.
    """
    n = np.arange(N)
    pi = np.arccos(np.longdouble(-1.0))
    C = np.cos(pi * np.arange(4 * N) / (2 * N))[np.multiply.outer(2 * n + 1, n) % (4 * N)]
    C[:, 0] = 0.5
    return C


def dct3_long_double(moments, C):
    """`cheb._cardinal_weights` as a direct cosine sum in long double, one row per point.

    W_j = (2/N) (x_0/2 + sum_n x_n cos(pi n (2j + 1)/(2N))), with
    C = long_double_cosines(N).
    """
    return np.dot(C, moments.astype(np.longdouble)).T * (2 / np.longdouble(len(moments)))


class TestDCT:
    """The DCT-III on numpy.fft against an exact reference."""

    @pytest.mark.parametrize("N", (*range(2, 40), 79, 80, 81, 300, 301, 800, 801))
    def test_matches_long_double_cosine_sum(self, N):
        rng = np.random.default_rng(N)
        h = (N + 1) // 2
        C = long_double_cosines(N)
        for moments in (cheb._log_moments(cheb.ChebGrid(N).nodes[:h], N),    # q0_table's
                        cheb._plain_moments(N), rng.standard_normal(N),
                        rng.standard_normal((N, 3))):
            want = dct3_long_double(moments, C)
            # scipy.fft.dct, the DCT the numpy.fft one replaced, to the same bound
            for got in (cheb._cardinal_weights(moments),
                        scipy.fft.dct(moments, type=3, axis=0).T / N):
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestBuildOracle:
    """The in-place builds repeat the earlier builds' arithmetic exactly."""

    @pytest.mark.parametrize("N", (8, 80, 800))
    def test_tables_bit_identical_and_c_contiguous(self, N):
        grid = cheb.ChebGrid(N)
        log_table = cheb.log_weight_table(grid)
        for table in (*cheb.pv_weight_table(grid), log_table):
            assert table.flags.c_contiguous
        assert np.array_equal(log_table,
                              assembly_oracle.log_weight_table(grid.nodes)[:(N + 1) // 2])

    @pytest.mark.parametrize("N", (8, 80, 800))
    def test_pv_moments_near_two_recurrence_build(self, N):
        # the PV moments' own recurrence rounds unlike the oracle's T_n L + g_n:
        # over the whole mesh within 2e-12 of the largest moment (8.6e-13 at
        # N = 800, 1.5e-14 at N = 80), mostly the oracle's error at the ends
        t = cheb.ChebGrid(N).nodes
        want = assembly_oracle.pv_moments(t, N)
        assert np.max(np.abs(cheb._pv_moments(t, N) - want)) <= 2e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("N", (2, 3, 8, 80, 81, 800, 801))
    def test_kernel_rules_match_per_solve_formation(self, N):
        # the log rule, read whole as assembly reads it from the grid's top rows,
        # and the double-pole rule equal their per-solve formation from the PV,
        # finite-part and log tables, kept in the oracle
        grid = cheb.ChebGrid(N)
        oracle = assembly_oracle.oracle_grid(grid)
        assert np.array_equal(np.vstack(grid.q0_rows(0, N)), assembly_oracle.q0_rule(oracle))
        assert np.array_equal(cheb.pv_weight_table(grid, pole=True),
                              assembly_oracle.pole_rule(oracle))

    @pytest.mark.parametrize("N", (2, 3, 32))
    def test_single_point_rules_bit_identical(self, N):
        # a scalar tau makes every row of the moment recurrences a 0-d view;
        # the PV rule's one recurrence rounds unlike the oracle's two, within
        # 2e-14 of the largest weight (6.3e-15 at N = 32)
        grid = cheb.chebyshev_grid(N)
        for tau in (-0.83, 0.0, 0.41):
            want = assembly_oracle.weights_cauchy(N, tau)
            got = cheb.weights_cauchy(grid, tau)
            assert np.max(np.abs(got - want)) <= 2e-14 * np.max(np.abs(want))
        for tau in (-1.0, -0.55, 0.0, 0.98, 1.0):
            assert np.array_equal(cheb.weights_log(grid, tau),
                                  assembly_oracle.weights_log(N, tau))


def reference_pv_moments(mp, taus, N):
    """The PV moments rho_n(tau), n < N, at each float tau, to 40 digits, as a double pair hi + lo.

    The moments' recurrence rho_{n+1} = 2 tau rho_n - rho_{n-1} + 2 mu_n
    from rho_0 = L(tau), rho_1 = tau L(tau) + 2 is run in 40-digit
    arithmetic; its homogeneous solutions grow at most linearly in n, so
    what is left of the float builds' error is their rounding.
    """
    hi = np.empty((N, len(taus)))
    lo = np.empty_like(hi)
    with mp.workdps(40):
        for k, tau in enumerate(taus):
            tau = mp.mpf(float(tau))
            prev = mp.log((1 - tau) / (1 + tau))
            rho = [prev, tau * prev + 2]
            for n in range(1, N - 1):
                source = 4 / mp.mpf(1 - n * n) if n % 2 == 0 else 0    # 2 mu_n
                rho.append(2 * tau * rho[n] - rho[n - 1] + source)
            for n, x in enumerate(rho[:N]):
                hi[n, k] = float(x)
                lo[n, k] = float(x - hi[n, k])
    return hi, lo


class TestPVAccuracy:
    """The PV moments' own recurrence against 40 digits and the oracle's two recurrences."""

    @pytest.mark.parametrize("N", (80, 300, 800))
    def test_pv_moments_and_cauchy_rule_to_40_digits(self, N):
        # errors relative to the largest entry at each tau, worst at the ends:
        # moments 6.2e-15, 2.8e-14, 1.1e-13 (oracle 1.9e-14, 4.4e-13, 9.5e-13)
        # and weights 1.5e-14, 7.5e-14, 3.7e-13 (oracle 2.4e-14, 7.9e-13,
        # 2.1e-12) at N = 80, 300, 800; the reference weights are the long
        # double DCT-III of the 40-digit moments' two parts
        mp = pytest.importorskip("mpmath")
        grid = cheb.chebyshev_grid(N)
        t = grid.nodes
        taus = (t[0], t[1], t[N // 3], t[N - 1], -0.999, -0.55, 0.3, 0.98)
        hi, lo = reference_pv_moments(mp, taus, N)
        C = long_double_cosines(N)
        ref_w = dct3_long_double(hi, C) + dct3_long_double(lo, C)
        builds = {"moments": (lambda tau: cheb._pv_moments(np.float64(tau), N),
                              lambda tau: assembly_oracle.pv_moments(np.float64(tau), N), hi.T),
                  "weights": (lambda tau: cheb.weights_cauchy(grid, tau),
                              lambda tau: assembly_oracle.weights_cauchy(N, tau), ref_w)}
        for name, (build, oracle, ref) in builds.items():
            scale = np.abs(ref).max(axis=1)
            err, oracle_err = (np.array([np.abs(f(tau) - r).max() for tau, r in zip(taus, ref)])
                               / scale for f in (build, oracle))
            if N >= 300:
                assert 3.0 * err.max() <= oracle_err.max(), name
            else:
                assert err.max() <= oracle_err.max(), name
            assert np.all(err <= np.maximum(2.0 * oracle_err, 2e-14)), name


def reference_rows(mp, N, rows):
    """Rows of the PV and finite-part tables at N exact Chebyshev nodes, to 40 digits.

    The closed forms of `cheb.pv_weight_table` evaluated in 40-digit
    arithmetic, with the plain weights from Fejer's first rule and both
    diagonals from the row sums L(t_i) and -2/(1 - t_i^2): exact
    identities, so what is left is the rounding of the float builds.
    """
    with mp.workdps(40):
        t = [mp.cospi(mp.mpf(2 * i + 1) / (2 * N)) for i in range(N)]
        q = [(-1) ** i * mp.sinpi(mp.mpf(2 * i + 1) / (2 * N)) for i in range(N)]
        cos = [mp.cospi(mp.mpf(m) / N) for m in range(2 * N)]    # cos(pi m / N)
        w = [2 * (1 - 2 * mp.fsum(cos[k * (2 * j + 1) % (2 * N)] / (4 * k * k - 1)
                                  for k in range(1, N // 2 + 1))) / N for j in range(N)]
        pv, fp = [], []
        for i in rows:
            c = [0 if j == i else 1 / (t[i] - t[j]) for j in range(N)]
            W = [(w[i] * q[j] / q[i] - w[j]) * c[j] for j in range(N)]
            W[i] = mp.log((1 - t[i]) / (1 + t[i])) - mp.fsum(W)
            eta = [(W[i] * q[j] / q[i] - W[j]) * c[j] for j in range(N)]
            eta[i] = -2 / (1 - t[i] ** 2) - mp.fsum(eta)
            pv.append([float(x) for x in W])
            fp.append([float(x) for x in eta])
    return np.array(pv), np.array(fp)


class TestClosedForms:
    """The closed-form PV and finite-part tables against the moment build and 40 digits."""

    @pytest.mark.parametrize("N", (8, 80, 800))
    def test_tables_match_moment_build(self, N):
        grid = cheb.ChebGrid(N)
        oracle = assembly_oracle.pv_weight_table(grid.nodes)
        for got, want in zip(cheb.pv_weight_table(grid), oracle):
            assert np.max(np.abs(got - want)) <= 5e-11 * np.max(np.abs(want))

    def test_no_less_accurate_than_moment_build(self):
        mp = pytest.importorskip("mpmath")
        N = 300
        rows = [0, N // 2, N - 1]
        grid = cheb.ChebGrid(N)
        oracle = assembly_oracle.pv_weight_table(grid.nodes)
        for got, want, exact in zip(cheb.pv_weight_table(grid), oracle,
                                    reference_rows(mp, N, rows)):
            err = np.max(np.abs(got[rows] - exact))
            assert err <= 1.5 * np.max(np.abs(want[rows] - exact))


def reference_q0(mp, N):
    """The log-kernel rule q0_table at N exact Chebyshev nodes, to 40 digits.

    Each cardinal function l_j is expanded in monomials, which the plain
    weight and the log integral Omega_j(t_i) = int l_j(t) log|t - t_i| dt
    then integrate in closed form (analytic_plain, analytic_log).
    """
    with mp.workdps(40):
        t = [mp.cospi(mp.mpf(2 * i + 1) / (2 * N)) for i in range(N)]
        plain = [mp.mpf(0) if m % 2 else mp.mpf(2) / (m + 1) for m in range(N)]

        def log_monomial(m, tau):
            bnd = ((1 - tau ** (m + 1)) * mp.log(1 - tau)
                   - ((-1) ** (m + 1) - tau ** (m + 1)) * mp.log(1 + tau))
            return (bnd - mp.fsum(tau ** k * plain[m - k] for k in range(m + 1))) / (m + 1)

        logs = [[log_monomial(m, tau) for m in range(N)] for tau in t]
        Q = np.empty((N, N))
        for j in range(N):
            c = [mp.mpf(1)]
            for k in range(N):
                if k != j:    # times (t - t_k)/(t_j - t_k)
                    c = [((c[m - 1] if m else 0) - t[k] * (c[m] if m < len(c) else 0))
                         / (t[j] - t[k]) for m in range(len(c) + 1)]
            w = mp.fsum(a * b for a, b in zip(c, plain))
            for i in range(N):
                omega = mp.fsum(a * b for a, b in zip(c, logs[i]))
                Q[i, j] = float(w * mp.log(1 - t[i] * t[j]) - omega)
    return Q


def whole(top, N):
    """The whole centrosymmetric table of order N from its top ceil(N/2) rows."""
    return np.vstack((top, top[:N // 2][::-1, ::-1]))


class TestMirror:
    """The tables at the mesh points are their top rows and the mirror image of them."""

    @pytest.mark.parametrize("N", (2, 3, 8, 9, 80, 81, 800))
    def test_tables_are_exact_mirror_images(self, N):
        grid = cheb.ChebGrid(N)
        assert np.array_equal(grid.nodes, -grid.nodes[::-1])
        pv, fp = cheb.pv_weight_table(grid)
        for table in (np.vstack(grid.q0_rows(0, N)), whole(cheb.log_weight_table(grid), N), fp):
            assert np.array_equal(table, table[::-1, ::-1])
        assert np.array_equal(pv, -pv[::-1, ::-1])

    def test_plain_weights_are_palindromes(self):
        # q0_table's mirrored rows take w_j = w_{N-1-j}, which the DCT-III
        # alone rounds away at most N
        for N in range(2, 802):
            w = cheb.ChebGrid(N).plain_weights
            assert np.array_equal(w, w[::-1]), N

    @pytest.mark.parametrize("N", (*range(2, 40), 79, 80, 81, 800, 801))
    def test_log_rule_rows_are_read_in_place(self, N):
        # the grid keeps the log rule's top rows, and assembly reads the bottom
        # ones as reversed views of them: row N-1-i is row i reversed, the
        # middle row of odd N too, and a block of rows on either side of the
        # middle or across it is those rows of the whole rule
        grid = cheb.ChebGrid(N)
        Q = np.vstack(grid.q0_rows(0, N))
        assert np.array_equal(Q, Q[::-1, ::-1])
        assert np.array_equal(Q[:(N + 1) // 2], grid.q0_table)
        rows = max(1, N // 3)
        for start in range(0, N, rows):
            views = grid.q0_rows(start, min(start + rows, N))
            assert all(np.shares_memory(v, grid.q0_table) for v in views if v.size)
            assert np.array_equal(np.vstack(views), Q[start:start + rows])

    @pytest.mark.parametrize("N", (10, 11, 16))
    def test_q0_table_both_halves_to_40_digits(self, N):
        mp = pytest.importorskip("mpmath")
        err = np.abs(np.vstack(cheb.ChebGrid(N).q0_rows(0, N)) - reference_q0(mp, N))
        h = (N + 1) // 2
        # the mirrored bottom rows are as accurate as the computed top rows
        # (4.1e-16 at N = 16; a whole-mesh build's bottom rows miss by 7.8e-16)
        assert err[:h].max() <= 6e-16
        assert err[h:].max() <= 6e-16

    def test_rules_build_in_bounded_memory(self):
        # a fresh grid at N = 800 keeps the log rule's top rows, 4 bytes * N^2;
        # their build peaks at 9.2 (the half-mesh moments and their recurrence,
        # 12.9 while the log table was built whole), and the pole rule, written
        # into an array given to it, allocates 4.5 blocks of 2^15 entries
        N = 800
        grid = cheb.ChebGrid(N)
        out = np.empty((N, N))
        tracemalloc.start()
        try:
            grid.q0_table
            kept, q0_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            cheb.pv_weight_table(grid, pole=True, out=out)
            pole_peak = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        assert kept <= 4.5 * N**2
        assert q0_peak <= 9.5 * N**2
        assert pole_peak <= 5 * cheb.BLOCK_ELEMENTS * 8
