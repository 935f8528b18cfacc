"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Each criterion is a single test function; the printed line summarizes the
measured worst case against the required tolerance.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from chebquark import cheb
from chebquark import momentum as mom
from chebquark import radial
from chebquark import references as refs
from chebquark.kernels import Problem

from test_cheb import analytic_log, analytic_plain, analytic_pv


def report(k, ok, detail):
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_1_quadrature_exactness():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    taus = rng.uniform(-0.99, 0.99, size=50)
    worst = 0.0
    for N in (8, 32, 128):
        grid = cheb.chebyshev_grid(N)
        powers = grid.nodes[None, :] ** np.arange(N)[:, None]   # [m, j]
        w = grid.plain_weights
        for m in range(N):
            exact = analytic_plain(m)
            worst = max(worst, abs(w @ powers[m] - exact) / max(1.0, abs(exact)))
        for tau in taus:
            wc = cheb.weights_cauchy(grid, tau)
            wl = cheb.weights_log(grid, tau)
            for m in range(N):
                e1 = analytic_pv(m, tau)
                e2 = analytic_log(m, tau)
                worst = max(worst, abs(wc @ powers[m] - e1) / max(1.0, abs(e1)))
                worst = max(worst, abs(wl @ powers[m] - e2) / max(1.0, abs(e2)))
    dt = time.time() - t0
    report(1, worst <= 1e-9 and dt < 10.0,
           f"plain/PV/log monomial rules, worst rel err {worst:.2e} "
           f"(tol 1e-9), {dt:.1f}s (limit 10s)")


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    grid = cheb.chebyshev_grid(64)
    funcs = (np.exp, lambda t: 1.0 / (2.0 + t), lambda t: np.sin(3.0 * t))
    worst = 0.0
    for tau in (-0.8, -0.31, 0.0, 0.44, 0.9):
        wc = cheb.weights_cauchy(grid, tau)
        wl = cheb.weights_log(grid, tau)
        for f in funcs:
            reg, _ = quad(lambda t: (f(t) - f(tau)) / (t - tau), -1.0, 1.0,
                          epsabs=1e-13, limit=200, points=[tau])
            pv_exact = reg + f(tau) * np.log((1.0 - tau) / (1.0 + tau))
            log_exact, _ = quad(lambda t: f(t) * np.log(abs(t - tau)), -1.0, 1.0,
                                epsabs=1e-13, limit=200, points=[tau])
            worst = max(worst, abs(wc @ f(grid.nodes) - pv_exact))
            worst = max(worst, abs(wl @ f(grid.nodes) - log_exact))
    dt = time.time() - t0
    report(2, worst <= 1e-9 and dt < 30.0,
           f"singular rules vs adaptive subtraction oracle at N=64, "
           f"worst abs err {worst:.2e} (tol 1e-9), {dt:.1f}s (limit 30s)")


def test_criterion_3_coulomb_benchmark():
    t0 = time.time()
    sigma = refs.TABLE1_SIGMA
    mu_a = 1.0 / (2.0 * refs.TABLE1_S)
    worst = 0.0
    for ell in range(4):
        problem = Problem(ell=ell, alpha=refs.TABLE1_ALPHA, linear=False, s=refs.TABLE1_S)
        levels, complete = mom.solve_levels(problem, refs.TABLE1_N, sigma, 5)
        assert complete
        for lv in levels:
            exact = radial.hydrogen_energy(lv.n, ell, refs.TABLE1_ALPHA, mu_a)
            worst = max(worst, abs(lv.epsilon / exact - 1.0))
    dt = time.time() - t0
    report(3, worst <= 1e-8 and dt < 60.0,
           f"alpha=1, 2 mu a=1, N=80, ell<=3, n<=4: worst rel err {worst:.2e} "
           f"(tol 1e-8), {dt:.1f}s (limit 60s)")


def test_criterion_4_linear_potential_rows():
    t0 = time.time()
    worst = 0.0
    for ell, row in refs.TABLE2_EXACT.items():
        N = refs.TABLE2_N[ell]
        sigma = refs.TABLE2_SIGMA[ell]
        levels, complete = mom.solve_levels(Problem(ell=ell), N, sigma, 5)
        assert complete
        for lv in levels:
            worst = max(worst, abs(lv.epsilon - row[lv.n]))
    dt = time.time() - t0
    report(4, worst <= 2e-6 and dt < 300.0,
           f"linear rows at N=300/100/100/80: worst abs err {worst:.2e} "
           f"(tol 2e-6), {dt:.1f}s (limit 300s)")


def test_criterion_5_quarkonium_masses():
    t0 = time.time()
    sigma = refs.TABLE3_SIGMA
    worst_regular = 0.0
    disputed_delta = None
    for flavor in ("charm", "bottom"):
        scales = refs.physical_scales(flavor)
        for ell in range(3):
            params = Problem(ell=ell, alpha=refs.CORNELL_ALPHA, s=refs.physical_scales(flavor).s)
            levels, complete = mom.solve_levels(params, refs.TABLE3_N, sigma, 3)
            assert complete
            for lv in levels:
                mass = scales.mass_gev(lv.epsilon)
                if (flavor, ell, lv.n) == refs.TABLE3_DISPUTED:
                    # disputed cell: graded against our own coordinate
                    # solver rather than either printed value
                    eps_r = radial.solve_radial(params, lv.n)
                    disputed_delta = abs(mass - scales.mass_gev(eps_r))
                else:
                    ref = refs.TABLE3_MASS_GEV[flavor][ell][lv.n]
                    worst_regular = max(worst_regular, abs(mass - ref))
    dt = time.time() - t0
    ok = (worst_regular <= refs.TABLE3_TOL_GEV
          and disputed_delta is not None
          and disputed_delta <= refs.TABLE3_DISPUTED_TOL_GEV
          and dt < 300.0)
    report(5, ok,
           f"17 masses worst err {worst_regular:.1e} GeV (tol 0.001); disputed "
           f"bottom ell=2 n=2 vs coordinate oracle {disputed_delta:.1e} GeV "
           f"(tol 0.005), {dt:.1f}s (limit 300s)")


def test_criterion_6_cross_solver_agreement():
    worst = 0.0
    for ell in refs.TABLE2_EXACT:
        N = refs.TABLE2_N[ell]
        sigma = refs.TABLE2_SIGMA[ell]
        levels, complete = mom.solve_levels(Problem(ell=ell), N, sigma, 5)
        assert complete
        for lv in levels:
            eps_r = radial.solve_radial(Problem(ell=ell), lv.n)
            worst = max(worst, abs(lv.epsilon - eps_r))
    report(6, worst <= 1e-5,
           f"momentum vs coordinate on all 20 linear configs: worst "
           f"{worst:.2e} (tol 1e-5)")


def test_criterion_7_scaling_law():
    # the correct homogeneity of the linear problem is
    # eps(0, s, 0) = s^(1/3) eps(0, 1, 0); the published exponent 2/3 is a
    # misprint, inconsistent with the equation itself (see notes ledger)
    exact_base = [radial.airy_reference(nu) for nu in range(1, 6)]
    worst = 0.0
    for s in (0.5, 2.0):
        sigma = 0.5 * s ** (-1.0 / 3.0)
        levels, complete = mom.solve_levels(Problem(ell=0, s=s), 300,
                                            sigma, 5)
        assert complete
        for lv, base in zip(levels, exact_base):
            worst = max(worst, abs(lv.epsilon / (s ** (1.0 / 3.0) * base) - 1.0))
        # the independent coordinate solver confirms the exponent
        eps_r = radial.solve_radial(Problem(ell=0, s=s), 0)
        assert abs(eps_r / (s ** (1.0 / 3.0) * exact_base[0]) - 1.0) < 1e-10
    report(7, worst <= 1e-6,
           f"eps(0,s,0) = s^(1/3) eps(0,1,0) at s in {{0.5, 2}}: worst rel "
           f"{worst:.2e} (tol 1e-6; stated exponent 2/3 is a misprint, "
           f"verified independently by the coordinate solver)")


def test_criterion_8_convergence_behavior():
    # Coulomb: error drops >= 10x from N=40 to N=80 for every level
    mu_a = 1.0 / (2.0 * refs.TABLE1_S)
    errs = {}
    for N in (40, 80):
        sigma = refs.TABLE1_SIGMA
        for ell in range(4):
            problem = Problem(ell=ell, alpha=refs.TABLE1_ALPHA, linear=False, s=refs.TABLE1_S)
            levels, complete = mom.solve_levels(problem, N, sigma, 5)
            assert complete
            for lv in levels:
                exact = radial.hydrogen_energy(lv.n, ell, refs.TABLE1_ALPHA, mu_a)
                errs[(N, ell, lv.n)] = max(abs(lv.epsilon / exact - 1.0), 1e-15)
    min_ratio = min(errs[(40, ell, n)] / errs[(80, ell, n)]
                    for ell in range(4) for n in range(5))

    # linear: |eps_N - eps_2N| non-increasing from N=50 onward
    eps = [[lv.epsilon for lv in mom.solve_levels(Problem(ell=0), N, 0.5, 5)[0]]
           for N in (50, 100, 200, 400)]
    diffs = np.abs(np.diff(eps, axis=0))
    monotone = bool(np.all(diffs[1:] <= diffs[:-1]))

    report(8, min_ratio >= 10.0 and monotone,
           f"Coulomb err ratio N=40/N=80 min {min_ratio:.1f} (need >= 10); "
           f"linear |eps_N - eps_2N| non-increasing from N=50: {monotone}")


def test_criterion_9_coordinate_oracle_self_test():
    worst_airy = 0.0
    for nu in range(1, 6):
        pb = Problem(ell=0, alpha=0.0, linear=True, s=1.0)
        worst_airy = max(worst_airy,
                         abs(radial.solve_radial(pb, nu - 1) / radial.airy_reference(nu) - 1.0))
    worst_h = 0.0
    for ell in range(5):
        for n in range(5 - ell):
            pb = Problem(ell=ell, alpha=1.0, linear=False, s=1.0)
            exact = radial.hydrogen_energy(n, ell, 1.0, 0.5)
            worst_h = max(worst_h, abs(radial.solve_radial(pb, n) / exact - 1.0))
    report(9, worst_airy <= 1e-9 and worst_h <= 1e-9,
           f"airy worst rel {worst_airy:.2e}, hydrogen (n+ell<=4) worst rel "
           f"{worst_h:.2e} (tol 1e-9)")
