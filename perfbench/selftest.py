"""Self-tests of the benchmark itself, not of the library.

Run from the repository root (takes under a minute):

    python3 perfbench/selftest.py

* Two traced passes of every workload, in different orders, give exactly
  equal counters.
* Only weight tables computed from their moments count as table builds.
* Grading passes the unperturbed output, and flags a level whose energy is
  moved beyond its tolerance in either direction, or that is missing.
"""

import copy
import time
import unittest

import run  # first: pins the BLAS threads and puts src/ on the path
import spans
import workloads
from chebquark import cli
from chebquark import references as refs

COUNTERS = (
    "cheb.table_builds",
    "kernels.calls",
    "momentum.assemble_calls",
    "momentum.eigpairs_computed",
    "radial.ivp_calls",
    "radial.rhs_evals",
)


def _serve_all(requests, traced=False):
    deadline = time.perf_counter() + run.HARD_LIMIT_S
    return [run.serve(r, cli.build_config(r.raw), traced, i, deadline)
            for i, r in enumerate(requests)]


class TracedCountersRepeat(unittest.TestCase):

    def test_counters_equal_across_traced_runs(self):
        for name, requests in workloads.WORKLOADS.items():
            configs = [cli.build_config(r.raw) for r in requests]
            counters = []
            for seed in (1, 2):
                passes = run.run_passes(requests, configs, 0.0, seed, True,
                                        time.perf_counter() + run.HARD_LIMIT_S)
                metrics = run.per_layer_metrics(passes)
                counters.append({k: metrics[k][0] for k in COUNTERS})
            with self.subTest(workload=name):
                self.assertEqual(counters[0], counters[1])
                self.assertGreater(counters[0]["momentum.eigpairs_computed"], 0)


class TableBuildsCountRealBuilds(unittest.TestCase):

    def test_cached_tables_and_point_moments_are_not_builds(self):
        S = spans.Span
        request = [
            S("cli", 0.0, 10.0, None, 0, None),
            # a table built from its moments: timed by the table function
            S("cheb.pv_weight_table", 1.0, 3.0, 0, 0, None),
            S("cheb.pv_moments", 1.5, 2.5, 1, 0, 1),
            # a table served from a cache: no moments computed
            S("cheb.log_weight_table", 4.0, 4.1, 0, 0, None),
            # moments over a mesh built outside the table functions
            S("cheb.log_moments", 5.0, 5.5, 0, 0, 1),
            # moments at a single point are not a table
            S("cheb.pv_moments", 6.0, 6.2, 0, 0, 0),
        ]
        builds, seconds = spans.table_builds(request)
        self.assertEqual(builds, 2)
        self.assertAlmostEqual(seconds, 2.5)


def _row_key(request, row):
    (key,) = workloads.energies(request, {"rows": [row], "extra": {}})
    return key


def _shifted(request, report, key, solver, delta):
    """Copy of a JSON report with one level's energy from one solver moved."""
    out = copy.deepcopy(report)
    if solver == "coordinate":
        for pair in out["extra"]["compare"]:
            if (pair["ell"], pair["n"]) == key[1:]:
                pair["coordinate"] += delta
        return out
    for row in out["rows"]:
        if _row_key(request, row) == key:
            row["epsilon"] += delta
            if row["mass_gev"] is not None:
                row["mass_gev"] = refs.physical_scales(key[0]).mass_gev(row["epsilon"])
    return out


class GradingFlagsPerturbations(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        # every potential, and the coordinate solver's tolerances too
        cls.outcomes = _serve_all(workloads.WORKLOADS["campaigns"]
                                  + workloads.WORKLOADS["cross_check"])

    def test_unperturbed_levels_pass(self):
        for o in self.outcomes:
            self.assertIsNone(o.error)
            for g in o.grades:
                self.assertTrue(g.passed, f"{g.name}: {g.detail}")

    def test_level_moved_beyond_tolerance_fails(self):
        for o in self.outcomes:
            request = o.request
            solvers = ("momentum", "coordinate") if request.raw["command"] == "compare" \
                else ("momentum",)
            for index, key in enumerate(request.levels):
                for solver in solvers:
                    tol = workloads.eps_tolerance(request.kind, key, solver)
                    for sign in (1.0, -1.0):
                        report = _shifted(request, o.report, key, solver, 2.0 * sign * tol)
                        grades = workloads.grade(request, report)
                        with self.subTest(level=grades[index].name, solver=solver, sign=sign):
                            self.assertFalse(grades[index].passed)
                            self.assertNotIn("missing", grades[index].detail)
                            others = grades[:index] + grades[index + 1:]
                            self.assertTrue(all(g.passed for g in others))

    def test_missing_level_fails(self):
        o = self.outcomes[0]
        report = copy.deepcopy(o.report)
        dropped = report["rows"].pop(3)
        grades = workloads.grade(o.request, report)
        index = o.request.levels.index(_row_key(o.request, dropped))
        self.assertFalse(grades[index].passed)
        self.assertIn("missing", grades[index].detail)
        self.assertEqual(sum(not g.passed for g in grades), 1)

    def test_known_failures_name_real_levels(self):
        names = {g.name for requests in workloads.WORKLOADS.values()
                 for r in requests for g in workloads.grade(r, None)}
        self.assertLessEqual(workloads.KNOWN_FAILURES, names)


if __name__ == "__main__":
    unittest.main()
