"""Configuration parsing, run commands, emission formats, exit codes."""

import json
import os
import subprocess
import sys
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from chebquark import cheb, cli, radial
from chebquark import momentum as mom
from chebquark import references as refs
from chebquark.kernels import Problem


class TestParseConfig:
    def test_minimal_linear_run(self):
        cfg = cli.build_config(cli.read_config("potential = linear\ns = 1\nell = 0\n"))
        assert cfg.command == "solve"
        assert [w.sigma for w in cfg.waves] == [1.0]
        assert [w.N for w in cfg.waves] == [100]
        assert cfg.format == "pretty"

    def test_sections_are_merged(self):
        text = "[run]\ncommand = scan\nN = 50 100\n[potential]\npotential = linear\nell = 0 1\n"
        cfg = cli.build_config(cli.read_config(text))
        assert cfg.command == "scan"
        # scan solves each ell at each N
        assert [(w.problem.ell, w.N) for w in cfg.waves] == [(0, 50), (0, 100), (1, 50), (1, 100)]

    def test_charm_physical_conversion(self):
        cfg = cli.build_config(cli.read_config(
            "potential = cornell\nalpha = 0.50667\nbeta = 0.1694\nmass = 1.37\n"))
        # s = sqrt(beta)/m for equal-mass quarkonium, a = 1/sqrt(beta)
        assert abs(cfg.waves[0].problem.s - 0.1694**0.5 / 1.37) < 1e-15
        assert cfg.waves[0].scales is not None

    def test_unknown_keys_listed(self):
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli.build_config(cli.read_config("bogus = 3\npotential = linear\n"))

    def test_invalid_order(self):
        with pytest.raises(cli.ConfigError, match="'N'"):
            cli.build_config(cli.read_config("potential = linear\nN = 1\n"))

    def test_invalid_value_names_field(self):
        with pytest.raises(cli.ConfigError, match="'sigma'"):
            cli.build_config(cli.read_config("potential = linear\nsigma = wide\n"))

    def test_physical_requires_positive_beta(self):
        with pytest.raises(cli.ConfigError, match="beta"):
            cli.build_config(cli.read_config(
                "potential = cornell\nalpha = 0.5\nbeta = -1\nmass = 1.37\n"))

    @pytest.mark.parametrize("name", ("sigma", "s", "alpha", "beta", "mass"))
    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    def test_non_finite_number_rejected(self, name, value):
        with pytest.raises(cli.ConfigError, match=f"'{name}' must be finite"):
            cli.build_config(cli.read_config(f"potential = linear\n{name} = {value}\n"))

    @pytest.mark.parametrize("name", ("levels", "table"))
    def test_non_integer_count_rejected(self, name):
        with pytest.raises(cli.ConfigError, match=f"'{name}' must be an integer"):
            cli.build_config(cli.read_config(f"potential = linear\n{name} = 2.7\n"))

    def test_readme_example_parses(self):
        # the annotated example in README.md, inline comments included
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = cli.build_config(cli.read_config(readme.split("```ini\n", 1)[1].split("```", 1)[0]))
        assert (cfg.command, cfg.out) == ("solve", "results.csv")
        assert [(w.problem.ell, w.N) for w in cfg.waves] == [(0, 100), (1, 100), (2, 100)]
        assert all(w.scales is not None for w in cfg.waves)

    def test_reproduce_requires_table(self):
        with pytest.raises(cli.ConfigError, match="table"):
            cli.build_config(cli.read_config("command = reproduce\n"))

    @pytest.mark.parametrize("text", (
        "[DEFAULT]\npotential = coulomb\nalpha = 1\nN = 40\nlevels = 1\n",
        "[DEFAULT]\npotential = coulomb\nalpha = 1\n[run]\nN = 40\nlevels = 1\n",
        "[DEFAULT]\npotential = coulomb\n[run]\nalpha = 1\nN = 40\n[more]\nlevels = 1\n",
    ), ids=("alone", "one-other", "two-others"))
    def test_default_section_is_merged(self, text):
        (wave,) = cli.build_config(cli.read_config(text)).waves
        assert (wave.N, wave.levels) == (40, 1)
        assert wave.problem == Problem(ell=0, alpha=1.0, linear=False, s=1.0)

    def test_default_section_key_repeated_elsewhere_rejected(self):
        with pytest.raises(cli.ConfigError, match="duplicate key 'N'"):
            cli.build_config(cli.read_config("[DEFAULT]\nN = 40\n[run]\nN = 50\n"))

    def test_repeated_header_is_merged(self):
        cfg = cli.build_config(cli.read_config(
            "[run]\nN = 40\n[potential]\nell = 1\n[run]\nlevels = 2\n"))
        assert [(w.problem.ell, w.N, w.levels) for w in cfg.waves] == [(1, 40, 2)]

    @pytest.mark.parametrize("header", ("", "[run]\n"))
    def test_byte_order_mark_is_dropped(self, header):
        text = header + "potential = linear\nN = 40\n"
        assert (cli.build_config(cli.read_config("\ufeff" + text))
                == cli.build_config(cli.read_config(text)))

    @pytest.mark.parametrize(("text", "line"), (
        ("potential = linear\nN: 40\n", 2),
        ("[run]\n; a comment\nN = 40\n", 2),
        ("# a comment\n\nN = 40\n    80\n", 4),
        ("[run]\nN = 40\nlevels\n", 3),
        ("= 40\n", 1),
    ), ids=("colon", "semicolon-comment", "continuation", "no-value", "no-key"))
    def test_malformed_line_named_by_number(self, text, line):
        with pytest.raises(cli.ConfigError, match=f"^malformed configuration: line {line}: "):
            cli.build_config(cli.read_config(text))


class TestReports:
    def setup_method(self):
        cfg = cli.build_config(cli.read_config(
            "command = solve\npotential = linear\ns = 1\nell = 1\nlevels = 2\nN = 60\n"))
        self.report = cli.run(cfg)

    def test_solve_rows(self):
        assert self.report.status == cli.EXIT_OK
        assert [r["n"] for r in self.report.rows] == [0, 1]
        assert abs(self.report.rows[0]["epsilon"] - 3.361254) < 1e-4

    def test_csv_schema(self):
        text = cli.emit_csv(self.report)
        header = text.splitlines()[0]
        assert header == "ell,n,N,sigma,epsilon,mass_gev"
        # dimensionless run leaves the mass column empty
        assert text.splitlines()[1].split(",")[5] == ""

    def test_json_round_trip_bit_exact(self):
        text = cli.report_to_json(self.report)
        back = json.loads(text)
        for a, b in zip(self.report.rows, back["rows"], strict=True):
            assert list(b) == list(cli.CSV_FIELDS)
            assert a["epsilon"] == b["epsilon"]
        assert json.dumps(back, indent=2) == text

    @pytest.mark.parametrize("command, N", (("solve", "60"), ("scan", "40 60"),
                                            ("compare", "60")))
    def test_json_equals_the_asdict_form(self, command, N):
        report = cli.run(cli.build_config(cli.read_config(
            f"command = {command}\npotential = linear\ns = 1\nell = 0 1\nlevels = 2\nN = {N}\n")))
        assert report.rows
        assert cli.report_to_json(report) == json.dumps(asdict(report), indent=2)

    def test_pretty_contains_status(self):
        assert "status: 0" in cli.emit_pretty(self.report)


class TestCommands:
    def test_compare_small(self):
        cfg = cli.build_config(cli.read_config(
            "command = compare\npotential = linear\ns = 1\nell = 2\nlevels = 1\nN = 80\n"))
        report = cli.run(cfg)
        assert report.status == cli.EXIT_OK
        pair = report.extra["compare"][0]
        assert abs(pair["delta"]) < 1e-5
        assert abs(pair["momentum"] - 4.248182) < 1e-4

    @pytest.mark.parametrize("s", ("1e-8", "1e-5"))
    def test_compare_fails_when_the_solvers_disagree(self, s):
        # N = 80 at sigma = 1 does not resolve small s: at s = 1e-8 momentum
        # 0.1209 against coordinate 0.005037; at s = 1e-5 a delta of 7.3e-7,
        # below 1e-5 but above 1e-5 of the energy unit s^(1/3) = 0.0215
        cfg = cli.build_config(cli.read_config("command = compare\npotential = linear\n"
                                               f"s = {s}\nell = 0\nlevels = 1\nN = 80\n"
                                               "sigma = 1\n"))
        report = cli.run(cfg)
        assert report.status == cli.EXIT_NUMERICAL
        assert abs(report.extra["compare"][0]["delta"]) > cli.COMPARE_TOL * float(s) ** (1 / 3)
        assert "the solvers disagree" in report.diagnostics[-1]

    def test_coulomb_continuum_is_not_a_bound_level(self):
        # 40 levels at N = 80: from n = 17 on the eigenvalues lie above the
        # continuum threshold 0 and used to be returned as levels
        cfg = cli.build_config(cli.read_config(
            "command = solve\npotential = coulomb\nalpha = 1\ns = 1\n"
            "ell = 0\nN = 80\nsigma = 0.5\nlevels = 40\n"))
        report = cli.run(cfg)
        assert report.status == cli.EXIT_NUMERICAL
        assert report.rows and all(row["epsilon"] < 0.0 for row in report.rows)
        assert f"only {len(report.rows)} of 40 levels passed the filters" in report.diagnostics[-1]

    def test_compare_weak_coulomb_finds_no_continuum_levels(self):
        # alpha = 1e-8 at sigma = 1: the true levels (-2.5e-17 ...) are out of
        # reach at N = 80, and the positive eigenvalues 8.05e-4 ... are continuum
        cfg = cli.build_config(cli.read_config(
            "command = compare\npotential = coulomb\nalpha = 1e-8\ns = 1\n"
            "ell = 0\nN = 80\nlevels = 3\nsigma = 1\n"))
        report = cli.run(cfg)
        assert report.status == cli.EXIT_NUMERICAL
        assert report.rows == [] and report.extra["compare"] == []
        assert report.diagnostics == ["ell=0: only 0 of 3 levels passed the filters"]

    def test_compare_small_s_at_the_derived_sigma(self):
        # the levels sit near the momentum unit s^(-1/3) = 464, which sigma = 1
        # does not resolve (above); without sigma the run maps there
        report = cli.run(cli.build_config(cli.read_config(
            "command = compare\npotential = linear\ns = 1e-8\nell = 0\nlevels = 2\nN = 80\n")))
        assert report.status == cli.EXIT_OK
        assert [row["sigma"] for row in report.rows] == [pytest.approx(464.158883, rel=1e-9)] * 2
        assert [round(row["epsilon"], 7) for row in report.rows] == [0.0050373, 0.0088072]

    def test_compare_dimensionless_cornell(self):
        # potential = cornell without beta runs in the units of s, as linear does
        report = cli.run(cli.build_config(cli.read_config(
            "command = compare\npotential = cornell\nalpha = 0.5\ns = 1\nell = 0, 1, 2\n"
            "N = 100\nlevels = 3\n")))
        assert report.status == cli.EXIT_OK
        assert [(pair["ell"], pair["n"]) for pair in report.extra["compare"]] == [
            (ell, n) for ell in (0, 1, 2) for n in range(3)]
        assert all(abs(pair["delta"]) < 1e-6 for pair in report.extra["compare"])
        assert all(row["mass_gev"] is None for row in report.rows)

    def test_weak_coulomb_levels_at_the_derived_sigma(self):
        # sigma = alpha/(2 s) = 5e-9, the Bohr momentum
        report = cli.run(cli.build_config(cli.read_config(
            "potential = coulomb\nalpha = 1e-8\ns = 1\nell = 0\nN = 80\nlevels = 3\n")))
        assert report.status == cli.EXIT_OK
        assert [row["sigma"] for row in report.rows] == [pytest.approx(5e-9, rel=1e-15)] * 3
        for row in report.rows:
            exact = radial.hydrogen_energy(row["n"], 0, 1e-8, 0.5)
            assert abs(row["epsilon"] / exact - 1.0) < 1e-8

    @pytest.mark.parametrize(("text", "sigma"), (
        ("potential = linear\ns = 1\n", 1.0),
        ("potential = coulomb\nalpha = 1\ns = 1\n", 0.5),
        ("potential = cornell\nalpha = 0.50667\nbeta = 0.1694\nmass = 1.37\n", 1.493),
    ), ids=("linear", "coulomb", "charm"))
    def test_rows_report_the_derived_sigma(self, text, sigma):
        cfg = cli.build_config(cli.read_config(text + "ell = 0 1\nN = 40\nlevels = 2\n"))
        assert [wave.sigma for wave in cfg.waves] == [wave.problem.momentum_unit
                                                     for wave in cfg.waves]
        report = cli.run(cfg)
        assert len(report.rows) == 4
        assert all(row["sigma"] == pytest.approx(sigma, abs=5e-4) for row in report.rows)

    def test_scan_diffs_recorded(self):
        cfg = cli.build_config(cli.read_config(
            "command = scan\npotential = linear\ns = 1\nell = 0\nlevels = 1\nN = 40 80\n"))
        report = cli.run(cfg)
        assert report.status == cli.EXIT_OK
        assert "0" in report.extra["successive_differences"]

    def test_scan_rows_equal_solve_rows(self):
        text = "potential = linear\ns = 1\nell = 1\nlevels = 2\n"
        scan = cli.run(cli.build_config(cli.read_config(text + "command = scan\nN = 40 60\n")))
        solve = cli.run(cli.build_config(cli.read_config(text + "command = solve\nN = 60\n")))
        at_60 = [row for row in scan.rows if row["N"] == 60]
        assert at_60 == solve.rows

    def test_scan_marks_missing_levels(self, monkeypatch):
        solve_levels = mom.solve_levels
        monkeypatch.setattr(mom, "solve_levels", lambda problem, N, sigma, count: (
            (solve_levels(problem, N, sigma, count - 1)[0], False) if N == 60
            else solve_levels(problem, N, sigma, count)))
        report = cli.run(cli.build_config(cli.read_config(
            "command = scan\npotential = linear\ns = 1\nell = 1\nlevels = 2\nN = 40 60 80\n")))
        assert report.status == cli.EXIT_NUMERICAL
        assert [(r["N"], r["n"]) for r in report.rows] == [(40, 0), (40, 1), (60, 0), (80, 0), (80, 1)]
        # level 1 is missing at N = 60, so neither of its differences is printed
        diffs = report.extra["successive_differences"]["1"]
        assert [pair[1] for pair in diffs] == [None, None]
        assert report.diagnostics == [
            "ell=1 N=60: only 1 of 2 levels passed the filters",
            f"ell=1 n=0: N 40 -> 60 changes eps by {diffs[0][0]:.1e}",
            f"ell=1 n=0: N 60 -> 80 changes eps by {diffs[1][0]:.1e}"]

    def test_scan_prints_each_successive_difference(self):
        cfg = cli.build_config(cli.read_config(
            "command = scan\npotential = linear\ns = 1\nell = 0 2\nlevels = 2\nN = 40 60 80\n"))
        report = cli.run(cfg)
        diffs = report.extra["successive_differences"]
        assert report.diagnostics == [
            f"ell={ell} n={n}: N {lo} -> {hi} changes eps by {diffs[str(ell)][k][n]:.1e}"
            for ell in (0, 2) for n in range(2) for k, (lo, hi) in enumerate(((40, 60), (60, 80)))]
        assert "ell=2 n=1: N 60 -> 80 changes eps by" in cli.emit_pretty(report)

    def test_scan_reports_each_ell_before_the_next(self, monkeypatch):
        # ell 2 is one level short at N = 60: its line follows ell 0's
        # differences and precedes its own
        solve_levels = mom.solve_levels
        monkeypatch.setattr(mom, "solve_levels", lambda problem, N, sigma, count: (
            (solve_levels(problem, N, sigma, count - 1)[0], False) if (problem.ell, N) == (2, 60)
            else solve_levels(problem, N, sigma, count)))
        report = cli.run(cli.build_config(cli.read_config(
            "command = scan\npotential = linear\ns = 1\nell = 0 2\nlevels = 2\nN = 40 60 80\n")))
        assert report.status == cli.EXIT_NUMERICAL
        diffs = report.extra["successive_differences"]
        assert [pair[1] for pair in diffs["2"]] == [None, None]
        assert report.diagnostics == [
            *(f"ell=0 n={n}: N {lo} -> {hi} changes eps by {diffs['0'][k][n]:.1e}"
              for n in range(2) for k, (lo, hi) in enumerate(((40, 60), (60, 80)))),
            "ell=2 N=60: only 1 of 2 levels passed the filters",
            f"ell=2 n=0: N 40 -> 60 changes eps by {diffs['2'][0][0]:.1e}",
            f"ell=2 n=0: N 60 -> 80 changes eps by {diffs['2'][1][0]:.1e}"]

    def test_scan_solves_n_major_and_releases_each_grid(self, monkeypatch):
        # the grid cache holds one mesh order, so each order's grid is built
        # once and freed when the next order is asked for, while the report
        # keeps the waves' order; so in every command
        built = []

        class Recorded(cheb.ChebGrid):
            def __init__(self, N):
                super().__init__(N)
                built.append((N, weakref.ref(self)))

        monkeypatch.setattr(cheb, "ChebGrid", Recorded)
        solve_levels, solved = mom.solve_levels, []

        def record(problem, N, sigma, count):
            out = solve_levels(problem, N, sigma, count)
            # at most one grid alive, freed by reference count without a collection
            assert [M for M, grid in built if grid() is not None] == [N]
            info = cheb.chebyshev_grid.cache_info()
            solved.append((problem.ell, N, info.hits, info.misses))
            return out

        monkeypatch.setattr(mom, "solve_levels", record)
        text = "potential = linear\ns = 1\nlevels = 2\n"
        # a run may start on the previous run's last grid
        cheb.chebyshev_grid.cache_clear()
        report = cli.run(cli.build_config(cli.read_config(
            text + "command = scan\nell = 0 2\nN = 40 60 80\n")))
        assert solved == [(ell, N, k + ell // 2, k + 1)
                          for k, N in enumerate((40, 60, 80)) for ell in (0, 2)]
        assert [N for N, _ in built] == [40, 60, 80]
        assert report.rows == [row for ell in (0, 2) for N in (40, 60, 80) for row in cli.run(
            cli.build_config(cli.read_config(
                text + f"command = solve\nell = {ell}\nN = {N}\n"))).rows]
        # table 2 solves at N = 300, 100, 100, 80 and table 3 six times at N = 80
        for config in ("command = reproduce\ntable = 2\n", "command = reproduce\ntable = 3\n",
                       text + "command = solve\nell = 0 1 2\nN = 40\n"):
            cfg = cli.build_config(cli.read_config(config))
            cheb.chebyshev_grid.cache_clear()
            built.clear()
            assert cli.run(cfg).status == cli.EXIT_OK
            assert [N for N, _ in built] == sorted({wave.N for wave in cfg.waves})

    def test_deterministic_rerun(self):
        cfg = cli.build_config(cli.read_config(
            "command = solve\npotential = linear\ns = 1\nell = 0\nlevels = 2\nN = 60\n"))
        a = cli.run(cfg)
        b = cli.run(cfg)
        assert cli.report_to_json(a) == cli.report_to_json(b)


class TestReproduce:
    @pytest.mark.parametrize("table, count", ((1, 20), (2, 20), (3, 18)))
    def test_campaign_passes(self, table, count):
        report = cli.run(cli.build_config(cli.read_config(
            f"command = reproduce\ntable = {table}\n")))
        assert report.status == cli.EXIT_OK
        levels = [(wave, n) for wave in refs.campaign(table) for n in range(wave.levels)]
        assert len(levels) == count
        assert [(r["ell"], r["n"]) for r in report.rows] == [
            (wave.problem.ell, n) for wave, n in levels]
        assert len(report.diagnostics) == count
        for (wave, n), line in zip(levels, report.diagnostics):
            assert line.startswith(f"{wave.label} n={n}: ") and line.endswith(" pass")
            assert " ref " in line and " err " in line and " tol " in line
        assert cli.report_to_json(report) == json.dumps(asdict(report), indent=2)

    def test_masses_identify_their_flavor(self):
        report = cli.run(cli.build_config(cli.read_config("command = reproduce\ntable = 3\n")))
        flavors = [flavor for flavor in ("charm", "bottom") for _ in range(9)]
        for flavor, row in zip(flavors, report.rows, strict=True):
            assert row["mass_gev"] == refs.physical_scales(flavor).mass_gev(row["epsilon"])

    def test_reference_out_of_tolerance_fails(self, monkeypatch):
        exact = refs.TABLE2_EXACT[1]
        monkeypatch.setitem(refs.TABLE2_EXACT, 1, (exact[0] + 1e-5,) + exact[1:])
        report = cli.run(cli.build_config(cli.read_config("command = reproduce\ntable = 2\n")))
        assert report.status == cli.EXIT_NUMERICAL
        failed = [line for line in report.diagnostics if line.endswith(" FAIL")]
        assert len(failed) == 1 and failed[0].startswith("ell=1 n=0: ")

    def test_incomplete_level_set_fails(self, monkeypatch):
        solve_levels = mom.solve_levels

        def one_short(problem, N, sigma, count):
            levels, _ = solve_levels(problem, N, sigma, count)
            return levels[:-1], False

        monkeypatch.setattr(mom, "solve_levels", one_short)
        report = cli.run(cli.build_config(cli.read_config("command = reproduce\ntable = 3\n")))
        assert report.status == cli.EXIT_NUMERICAL
        assert len(report.rows) == 12
        assert "bottom ell=2: only 2 of 3 levels passed the filters" in report.diagnostics

    def test_unknown_table_or_flavor_is_a_value_error(self):
        with pytest.raises(ValueError, match="tables 1, 2 and 3, got 4$"):
            refs.campaign(4)
        with pytest.raises(ValueError, match="unknown flavor 'top'"):
            refs.physical_scales("top")


# configuration key -> (the other lines its run needs, a value that builds, a value that fails)
KEY_CASES = {
    "command": ("", "scan", "run"),
    "potential": ("alpha = 1\n", "coulomb", "harmonic"),
    "alpha": ("potential = coulomb\n", "0.5", "x"),
    "s": ("", "0.5", "nan"),
    "beta": ("mass = 1.37\n", "0.1694", "-1"),
    "mass": ("beta = 0.1694\n", "1.37", "0"),
    "ell": ("", "0,1", "1.5"),
    "levels": ("N = 40\n", "3", "0"),
    "N": ("", "40", "4"),
    "sigma": ("", "2", "0"),
    "kinetic": ("beta = 0.1694\nmass = 1.37\n", "salpeter", "bogus"),
    "format": ("", "json", "xml"),
    "out": ("", "rows.txt", "no/such/dir/rows.txt"),
    "table": ("command = reproduce\n", "2", "4"),
}


class TestMain:
    def test_every_key_is_a_flag_that_help_names(self, capsys):
        assert list(KEY_CASES) == list(cli._FIELDS)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--help"])
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        assert all(f"--{key} " in text for key in cli._FIELDS)
        assert "--command solve|scan|compare|reproduce" in text

    def test_a_flag_is_its_key_in_full(self, monkeypatch, capsys):
        # an abbreviation would name one key today and another once a key is added: --s is
        # the key s, not a prefix of sigma
        built = []
        monkeypatch.setattr(cli, "run", lambda cfg: built.append(cfg) or cli.Report(cfg.command))
        assert cli.main(["--s", "0.5", "--N", "40"]) == cli.EXIT_OK
        assert built[0].waves[0].problem.s == 0.5 and built[0].waves[0].sigma != 0.5
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--sig", "0.5"])
        assert exit_.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --sig 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("key", KEY_CASES)
    def test_a_flag_and_a_file_line_are_one_key(self, key, tmp_path, monkeypatch, capsys):
        # --key value and `key = value` build the same RunConfig, and a bad value is the
        # same one configuration error line either way
        context, good, bad = KEY_CASES[key]
        monkeypatch.chdir(tmp_path)
        built = []
        monkeypatch.setattr(cli, "run", lambda cfg: built.append(cfg) or cli.Report(cfg.command))
        outcomes = []
        for value in (good, bad):
            for as_flag in (False, True):
                Path("run.cfg").write_text(context + ("" if as_flag else f"{key} = {value}\n"))
                flag = [f"--{key}", value] if as_flag else []
                code = cli.main(["--config", "run.cfg", *flag])
                outcomes.append((code, capsys.readouterr().err, built.pop() if built else None))
        good_file, good_flag, bad_file, bad_flag = outcomes
        assert good_file == good_flag and good_file[:2] == (cli.EXIT_OK, "")
        assert bad_file == bad_flag and bad_file[0] == cli.EXIT_CONFIG
        (err,) = bad_file[1].splitlines()
        assert err.startswith("configuration error: ")

    @pytest.mark.parametrize(("argv", "text", "message"), (
        (["--ell", "1.5"], "", "field 'ell' must be a list of integers, got '1.5'"),
        ([], "N = 10 x\n", "field 'N' must be a list of integers, got '10 x'"),
        (["--sigma", "0"], "", "field 'sigma' must be positive"),
        (["--sigma", "-1"], "", "field 'sigma' must be positive"),
        ([], "beta = 0.1694\n", "physical runs require field 'mass' > 0 (GeV)"),
        ([], "beta = 0.1694\nmass = 0\n", "physical runs require field 'mass' > 0 (GeV)"),
        ([], "potential = coulomb\n", "potential 'coulomb' requires field 'alpha' > 0"),
        ([], "potential = cornell\nalpha = 0\n",
         "potential 'cornell' requires field 'alpha' > 0"),
        (["--command", "compare"], "kinetic = salpeter\nbeta = 0.1694\nmass = 1.37\n",
         "compare supports only the nonrelativistic kinetic mode"),
        ([], "kinetic = salpeter\n", "salpeter kinetic mode requires physical parameters"),
    ), ids=("ell-flag", "N-file", "sigma-0", "sigma-negative", "no-mass", "mass-0",
            "coulomb-no-alpha", "cornell-alpha-0", "salpeter-compare", "salpeter-no-beta"))
    def test_inconsistent_configuration_is_one_stderr_line(self, argv, text, message, tmp_path,
                                                            capsys):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["--config", str(path), *argv]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"configuration error: {message}"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        assert cli.main(["--config", str(path)]) == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ("nan", "inf"))
    def test_non_finite_sigma_exit_code(self, value, capsys):
        assert cli.main(["--sigma", value]) == cli.EXIT_CONFIG
        assert "'sigma' must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(("text", "message"), (
        ("potential = coulomb\nalpha = 1\ns = 1e-200\n",
         "s = 1e-200 and alpha = 1 give the mapping scale sigma = inf"),
        ("potential = coulomb\nalpha = 1e-170\n",
         "s = 1 and alpha = 1e-170 give the mapping scale sigma = 0"),
        # alpha ** 2 in the energy unit raised OverflowError: a traceback and exit 1
        ("potential = coulomb\nalpha = 1e300\ns = 1\n",
         "s = 1 and alpha = 1e+300 give the mapping scale sigma = inf"),
        ("potential = cornell\nalpha = 1e300\ns = 1\n",
         "s = 1 and alpha = 1e+300 give the mapping scale sigma = inf"),
    ), ids=("inf", "zero", "coulomb-large-alpha", "cornell-large-alpha"))
    def test_derived_sigma_out_of_range_exit_code(self, text, message, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["--config", str(path)]) == cli.EXIT_CONFIG
        (err,) = capsys.readouterr().err.splitlines()
        assert err == f"configuration error: {message}; set field 'sigma'"

    def test_natural_scales_out_of_range_exit_code(self, tmp_path, capsys):
        # the natural length s/alpha = 1e160 squares to inf; sigma = 5e-161 is in range
        path = tmp_path / "run.cfg"
        path.write_text("potential = coulomb\nalpha = 1e-160\ns = 1\n")
        assert cli.main(["--config", str(path)]) == cli.EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["numerical failure: natural length 1e+160: scales out of "
                                    "floating-point range"]

    def test_fractional_levels_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("potential = linear\ns = 1\nlevels = 2.7\nN = 40\n")
        assert cli.main(["--config", str(path)]) == cli.EXIT_CONFIG
        assert "'levels' must be an integer" in capsys.readouterr().err

    # a floating-point warning is an error here: the overflow must reach
    # stderr as the one failure line, not as a warning per operation first
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag", (("--sigma", "1e300"), ("--sigma", "1e-300"),
                                      ("--ell", "60"), ("--ell", "200")))
    def test_non_finite_matrix_exit_code(self, flag, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("potential = linear\ns = 1\nN = 20\n")
        assert cli.main(["--config", str(path), *flag]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure:")
        assert "non-finite" in err[0]

    @pytest.mark.filterwarnings("error")
    def test_non_finite_matrix_exit_code_on_arnoldi_path(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("potential = linear\ns = 1\n")
        assert mom.ARNOLDI_MIN_N <= 500
        assert cli.main(["--config", str(path), "--sigma", "1e300", "--N", "500"]) \
            == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure:")

    def test_failed_dense_eigensolve_exit_code(self, monkeypatch, capsys):
        # LAPACK's LinAlgError reaches main unwrapped, as one failure line
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("eig algorithm did not converge")

        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        assert mom.ARNOLDI_MIN_N > 40
        assert cli.main(["--N", "40"]) == cli.EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["numerical failure: eig algorithm did not converge"]

    def test_ell30_n100_prints_no_floating_point_warning(self, tmp_path, capsys):
        # the kernel corners lift max|H| to 6e242 here; no step may print a
        # floating-point warning, which the suite turns into an error.  The
        # levels are not graded here.
        path = tmp_path / "run.cfg"
        path.write_text("potential = linear\n")
        cli.main(["--config", str(path), "--ell", "30", "--N", "100", "--levels", "2"])
        assert capsys.readouterr().err == ""

    def test_mesh_order_capped_before_allocation(self, monkeypatch, capsys):
        def no_grid(N):
            raise AssertionError(f"grid of order {N} built before N was checked")
        monkeypatch.setattr(cheb, "ChebGrid", no_grid)
        monkeypatch.setattr(cheb, "chebyshev_grid", no_grid)
        assert cli.main(["--N", "1000000000"]) == cli.EXIT_CONFIG
        assert "72 bytes * N^2 + 50 MB, 1.2 GB" in capsys.readouterr().err

    @pytest.mark.parametrize("command, N", (("solve", "10"), ("scan", "10,20")))
    @pytest.mark.parametrize("levels", ("0", "7", "11", "1000000"))
    def test_levels_capped_by_the_smallest_mesh_order(self, command, N, levels, monkeypatch,
                                                       capsys):
        # the shift-invert solver returns at most N - 2 eigenpairs, so at most N - 4 levels
        def no_solve(*args):
            raise AssertionError("solved or gridded before levels was checked")
        monkeypatch.setattr(mom, "solve_levels", no_solve)
        monkeypatch.setattr(cheb, "ChebGrid", no_solve)
        assert cli.main(["--command", command, "--N", N, "--levels", levels]) == cli.EXIT_CONFIG
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("configuration error: field 'levels' must be from 1 to 6,")
        assert err.endswith(f"got {levels}")
        cli.build_config({"command": command, "N": N, "levels": "6"})

    def test_reproduce_rejects_fields_it_does_not_use(self, capsys):
        # the stored campaign fixes N, sigma and the level count
        assert cli.main(["--command", "reproduce", "--table", "1", "--N", "40",
                         "--sigma", "3", "--levels", "1"]) == cli.EXIT_CONFIG
        assert "remove: N, levels, sigma" in capsys.readouterr().err

    @pytest.mark.parametrize(("text", "field"), (
        ("potential = linear\nalpha = 0.5\n", "alpha"),
        ("potential = cornell\nalpha = 0.5\nbeta = 0.1694\nmass = 1.37\ns = 1\n", "s"),
        ("potential = coulomb\nalpha = 1\nbeta = 0.1694\nmass = 1.37\ns = 1\n", "s"),
        ("potential = linear\nmass = 1.37\n", "mass"),
        ("potential = coulomb\nalpha = 1\nmass = 1.37\n", "mass"),
        ("potential = cornell\nalpha = 0.5\nmass = 1.37\n", "mass"),
        ("potential = linear\ntable = 2\n", "table"),
    ))
    def test_rejects_fields_the_run_ignores(self, text, field, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.rstrip().endswith(f"remove: {field}")

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes("potential = linear\n# \u00e9\n".encode("latin-1"))
        assert cli.main(["--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: cannot read config file")

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "rows.csv"
        assert cli.main(["--N", "20", "--levels", "1", "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: cannot write output file")
        assert not out.parent.exists()

    @pytest.mark.parametrize("N", ("100 50", "50 50"))
    def test_scan_requires_increasing_n(self, N, capsys):
        assert cli.main(["--command", "scan", "--N", N]) == cli.EXIT_CONFIG
        assert "'N' strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("command, ell", (("solve", "0,0"), ("scan", "1,1"),
                                              ("compare", "0 1 0")))
    def test_repeated_ell_rejected(self, command, ell, capsys):
        assert cli.main(["--command", command, "--ell", ell, "--N", "40"]) == cli.EXIT_CONFIG
        assert "field 'ell' entries must be distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("solve", "compare"))
    def test_single_order_commands_reject_a_list_of_n(self, command, capsys):
        assert cli.main(["--command", command, "--N", "50 100"]) == cli.EXIT_CONFIG
        assert f"command '{command}' takes one mesh order N, got 2" in capsys.readouterr().err

    def test_readme_scan_example(self, tmp_path, monkeypatch, capsys):
        # the scan example of README.md, run as written
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        printf = next(line for line in lines if line.endswith("> scan.cfg"))
        command = next(line for line in lines if line.startswith("chebquark --config scan.cfg"))
        monkeypatch.chdir(tmp_path)
        Path("scan.cfg").write_text(printf.split("'")[1].replace("\\n", "\n"))
        assert cli.main(command.split()[1:]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("command: scan\n")

    @pytest.mark.parametrize(("text", "message"), (
        ("potential = cornell\nalpha = 0.5\nbeta = 1e300\nmass = 1e-300\n",
         "s must be finite (beta = 1e+300 GeV^2 and mass = 1e-300 GeV give s = inf"),
        ("potential = linear\nbeta = 1e-300\nmass = 1e300\n",
         "s must be positive (beta = 1e-300 GeV^2 and mass = 1e+300 GeV give s = 0"),
        ("potential = cornell\nalpha = 0.5\nkinetic = salpeter\nbeta = 1e-18\nmass = 1e300\n",
         "quark mass am = 1/s, got inf (beta = 1e-18 GeV^2 and mass = 1e+300 GeV "
         "give s = 1e-309)"),
        ("potential = linear\nell = -1\n", "orbital momentum must be a nonnegative integer"),
        ("potential = linear\ns = -1\n", "kinetic coefficient s must be positive"),
        ("potential = linear\nkinetic = bogus\n", "unknown kinetic mode 'bogus'"),
    ), ids=("s-overflow", "s-underflow", "am-overflow", "ell", "s", "kinetic"))
    def test_rejected_physics_exit_code(self, text, message, tmp_path, capsys):
        # Problem is the one check of these values; on a physical run the
        # message names the beta and mass that give the derived s, and so am = 1/s
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["--config", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("configuration error: ")
        assert message in err

    def test_percent_in_output_path(self, tmp_path, capsys):
        # values are literal: no %-interpolation, so %% stays two characters
        # and %(potential)s is not substituted
        name = "rows%1%%2%(potential)s.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"potential = linear\nN = 20\nlevels = 1\nout = {tmp_path}/{name}\n")
        assert cli.main(["--config", str(cfgfile)]) == cli.EXIT_OK
        assert (tmp_path / name).read_text().startswith("command: solve\n")
        capsys.readouterr()

    @pytest.mark.parametrize("header", ("", "[run]\n"))
    def test_byte_order_mark_config_runs(self, header, tmp_path, capsys):
        # as some editors save UTF-8
        path = tmp_path / "run.cfg"
        path.write_bytes(("\ufeff" + header + "N = 20\nlevels = 1\n").encode("utf-8"))
        assert cli.main(["--config", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("command: solve\n")

    @pytest.mark.parametrize(("header", "line"), (("", 2), ("[run]\n", 3)))
    def test_malformed_line_is_one_stderr_line(self, header, line, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(header + "N = 20\nlevels: 1\n")
        assert cli.main(["--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: malformed configuration: line {line}: 'levels: 1' is not "
            "'key = value', '[name]' or a '#' comment"]

    @pytest.mark.parametrize(("flag", "value", "message"), (
        ("--ell", "", "field 'ell' is empty"),
        ("--N", "", "field 'N' is empty"),
        ("--table", "4", "remove: table"),
        ("--levels", "1.5", "field 'levels' must be an integer"),
        ("--sigma", "abc", "field 'sigma' must be a number"),
        ("--format", "xml", "field 'format' must be one of"),
        ("--command", "bogus", "field 'command' must be one of"),
    ))
    def test_bad_flag_value_is_one_configuration_error(self, flag, value, message, capsys):
        # flags carry the same text as file values and meet the same checks
        assert cli.main([flag, value]) == cli.EXIT_CONFIG
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("configuration error: ") and message in err

    def test_table_flag_checked_like_the_file_value(self, capsys):
        assert cli.main(["--command", "reproduce", "--table", "4"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: command 'reproduce' requires field 'table' in {1, 2, 3}\n")

    def test_missing_file_exit_code(self, capsys):
        assert cli.main(["--config", "/no/such/file.cfg"]) == cli.EXIT_CONFIG
        capsys.readouterr()

    def test_solve_to_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("potential = linear\ns = 1\nell = 0\nlevels = 1\nN = 60\n")
        out = tmp_path / "rows.csv"
        code = cli.main(["--config", str(cfgfile), "--format", "csv",
                         "--out", str(out)])
        capsys.readouterr()
        assert code == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("ell,n,N")
        assert len(lines) == 2

    def test_csv_failure_says_why_on_stderr(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("potential = linear\ns = 1\n")
        code = cli.main(["--config", str(cfgfile), "--N", "10", "--levels", "6",
                         "--format", "csv"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL
        lines = captured.out.splitlines()
        assert lines[0] == ",".join(cli.CSV_FIELDS) and len(lines) == 5
        assert "ell=0: only 4 of 6 levels passed the filters" in captured.err.splitlines()

    def test_flag_overrides(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("potential = linear\ns = 1\nell = 0\nlevels = 3\nN = 60\n")
        code = cli.main(["--config", str(cfgfile), "--levels", "1",
                         "--format", "json"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        data = json.loads(captured.out)
        assert len(data["rows"]) == 1


def test_import_loads_only_the_scipy_a_run_calls(tmp_path):
    # a fresh `chebquark` process pays for every module its import loads: the dense
    # eigensolves and the radial oracle run on numpy.linalg, so only the shift-invert
    # path from ARNOLDI_MIN_N on loads scipy
    coulomb = tmp_path / "coulomb.cfg"
    coulomb.write_text("potential = coulomb\nalpha = 1\ns = 1\nell = 2\nN = 80\nsigma = 0.5\n"
                       "levels = 1\n")
    assert 80 < mom.ARNOLDI_MIN_N <= 100
    runs = ([], ["--command", "reproduce", "--table", "1"],
            ["--config", str(coulomb), "--command", "compare"], ["--N", "100", "--levels", "1"])
    code = ("import contextlib, io, json, sys\n"
            "from chebquark import cli\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert not args or cli.main(args) == cli.EXIT_OK\n"
            "    print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout.splitlines()
    # the import, a table-1 reproduce and a Coulomb N = 80 compare; then a linear N = 100 solve
    assert out[:3] == ["", "", ""]
    assert "scipy.sparse.linalg" in out[3].split()
