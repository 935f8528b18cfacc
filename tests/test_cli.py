"""Configuration parsing, run commands, emission formats, exit codes."""

import json
from pathlib import Path

import pytest

from chebquark import cheb, cli
from chebquark import momentum as mom
from chebquark import references as refs


class TestParseConfig:
    def test_minimal_linear_run(self):
        cfg = cli.parse_config("potential = linear\ns = 1\nell = 0\n")
        assert cfg.command == "solve"
        assert cfg.sigma == 1.0
        assert cfg.N == (100,)
        assert cfg.format == "pretty"

    def test_sections_are_merged(self):
        text = "[run]\ncommand = scan\nN = 50 100\n[potential]\npotential = linear\nell = 0 1\n"
        cfg = cli.parse_config(text)
        assert cfg.command == "scan"
        assert cfg.N == (50, 100)
        assert cfg.ell == (0, 1)

    def test_charm_physical_conversion(self):
        cfg = cli.parse_config(
            "potential = cornell\nalpha = 0.50667\nbeta = 0.1694\nmass = 1.37\n")
        # s = sqrt(beta)/m for equal-mass quarkonium, a = 1/sqrt(beta)
        assert abs(cfg.s - 0.1694**0.5 / 1.37) < 1e-15
        assert cfg.physical

    def test_unknown_keys_listed(self):
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli.parse_config("bogus = 3\npotential = linear\n")

    def test_invalid_order(self):
        with pytest.raises(cli.ConfigError, match="'N'"):
            cli.parse_config("potential = linear\nN = 1\n")

    def test_invalid_value_names_field(self):
        with pytest.raises(cli.ConfigError, match="'sigma'"):
            cli.parse_config("potential = linear\nsigma = wide\n")

    def test_physical_requires_positive_beta(self):
        with pytest.raises(cli.ConfigError, match="beta"):
            cli.parse_config("potential = cornell\nalpha = 0.5\nbeta = -1\nmass = 1.37\n")

    @pytest.mark.parametrize("name", ("sigma", "s", "alpha", "beta", "mass"))
    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    def test_non_finite_number_rejected(self, name, value):
        with pytest.raises(cli.ConfigError, match=f"'{name}' must be finite"):
            cli.parse_config(f"potential = linear\n{name} = {value}\n")

    @pytest.mark.parametrize("name", ("levels", "table"))
    def test_non_integer_count_rejected(self, name):
        with pytest.raises(cli.ConfigError, match=f"'{name}' must be an integer"):
            cli.parse_config(f"potential = linear\n{name} = 2.7\n")

    def test_readme_example_parses(self):
        # the annotated example in README.md, inline comments included
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = cli.parse_config(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        assert (cfg.command, cfg.N, cfg.ell, cfg.out) == ("solve", (100,), (0, 1, 2), "results.csv")
        assert cfg.physical

    def test_reproduce_requires_table(self):
        with pytest.raises(cli.ConfigError, match="table"):
            cli.parse_config("command = reproduce\n")


class TestReports:
    def setup_method(self):
        cfg = cli.parse_config(
            "command = solve\npotential = linear\ns = 1\nell = 1\nlevels = 2\nN = 60\n")
        self.report = cli.run(cfg)

    def test_solve_rows(self):
        assert self.report.status == cli.EXIT_OK
        assert [r["n"] for r in self.report.rows] == [0, 1]
        assert abs(self.report.rows[0]["epsilon"] - 3.361254) < 1e-4

    def test_csv_schema(self):
        text = cli.emit_csv(self.report)
        header = text.splitlines()[0]
        assert header == "ell,n,N,sigma,epsilon,mass_gev,imag"
        # dimensionless run leaves the mass column empty
        assert text.splitlines()[1].split(",")[5] == ""

    def test_json_round_trip_bit_exact(self):
        text = cli.report_to_json(self.report)
        back = json.loads(text)
        for a, b in zip(self.report.rows, back["rows"], strict=True):
            assert a["epsilon"] == b["epsilon"]
            assert a["imag"] == b["imag"]
        assert json.dumps(back, indent=2) == text

    def test_pretty_contains_status(self):
        assert "status: 0" in cli.emit_pretty(self.report)


class TestCommands:
    def test_compare_small(self):
        cfg = cli.parse_config(
            "command = compare\npotential = linear\ns = 1\nell = 2\nlevels = 1\nN = 80\n")
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
        cfg = cli.parse_config("command = compare\npotential = linear\n"
                               f"s = {s}\nell = 0\nlevels = 1\nN = 80\n")
        report = cli.run(cfg)
        assert report.status == cli.EXIT_NUMERICAL
        assert abs(report.extra["compare"][0]["delta"]) > cli.COMPARE_TOL * float(s) ** (1 / 3)
        assert "the solvers disagree" in report.diagnostics[-1]

    def test_coulomb_continuum_is_not_a_bound_level(self):
        # 40 levels at N = 80: from n = 17 on the eigenvalues lie above the
        # continuum threshold 0 and used to be returned as levels
        cfg = cli.parse_config("command = solve\npotential = coulomb\nalpha = 1\ns = 1\n"
                               "ell = 0\nN = 80\nsigma = 0.5\nlevels = 40\n")
        report = cli.run(cfg)
        assert report.status == cli.EXIT_NUMERICAL
        assert report.rows and all(row["epsilon"] < 0.0 for row in report.rows)
        assert f"only {len(report.rows)} of 40 levels passed the filters" in report.diagnostics[-1]

    def test_compare_weak_coulomb_finds_no_continuum_levels(self):
        # alpha = 1e-8: the true levels (-2.5e-17 ...) are out of reach at
        # N = 80, and the positive eigenvalues 8.05e-4 ... are continuum
        cfg = cli.parse_config("command = compare\npotential = coulomb\nalpha = 1e-8\ns = 1\n"
                               "ell = 0\nN = 80\nlevels = 3\n")
        report = cli.run(cfg)
        assert report.status == cli.EXIT_NUMERICAL
        assert report.rows == [] and report.extra["compare"] == []
        assert report.diagnostics == ["ell=0: only 0 of 3 levels passed the filters"]

    def test_scan_diffs_recorded(self):
        cfg = cli.parse_config(
            "command = scan\npotential = linear\ns = 1\nell = 0\nlevels = 1\nN = 40 80\n")
        report = cli.run(cfg)
        assert report.status == cli.EXIT_OK
        assert "0" in report.extra["successive_differences"]

    def test_scan_rows_equal_solve_rows(self):
        text = "potential = linear\ns = 1\nell = 1\nlevels = 2\n"
        scan = cli.run(cli.parse_config(text + "command = scan\nN = 40 60\n"))
        solve = cli.run(cli.parse_config(text + "command = solve\nN = 60\n"))
        at_60 = [row for row in scan.rows if row["N"] == 60]
        assert at_60 == solve.rows

    def test_scan_marks_missing_levels(self, monkeypatch):
        solve_levels = mom.solve_levels
        monkeypatch.setattr(mom, "solve_levels", lambda problem, N, sigma, count: (
            (solve_levels(problem, N, sigma, count - 1)[0], False) if N == 60
            else solve_levels(problem, N, sigma, count)))
        report = cli.run(cli.parse_config(
            "command = scan\npotential = linear\ns = 1\nell = 1\nlevels = 2\nN = 40 60 80\n"))
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
        cfg = cli.parse_config(
            "command = scan\npotential = linear\ns = 1\nell = 0 2\nlevels = 2\nN = 40 60 80\n")
        report = cli.run(cfg)
        diffs = report.extra["successive_differences"]
        assert report.diagnostics == [
            f"ell={ell} n={n}: N {lo} -> {hi} changes eps by {diffs[str(ell)][k][n]:.1e}"
            for ell in (0, 2) for n in range(2) for k, (lo, hi) in enumerate(((40, 60), (60, 80)))]
        assert "ell=2 n=1: N 60 -> 80 changes eps by" in cli.emit_pretty(report)

    def test_deterministic_rerun(self):
        cfg = cli.parse_config(
            "command = solve\npotential = linear\ns = 1\nell = 0\nlevels = 2\nN = 60\n")
        a = cli.run(cfg)
        b = cli.run(cfg)
        assert cli.report_to_json(a) == cli.report_to_json(b)


class TestReproduce:
    @pytest.mark.parametrize("table, count", ((1, 20), (2, 20), (3, 18)))
    def test_campaign_passes(self, table, count):
        report = cli.run(cli.parse_config(f"command = reproduce\ntable = {table}\n"))
        assert report.status == cli.EXIT_OK
        levels = [(wave, n) for wave in refs.campaign(table) for n in range(wave.levels)]
        assert len(levels) == count
        assert [(r["ell"], r["n"]) for r in report.rows] == [
            (wave.problem.ell, n) for wave, n in levels]
        assert len(report.diagnostics) == count
        for (wave, n), line in zip(levels, report.diagnostics):
            assert line.startswith(f"{wave.label} n={n}: ") and line.endswith(" pass")
            assert " ref " in line and " err " in line and " tol " in line

    def test_masses_identify_their_flavor(self):
        report = cli.run(cli.parse_config("command = reproduce\ntable = 3\n"))
        flavors = [flavor for flavor in ("charm", "bottom") for _ in range(9)]
        for flavor, row in zip(flavors, report.rows, strict=True):
            assert row["mass_gev"] == refs.physical_scales(flavor).mass_gev(row["epsilon"])

    def test_reference_out_of_tolerance_fails(self, monkeypatch):
        exact = refs.TABLE2_EXACT[1]
        monkeypatch.setitem(refs.TABLE2_EXACT, 1, (exact[0] + 1e-5,) + exact[1:])
        report = cli.run(cli.parse_config("command = reproduce\ntable = 2\n"))
        assert report.status == cli.EXIT_NUMERICAL
        failed = [line for line in report.diagnostics if line.endswith(" FAIL")]
        assert len(failed) == 1 and failed[0].startswith("ell=1 n=0: ")

    def test_incomplete_level_set_fails(self, monkeypatch):
        solve_levels = mom.solve_levels

        def one_short(problem, N, sigma, count):
            levels, _ = solve_levels(problem, N, sigma, count)
            return levels[:-1], False

        monkeypatch.setattr(mom, "solve_levels", one_short)
        report = cli.run(cli.parse_config("command = reproduce\ntable = 3\n"))
        assert report.status == cli.EXIT_NUMERICAL
        assert len(report.rows) == 12
        assert "bottom ell=2: only 2 of 3 levels passed the filters" in report.diagnostics


class TestMain:
    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        assert cli.main(["--config", str(path)]) == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ("nan", "inf"))
    def test_non_finite_sigma_exit_code(self, value, capsys):
        assert cli.main(["--sigma", value]) == cli.EXIT_CONFIG
        assert "'sigma' must be finite" in capsys.readouterr().err

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
        assert "70 bytes * N^2, 1.1 GB" in capsys.readouterr().err

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
        code = cli.main(["--config", str(cfgfile), "--N", "4", "--levels", "2",
                         "--format", "csv"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL
        assert captured.out.splitlines() == [",".join(cli.CSV_FIELDS)]
        assert "ell=0: only 0 of 2 levels passed the filters" in captured.err.splitlines()

    def test_flag_overrides(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("potential = linear\ns = 1\nell = 0\nlevels = 3\nN = 60\n")
        code = cli.main(["--config", str(cfgfile), "--levels", "1",
                         "--format", "json"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        data = json.loads(captured.out)
        assert len(data["rows"]) == 1
