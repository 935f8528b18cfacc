"""Command line interface: config parsing, run commands, table emission.

Four commands are provided.  `solve` computes the lowest levels of one
configuration, `scan` tabulates them against a list of mesh orders,
`compare` runs the momentum-space and configuration-space solvers side by
side, and `reproduce` reruns one of the three stored benchmark campaigns
and grades the output against the stored references.

Configuration files are plain-text `key = value` lines with literal
values; `[name]` headers only group them, as all sections are merged.  Each
command line flag carries the text of its configuration key and overrides
the file's value, and both meet the same parser and checks.  The validated
configuration holds the partial waves to solve, whose `kernels.Problem`
checks the physics and gives `compare`'s energy unit E and the default
mapping scale sqrt(E/s).  A run solves them N-major, so the one-order grid
cache builds each mesh order once.  Exit status is 0 when every requested
level was produced, passed the acceptance filters and, in `compare`, agrees
across solvers; 2 on configuration errors; 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import momentum as mom
from . import radial
from . import references as refs
from .kernels import Problem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

COMMANDS = ("solve", "scan", "compare", "reproduce")
POTENTIALS = ("linear", "coulomb", "cornell")
FORMATS = ("csv", "json", "pretty")

CSV_FIELDS = ("ell", "n", "N", "sigma", "epsilon", "mass_gev")

COMPARE_TOL = 1e-5     # share of Problem.energy_unit; criterion 6 at s = 1

# Largest accepted mesh order.  One solve raises the process peak RSS by at most
# 72 bytes * N^2 + 50 MB at any ell and level count (scipy's first import, 33 MB,
# included), 1.2 GB at this bound; the Arnoldi path sets it, as dense QR serves only
# N < ARNOLDI_MIN_N.  Over a forked child's RSS before the grid, scipy loaded, linear
# ell = 2 and 7: 18 bytes * N^2 for 5 levels and 74 for N - 4 at N = 1600, 32-33 and
# 90-92 at 800: H takes 8, the grid's half log rule 4, and ARPACK's basis, workspace
# and eigenvectors grow with the level count to N^2 terms.  It bounds a whole run, as
# the grid cache holds one mesh order.
MAX_N = 4000


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configurations."""


@dataclass
class RunConfig:
    """Validated run: its command, where its report goes, the partial waves it solves."""

    command: str
    format: str
    out: str | None
    table: int | None
    waves: tuple


def _parse_int_list(text, name):
    try:
        values = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"field {name!r} must be a list of integers, got {text!r}")
    if not values:
        raise ConfigError(f"field {name!r} is empty")
    return values


def _parse_int(text, name):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"field {name!r} must be an integer, got {text!r}")


def _parse_float(text, name):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"field {name!r} must be a number, got {text!r}")
    if not math.isfinite(value):
        raise ConfigError(f"field {name!r} must be finite, got {text!r}")
    return value


# configuration key -> (parser, default); a parser of None keeps the string
_FIELDS = {
    "command": (None, "solve"),
    "potential": (None, "linear"),        # cornell is coulomb plus linear; GeV units with beta
    "alpha": (_parse_float, 0.0),
    "s": (_parse_float, 1.0),
    "beta": (_parse_float, None),         # GeV^2, physical runs only
    "mass": (_parse_float, None),         # quark mass in GeV, physical runs only
    "ell": (_parse_int_list, (0,)),
    "levels": (_parse_int, 5),
    "N": (_parse_int_list, (100,)),
    "sigma": (_parse_float, None),        # default: each wave's Problem.momentum_unit
    "kinetic": (None, "nonrelativistic"),
    "format": (None, "pretty"),
    "out": (None, None),
    "table": (_parse_int, None),
}


def read_config(text):
    """Key-value strings of a configuration document, sections merged.

    The grammar: blank lines; `#` comments at line start or after
    whitespace; `[name]` headers, which only group; `key = value` lines,
    split at the first `=`, each key once, with literal values.  A leading
    byte-order mark is dropped; any other line is an error naming its line.
    """
    raw = {}
    for k, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        body = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not body or re.fullmatch(r"\[.+\]", body):
            continue
        key, eq, value = (part.strip() for part in body.partition("="))
        if not (eq and key):
            raise ConfigError(f"malformed configuration: line {k}: {line.strip()!r} is not "
                              "'key = value', '[name]' or a '#' comment")
        if key in raw:
            raise ConfigError(f"duplicate key {key!r} on line {k}")
        raw[key] = value
    return raw


def build_config(raw):
    """Validate a flat mapping of key-value strings and build the run's partial waves.

    Unknown keys, and keys that the configured run would ignore, are
    rejected with a message listing them.
    """
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    cfg = SimpleNamespace(**{key: default for key, (_, default) in _FIELDS.items()})
    for key, text in raw.items():
        parse = _FIELDS[key][0]
        setattr(cfg, key, text if parse is None else parse(text, key))
    cfg.physical = cfg.beta is not None   # energies in GeV
    unused = ", ".join(sorted(_ignored_keys(cfg, raw)))
    if unused:
        raise ConfigError(
            f"the run ignores {unused}: reproduce reads only command, table, format and out; "
            "otherwise table is for reproduce, alpha for coulomb and cornell, s for runs "
            f"without beta and mass for runs with beta; remove: {unused}")
    _validate(cfg)
    waves = refs.campaign(cfg.table) if cfg.command == "reproduce" else _waves(cfg)
    return RunConfig(cfg.command, cfg.format, cfg.out, cfg.table, tuple(waves))


def _ignored_keys(cfg, raw):
    """The keys of raw that the configured run would not read."""
    if cfg.command == "reproduce":
        return set(raw) - {"command", "table", "format", "out"}
    ignored = {"table", "s" if cfg.physical else "mass"}
    if cfg.potential == "linear":
        ignored.add("alpha")
    return set(raw) & ignored


def _validate(cfg):
    for name, allowed in (("command", COMMANDS), ("potential", POTENTIALS), ("format", FORMATS)):
        value = getattr(cfg, name)
        if value not in allowed:
            raise ConfigError(f"field {name!r} must be one of {allowed}, got {value!r}")
    if cfg.sigma is not None and cfg.sigma <= 0.0:
        raise ConfigError("field 'sigma' must be positive")
    if not all(5 <= N <= MAX_N for N in cfg.N):
        raise ConfigError(f"field 'N' entries must be from 5, for one level, to {MAX_N}: a solve "
                          f"needs up to 72 bytes * N^2 + 50 MB, 1.2 GB at N = {MAX_N}")
    if not 1 <= cfg.levels <= min(cfg.N) - 4:
        raise ConfigError(f"field 'levels' must be from 1 to {min(cfg.N) - 4}, the smallest N "
                          f"less 4, as ARPACK finds at most N - 2 eigenpairs; got {cfg.levels}")
    if len(set(cfg.ell)) < len(cfg.ell):
        raise ConfigError("field 'ell' entries must be distinct")
    if cfg.command == "scan":
        if any(a >= b for a, b in zip(cfg.N, cfg.N[1:])):
            raise ConfigError("command 'scan' requires field 'N' strictly increasing")
    elif len(cfg.N) > 1:
        raise ConfigError(f"command {cfg.command!r} takes one mesh order N, "
                          f"got {len(cfg.N)}; use command 'scan' for a list")
    if cfg.command == "reproduce":
        if cfg.table not in (1, 2, 3):
            raise ConfigError("command 'reproduce' requires field 'table' in {1, 2, 3}")
        return
    if cfg.physical:
        if cfg.beta <= 0.0:
            raise ConfigError("field 'beta' must be positive (GeV^2)")
        if cfg.mass is None or cfg.mass <= 0.0:
            raise ConfigError("physical runs require field 'mass' > 0 (GeV)")
    if cfg.potential != "linear" and cfg.alpha <= 0.0:
        raise ConfigError(f"potential {cfg.potential!r} requires field 'alpha' > 0")
    if cfg.kinetic == "salpeter":
        if cfg.command == "compare":
            raise ConfigError("compare supports only the nonrelativistic kinetic mode")
        if not cfg.physical:
            raise ConfigError("salpeter kinetic mode requires physical parameters")


def _waves(cfg):
    """One partial wave per ell, and per ell and N in `scan`; `Problem` checks the physics."""
    # unit conversion a = 1/sqrt(beta): s = sqrt(beta)/m for equal masses
    scales = refs.PhysicalScales(cfg.mass, cfg.beta) if cfg.physical else None
    for ell in cfg.ell:
        try:
            problem = Problem(ell=ell, alpha=cfg.alpha, linear=cfg.potential != "coulomb",
                              s=cfg.s if scales is None else scales.s, kinetic=cfg.kinetic)
        except ValueError as exc:
            raise ConfigError(str(exc) if scales is None else f"{exc} (beta = {cfg.beta:g} "
                              f"GeV^2 and mass = {cfg.mass:g} GeV give s = {scales.s:g})")
        sigma = problem.momentum_unit if cfg.sigma is None else cfg.sigma
        if not 0.0 < sigma < math.inf:
            raise ConfigError(f"s = {problem.s:g} and alpha = {problem.alpha:g} give the "
                              f"mapping scale sigma = {sigma:g}; set field 'sigma'")
        for N in cfg.N:
            label = f"ell={ell} N={N}" if cfg.command == "scan" else f"ell={ell}"
            yield refs.PartialWave(label, problem, N, sigma, cfg.levels, scales)


# ---------------------------------------------------------------------------
# reports

@dataclass
class Report:
    """Result of one run: table rows, human diagnostics, exit status."""

    command: str
    rows: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    status: int = EXIT_OK


def report_to_json(report):
    """Serialize a report; floats survive a round trip bit-exactly."""
    return json.dumps({f.name: getattr(report, f.name) for f in fields(report)}, indent=2)


def _fail(report, message):
    report.status = EXIT_NUMERICAL
    report.diagnostics.append(message)


# ---------------------------------------------------------------------------
# commands

def _grade(report, wave, row):
    """`reproduce`: grade one level against its stored reference."""
    quantity = "eps" if wave.scales is None else "mass"
    value = row["epsilon"] if wave.scales is None else row["mass_gev"]
    ref, tol = wave.references[row["n"]]
    err = abs(value - ref)
    line = (f"{wave.label} n={row['n']}: {quantity} {value:.9g} ref {ref:.9g} "
            f"err {err:.1e} tol {tol:.1e}")
    if err <= tol:
        report.diagnostics.append(line + " pass")
    else:
        _fail(report, line + " FAIL")


def _pair(report, wave, row):
    """`compare`: pair one level with the coordinate solver's."""
    p, n, eps = wave.problem, row["n"], row["epsilon"]
    try:
        eps_r = radial.solve_radial(p, n)
    except RuntimeError as exc:
        _fail(report, f"{wave.label} n={n}: coordinate solver failed: {exc}")
        return
    delta = eps - eps_r
    report.extra["compare"].append({"ell": p.ell, "n": n, "momentum": eps,
                                    "coordinate": float(eps_r), "delta": float(delta)})
    report.diagnostics.append(f"{wave.label} n={n}: momentum {eps:.7g} "
                              f"coordinate {eps_r:.7g} delta {delta:.2e}")
    if abs(delta) > COMPARE_TOL * p.energy_unit:
        _fail(report, f"{wave.label} n={n}: the solvers disagree by more than "
                      f"{COMPARE_TOL:g} of the energy unit {p.energy_unit:.3g}")


def _add_differences(report, waves, solved):
    """`scan`: one ell's successive differences, over its waves in ascending N."""
    ell, count = waves[0].problem.ell, waves[0].levels
    eps = [{lv.n: lv.epsilon for lv in solved[wave][0]} for wave in waves]
    steps = report.extra["successive_differences"][str(ell)] = [
        [abs(hi[n] - lo[n]) if n in lo and n in hi else None for n in range(count)]
        for lo, hi in zip(eps, eps[1:])]
    for n in range(count):
        report.diagnostics.extend(
            f"ell={ell} n={n}: N {lo.N} -> {hi.N} changes eps by {step[n]:.1e}"
            for lo, hi, step in zip(waves, waves[1:], steps) if step[n] is not None)


def run(cfg):
    """Execute a validated RunConfig and return the Report.

    The waves are solved stably N-major, so each mesh order's grid is built
    once, and reported in their own order: rows, then each level's grade or
    pairing, and in `scan` an ell's successive differences after its last N.
    """
    solved = {wave: mom.solve_levels(wave.problem, wave.N, wave.sigma, wave.levels)
              for wave in sorted(cfg.waves, key=lambda wave: wave.N)}
    extra = {"reproduce": {"table": cfg.table}, "compare": {"compare": []},
             "scan": {"successive_differences": {}}}
    report = Report(cfg.command, extra=extra.get(cfg.command, {}))
    for wave in cfg.waves:
        levels, complete = solved[wave]
        rows = [{"ell": lv.ell, "n": lv.n, "N": wave.N, "sigma": wave.sigma,
                 "epsilon": float(lv.epsilon),
                 "mass_gev": (None if wave.scales is None
                              else float(wave.scales.mass_gev(lv.epsilon)))}
                for lv in levels]
        report.rows.extend(rows)
        if not complete:
            _fail(report, f"{wave.label}: only {len(levels)} of {wave.levels} "
                          "levels passed the filters")
        for row in rows:
            if cfg.command == "reproduce":
                _grade(report, wave, row)
            elif cfg.command == "compare":
                _pair(report, wave, row)
        if cfg.command == "scan" and wave.N == cfg.waves[-1].N:    # every ell ends there
            ell = wave.problem.ell
            _add_differences(report, [w for w in cfg.waves if w.problem.ell == ell], solved)
    return report


# ---------------------------------------------------------------------------
# emission

def emit_csv(report):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    # a dimensionless run's mass_gev is None, which csv writes as an empty field
    writer.writerows(report.rows)
    return buf.getvalue()


def emit_pretty(report):
    lines = [f"command: {report.command}"]
    header = f"{'ell':>4} {'n':>3} {'N':>5} {'sigma':>7} {'epsilon':>14} {'M [GeV]':>10}"
    lines.append(header)
    for row in report.rows:
        mass = "" if row["mass_gev"] is None else f"{row['mass_gev']:.4f}"
        lines.append(f"{row['ell']:>4} {row['n']:>3} {row['N']:>5} "
                     f"{row['sigma']:>7.3g} {row['epsilon']:>14.7g} {mass:>10}".rstrip())
    lines.extend(report.diagnostics)
    lines.append(f"status: {report.status}")
    return "\n".join(lines) + "\n"


def emit(report, fmt):
    if fmt == "csv":
        return emit_csv(report)
    if fmt == "json":
        return report_to_json(report) + "\n"
    return emit_pretty(report)


# ---------------------------------------------------------------------------
# entry point

# command line flag -> (metavar, help); each takes the text of its configuration key
FLAGS = {"command": ("|".join(COMMANDS), None), "table": ("1|2|3", None),
         "ell": (None, "orbital momenta, e.g. '0,1,2'"), "levels": (None, None),
         "N": (None, "mesh order, or list for scans, e.g. '50,100,200'"),
         "sigma": (None, "mapping scale (default: sqrt(E/s) for the energy unit E)"),
         "format": ("|".join(FORMATS), None), "out": (None, "output path (default: stdout)")}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="chebquark",
        description="Momentum-space Coulomb-plus-linear bound states on a Chebyshev mesh")
    ap.add_argument("--config", help="path to a key-value configuration file")
    for name, (metavar, help_text) in FLAGS.items():
        ap.add_argument(f"--{name}", metavar=metavar, help=help_text)
    args = vars(ap.parse_args(argv))
    try:
        raw = {}
        if args["config"]:
            try:
                with open(args["config"], encoding="utf-8") as fh:
                    raw = read_config(fh.read())
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config file: {exc}")
        # command line flags override file values, as the same text
        raw.update((key, args[key]) for key in FLAGS if args[key] is not None)
        cfg = build_config(raw)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = run(cfg)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    text = emit(report, cfg.format)
    if cfg.format == "csv":
        # CSV rows carry no diagnostics: failure reasons and grades go to stderr
        for line in report.diagnostics:
            print(line, file=sys.stderr)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"configuration error: cannot write output file: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(text)
    return report.status


if __name__ == "__main__":
    sys.exit(main())
