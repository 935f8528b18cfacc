"""Command line interface: config parsing, run commands, table emission.

Four commands are provided.  `solve` computes the lowest levels of one
configuration, `scan` tabulates them against a list of mesh orders,
`compare` runs the momentum-space and configuration-space solvers side by
side, and `reproduce` reruns one of the three stored benchmark campaigns
and grades the output against the stored references.

Configuration files are plain-text key-value documents in INI form; all
sections are merged, so sections serve only as visual grouping.  Command
line flags override file values.  Exit status is 0 when every requested
level was produced, passed the acceptance filters and, in `compare`,
agrees across solvers; 2 on configuration errors; 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import momentum as mom
from . import radial
from . import references as refs
from .kernels import KINETIC_MODES, Problem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

COMMANDS = ("solve", "scan", "compare", "reproduce")
POTENTIALS = ("linear", "coulomb", "cornell")
FORMATS = ("csv", "json", "pretty")

CSV_FIELDS = ("ell", "n", "N", "sigma", "epsilon", "mass_gev", "imag")

COMPARE_TOL = 1e-5     # share of the energy unit, see _run_solve; criterion 6 at s = 1

# Largest accepted mesh order.  One solve raises the process peak RSS by
# at most 70 bytes * N^2 at any ell, about 1.1 GB at this bound.  Measured
# at N = 1600, linear ell = 2 and 7: 68 when the solve ends on the dense
# path, set by LAPACK's copy and the complex eigenvectors, and 46 on the
# Arnoldi path, set by the weight-table build (79 and 60 at N = 800, where
# fixed costs add).  Of that, the grid's two kernel rules keep 16, and H
# with the Arnoldi path's factored copy take 16 (tracemalloc, rules built).
MAX_N = 4000


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configurations."""


@dataclass
class RunConfig:
    """Validated run description with all defaults filled in."""

    command: str = "solve"
    potential: str = "linear"
    alpha: float = 0.0
    s: float = 1.0
    beta: float | None = None          # GeV^2, physical runs only
    mass_gev: float | None = None      # quark mass, physical runs only
    ell: tuple = (0,)
    levels: int = 5
    N: tuple = (100,)
    sigma: float = 1.0
    kinetic: str = "nonrelativistic"
    format: str = "pretty"
    out: str | None = None
    table: int | None = None

    @property
    def physical(self):
        """True when energies carry GeV units (beta and quark mass given)."""
        return self.beta is not None

    @property
    def scales(self):
        if not self.physical:
            return None
        return refs.PhysicalScales(self.mass_gev, self.beta)


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


# configuration key -> (RunConfig attribute, parser); None keeps the string
_FIELDS = {
    "command": ("command", None),
    "potential": ("potential", None),
    "alpha": ("alpha", _parse_float),
    "s": ("s", _parse_float),
    "beta": ("beta", _parse_float),
    "mass": ("mass_gev", _parse_float),
    "ell": ("ell", _parse_int_list),
    "levels": ("levels", _parse_int),
    "N": ("N", _parse_int_list),
    "sigma": ("sigma", _parse_float),
    "kinetic": ("kinetic", None),
    "format": ("format", None),
    "out": ("out", None),
    "table": ("table", _parse_int),
}


def _read_raw(text):
    """Key-value strings of a configuration document, sections merged."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    body = text if text.lstrip().startswith("[") else "[run]\n" + text
    try:
        parser.read_string(body)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}")

    raw = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key in raw:
                raise ConfigError(f"duplicate key {key!r}")
            raw[key] = value.strip()
    return raw


def parse_config(text):
    """Parse a key-value document into a validated RunConfig.

    The document uses INI syntax; a leading section header is optional and
    all sections are merged into a single namespace.
    """
    return build_config(_read_raw(text))


def build_config(raw):
    """Validate a flat mapping of key-value strings and fill defaults.

    Unknown keys, and keys that the configured run would ignore, are
    rejected with a message listing them.
    """
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    cfg = RunConfig()
    for key, text in raw.items():
        attr, parse = _FIELDS[key]
        setattr(cfg, attr, text if parse is None else parse(text, key))
    unused = ", ".join(sorted(_ignored_keys(cfg, raw)))
    if unused:
        raise ConfigError(
            f"the run ignores {unused}: reproduce reads only command, table, format and out; "
            "otherwise table is for reproduce, alpha for coulomb and cornell, s for "
            f"dimensionless runs and mass for runs with beta; remove: {unused}")
    _validate(cfg)
    return cfg


def _ignored_keys(cfg, raw):
    """The keys of raw that the configured run would not read."""
    if cfg.command == "reproduce":
        return set(raw) - {"command", "table", "format", "out"}
    ignored = {"table", "s" if cfg.physical or cfg.potential == "cornell" else "mass"}
    if cfg.potential == "linear":
        ignored.add("alpha")
    return set(raw) & ignored


def _validate(cfg):
    if cfg.command not in COMMANDS:
        raise ConfigError(f"field 'command' must be one of {COMMANDS}, got {cfg.command!r}")
    if cfg.potential not in POTENTIALS:
        raise ConfigError(f"field 'potential' must be one of {POTENTIALS}, got {cfg.potential!r}")
    if cfg.kinetic not in KINETIC_MODES:
        raise ConfigError(f"field 'kinetic' has invalid value {cfg.kinetic!r}")
    if cfg.format not in FORMATS:
        raise ConfigError(f"field 'format' must be one of {FORMATS}, got {cfg.format!r}")
    if cfg.sigma <= 0.0:
        raise ConfigError("field 'sigma' must be positive")
    if cfg.levels < 1:
        raise ConfigError("field 'levels' must be at least 1")
    if any(N < 2 for N in cfg.N):
        raise ConfigError("field 'N' entries must be at least 2 (mesh order)")
    if any(N > MAX_N for N in cfg.N):
        raise ConfigError(f"field 'N' entries must be at most {MAX_N}: a solve needs "
                          f"up to 70 bytes * N^2, 1.1 GB at N = {MAX_N}")
    if any(l < 0 for l in cfg.ell):
        raise ConfigError("field 'ell' entries must be nonnegative")
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
    if cfg.physical or cfg.potential == "cornell":
        if cfg.beta is None or cfg.beta <= 0.0:
            raise ConfigError("physical runs require field 'beta' > 0 (GeV^2)")
        if cfg.mass_gev is None or cfg.mass_gev <= 0.0:
            raise ConfigError("physical runs require field 'mass' > 0 (GeV)")
        # unit conversion a = 1/sqrt(beta): s = sqrt(beta)/m for equal masses
        cfg.s = cfg.scales.s
    else:
        if cfg.s <= 0.0:
            raise ConfigError("dimensionless runs require field 's' > 0")
    if cfg.potential != "linear" and cfg.alpha <= 0.0:
        raise ConfigError(f"potential {cfg.potential!r} requires field 'alpha' > 0")
    if cfg.kinetic == "salpeter":
        if cfg.command == "compare":
            raise ConfigError("compare supports only the nonrelativistic kinetic mode")
        if not cfg.physical:
            raise ConfigError("salpeter kinetic mode requires physical parameters")


def _problem(cfg, ell):
    """The partial wave ell of the configured potential."""
    return Problem(
        ell=ell,
        alpha=cfg.alpha,
        linear=cfg.potential != "coulomb",
        s=cfg.s,
        kinetic=cfg.kinetic,
        am=cfg.scales.am if cfg.kinetic == "salpeter" else 0.0,
    )


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
    return json.dumps(asdict(report), indent=2)


def _fail(report, message):
    report.status = EXIT_NUMERICAL
    report.diagnostics.append(message)


# ---------------------------------------------------------------------------
# commands

def _solve_wave(report, wave):
    """Solve one partial wave, append its rows and return them; flag too few levels."""
    levels, complete = mom.solve_levels(wave.problem, wave.N, wave.sigma, wave.levels)
    rows = [{"ell": lv.ell, "n": lv.n, "N": wave.N, "sigma": wave.sigma,
             "epsilon": float(lv.epsilon),
             "mass_gev": None if wave.scales is None else float(wave.scales.mass_gev(lv.epsilon)),
             "imag": float(lv.imag_part)}
            for lv in levels]
    report.rows.extend(rows)
    if not complete:
        _fail(report, f"{wave.label}: only {len(levels)} of {wave.levels} "
                      "levels passed the filters")
    return rows


def _run_solve(cfg):
    """`solve`, and `compare`, which pairs each level with the coordinate solver's."""
    report = Report(cfg.command)
    paired = []
    for ell in cfg.ell:
        wave = refs.PartialWave(f"ell={ell}", _problem(cfg, ell), cfg.N[0], cfg.sigma,
                                cfg.levels, cfg.scales)
        rows = _solve_wave(report, wave)
        if cfg.command != "compare":
            continue
        # energy unit: s^(1/3) with a linear term, the Coulomb binding alpha^2/(4 s)
        p = wave.problem
        unit = max(p.s ** (1.0 / 3.0) if p.linear else 0.0, p.alpha ** 2 / (4.0 * p.s))
        for row in rows:
            n, eps = row["n"], row["epsilon"]
            try:
                eps_r = radial.solve_radial(p, n)
            except RuntimeError as exc:
                _fail(report, f"ell={ell} n={n}: coordinate solver failed: {exc}")
                continue
            delta = eps - eps_r
            paired.append({"ell": ell, "n": n, "momentum": eps,
                           "coordinate": float(eps_r), "delta": float(delta)})
            report.diagnostics.append(
                f"ell={ell} n={n}: momentum {eps:.7g} coordinate {eps_r:.7g} delta {delta:.2e}")
            if abs(delta) > COMPARE_TOL * unit:
                _fail(report, f"ell={ell} n={n}: the solvers disagree by more than "
                              f"{COMPARE_TOL:g} of the energy unit {unit:.3g}")
    if cfg.command == "compare":
        report.extra["compare"] = paired
    return report


def _run_scan(cfg):
    """`solve` at each N of the list, reporting each level's successive differences."""
    report = Report("scan")
    diffs = {}
    for ell in cfg.ell:
        eps = []
        for N in cfg.N:
            wave = refs.PartialWave(f"ell={ell} N={N}", _problem(cfg, ell), N, cfg.sigma,
                                    cfg.levels, cfg.scales)
            found = {row["n"]: row["epsilon"] for row in _solve_wave(report, wave)}
            eps.append([found.get(n) for n in range(cfg.levels)])
        diffs[str(ell)] = [[None if a is None or b is None else abs(b - a)
                            for a, b in zip(lo, hi)] for lo, hi in zip(eps, eps[1:])]
        for n in range(cfg.levels):
            report.diagnostics.extend(
                f"ell={ell} n={n}: N {lo} -> {hi} changes eps by {step[n]:.1e}"
                for lo, hi, step in zip(cfg.N, cfg.N[1:], diffs[str(ell)])
                if step[n] is not None)
    report.extra["successive_differences"] = diffs
    return report


def _run_reproduce(cfg):
    """Rerun a stored campaign and grade each level against its reference."""
    report = Report("reproduce")
    report.extra["table"] = cfg.table
    for wave in refs.campaign(cfg.table):
        quantity = "eps" if wave.scales is None else "mass"
        for row in _solve_wave(report, wave):
            value = row["epsilon"] if wave.scales is None else row["mass_gev"]
            ref, tol = wave.references[row["n"]]
            err = abs(value - ref)
            line = (f"{wave.label} n={row['n']}: {quantity} {value:.9g} ref {ref:.9g} "
                    f"err {err:.1e} tol {tol:.1e}")
            if err <= tol:
                report.diagnostics.append(line + " pass")
            else:
                _fail(report, line + " FAIL")
    return report


def run(cfg):
    """Execute a validated RunConfig and return the Report."""
    handlers = {"solve": _run_solve, "scan": _run_scan,
                "compare": _run_solve, "reproduce": _run_reproduce}
    return handlers[cfg.command](cfg)


# ---------------------------------------------------------------------------
# emission

def emit_csv(report):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for row in report.rows:
        out = dict(row)
        if out["mass_gev"] is None:
            out["mass_gev"] = ""
        writer.writerow(out)
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

def _build_argparser():
    ap = argparse.ArgumentParser(
        prog="chebquark",
        description="Momentum-space Coulomb-plus-linear bound states on a Chebyshev mesh")
    ap.add_argument("--config", help="path to a key-value configuration file")
    ap.add_argument("--command", choices=COMMANDS)
    ap.add_argument("--table", type=int, choices=(1, 2, 3))
    ap.add_argument("--ell", help="orbital momenta, e.g. '0,1,2'")
    ap.add_argument("--levels", type=int)
    ap.add_argument("--N", help="mesh order, or list for scans, e.g. '50,100,200'")
    ap.add_argument("--sigma", type=float)
    ap.add_argument("--format", choices=FORMATS)
    ap.add_argument("--out", help="output path (default: stdout)")
    return ap


def main(argv=None):
    args = _build_argparser().parse_args(argv)
    try:
        raw = {}
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    raw = _read_raw(fh.read())
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config file: {exc}")
        # command line flags override file values
        for key in ("command", "table", "ell", "levels", "N", "sigma", "format", "out"):
            value = getattr(args, key)
            if value is not None and value != "":
                raw[key] = str(value)
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
