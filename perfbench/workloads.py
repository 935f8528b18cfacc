"""Benchmark workloads and the grading of every level they produce.

A request is one `chebquark.cli.run` of a validated configuration.  Each
request lists the levels it must produce, as keys (flavor, ell, n), and
every level is graded against the reference and tolerance of the acceptance
criterion that covers it:

* Coulomb: the exact hydrogen spectrum, 1e-8 relative for the momentum
  solver and 1e-9 relative for the coordinate solver;
* linear: `references.TABLE2_EXACT`, 2e-6 absolute;
* Cornell: `references.TABLE3_MASS_GEV`, 1e-3 GeV, 5e-3 GeV for the
  disputed cell.

Why each workload exists is written down in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from chebquark import radial
from chebquark import references as refs

COULOMB_REL_TOL = {"momentum": 1e-8, "coordinate": 1e-9}
LINEAR_TOL = 2e-6

# Levels the solver is known to get wrong.  They are graded and counted as
# failed like any other level, but they do not make a run incorrect.  The
# linear ell = 2 levels lose accuracy as N grows (error 1.1e-4 at N = 300,
# 1.6e-3 at 600, 3.9e-3 at 800), so all five fail at N = 800.
KNOWN_FAILURES = frozenset(f"solve-linear-l2 l=2 n={n}" for n in range(5))


@dataclass(frozen=True)
class Request:
    """One CLI request and the levels it must produce."""

    name: str
    raw: dict       # configuration fields as the CLI parses them
    kind: str       # "coulomb", "linear" or "cornell": selects the reference
    levels: tuple   # (flavor, ell, n) keys; flavor is None unless Cornell


@dataclass(frozen=True)
class LevelGrade:
    """Grading outcome of one level (all solvers that produced it)."""

    name: str
    passed: bool
    margin_digits: float | None   # min log10(tol/err) over its energies
    detail: str


def _keys(ells, count, flavor=None):
    return tuple((flavor, ell, n) for ell in ells for n in range(count))


def _solve(command, potential, ell, N, sigma, levels, flavor=None, **fields):
    raw = {"command": command, "potential": potential, "ell": str(ell),
           "N": str(N), "sigma": repr(sigma), "levels": str(levels)}
    raw.update({k: repr(v) for k, v in fields.items()})
    name = f"{command}-{flavor or potential}-l{ell}"
    return Request(name, raw, potential, _keys([ell], levels, flavor))


def _linear(command, ell, N, sigma, levels):
    return _solve(command, "linear", ell, N, sigma, levels, s=1.0)


def _coulomb(command, ell, levels):
    return _solve(command, "coulomb", ell, refs.TABLE1_N, refs.TABLE1_SIGMA, levels,
                  alpha=refs.TABLE1_ALPHA, s=refs.TABLE1_S)


def _cornell(command, flavor, ell, N, levels):
    return _solve(command, "cornell", ell, N, refs.TABLE3_SIGMA, levels, flavor,
                  alpha=refs.CORNELL_ALPHA, beta=refs.CORNELL_BETA_GEV2,
                  mass=refs.QUARK_MASS_GEV[flavor])


WORKLOADS = {
    # the three stored campaigns: 14 small partial-wave solves
    "campaigns": (
        Request("reproduce-1", {"command": "reproduce", "table": "1"}, "coulomb",
                _keys(range(4), 5)),
        Request("reproduce-2", {"command": "reproduce", "table": "2"}, "linear",
                _keys(refs.TABLE2_EXACT, 5)),
        Request("reproduce-3", {"command": "reproduce", "table": "3"}, "cornell",
                tuple((f, ell, n) for f in ("charm", "bottom")
                      for ell in range(3) for n in range(3))),
    ),
    # one large mesh per request: no table reuse, the eigensolve dominates
    "large_mesh": (
        _linear("solve", 0, 800, 0.5, 5),
        _linear("solve", 2, 800, 1.0, 5),
        _cornell("solve", "charm", 0, 800, 3),
        _cornell("solve", "bottom", 2, 800, 3),
    ),
    # momentum vs coordinate solver; the radial shooting oracle dominates
    "cross_check": (
        _linear("compare", 0, refs.TABLE2_N[0], refs.TABLE2_SIGMA[0], 2),
        _coulomb("compare", 2, 1),
        _cornell("compare", "charm", 0, refs.TABLE3_N, 1),
    ),
}


def check(kind, key, eps, solver):
    """(error, tolerance) of one energy against its stored reference."""
    flavor, ell, n = key
    if kind == "coulomb":
        exact = radial.hydrogen_energy(n, ell, refs.TABLE1_ALPHA, 1.0 / (2.0 * refs.TABLE1_S))
        return abs(eps / exact - 1.0), COULOMB_REL_TOL[solver]
    if kind == "linear":
        return abs(eps - refs.TABLE2_EXACT[ell][n]), LINEAR_TOL
    tol = (refs.TABLE3_DISPUTED_TOL_GEV if key == refs.TABLE3_DISPUTED
           else refs.TABLE3_TOL_GEV)
    mass = refs.physical_scales(flavor).mass_gev(eps)
    return abs(mass - refs.TABLE3_MASS_GEV[flavor][ell][n]), tol


def eps_tolerance(kind, key, solver):
    """The tolerance of `check` expressed as a shift of the energy eps."""
    flavor, ell, n = key
    if kind == "coulomb":
        exact = radial.hydrogen_energy(n, ell, refs.TABLE1_ALPHA, 1.0 / (2.0 * refs.TABLE1_S))
        return COULOMB_REL_TOL[solver] * abs(exact)
    if kind == "linear":
        return LINEAR_TOL
    return check(kind, key, 0.0, solver)[1] / refs.physical_scales(flavor).sqrt_beta


def energies(request, report):
    """{key: {solver: eps}} of every level a JSON-form report carries."""
    flavors = {key[0] for key in request.levels}
    out = {}
    for row in report["rows"]:
        flavor = next(iter(flavors))
        if len(flavors) > 1:
            # a row's mass is computed from its eps with its flavor's scales
            flavor = next((f for f in flavors if refs.physical_scales(f).mass_gev(
                row["epsilon"]) == row["mass_gev"]), None)
        out.setdefault((flavor, row["ell"], row["n"]), {})["momentum"] = row["epsilon"]
    for pair in report["extra"].get("compare", ()):
        key = (next(iter(flavors)), pair["ell"], pair["n"])
        out.setdefault(key, {})["coordinate"] = pair["coordinate"]
    return out


def grade(request, report):
    """Grade every level the request must produce; `report` is None if it crashed.

    A level passes when every solver that must produce it did, each within
    its tolerance.  Missing levels fail.
    """
    solvers = ("momentum", "coordinate") if request.raw["command"] == "compare" else ("momentum",)
    found = energies(request, report) if report is not None else {}
    several_flavors = len({key[0] for key in request.levels}) > 1
    grades = []
    for key in request.levels:
        flavor, ell, n = key
        name = f"{request.name} {flavor + ' ' if several_flavors else ''}l={ell} n={n}"
        passed, margin, notes = True, math.inf, []
        for solver in solvers:
            eps = found.get(key, {}).get(solver)
            if eps is None:
                passed = False
                notes.append(f"{solver} missing")
                continue
            err, tol = check(request.kind, key, eps, solver)
            ok = err <= tol
            passed = passed and ok
            margin = min(margin, math.log10(tol / max(err, 1e-300)))
            notes.append(f"{solver} err {err:.2e} tol {tol:g}")
        grades.append(LevelGrade(name, passed, margin if passed else None, ", ".join(notes)))
    return grades
