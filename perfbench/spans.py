"""Span recording for the traced run, and the per-layer metrics built from it.

Spans are recorded from outside the library: `Tracer.install` replaces, at
run time, the module attributes through which one layer calls the next with
wrappers that time each call.  No library file is edited, and the
replacement happens only in the forked process that serves one traced
request, so untraced requests run the unmodified library.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# (span name, module, attribute, count taken from the call's result).  The
# attributes are the names the calling layer looks up at call time:
# `cli` calls `momentum.solve_levels` and `radial.solve_radial`; `momentum`
# calls its own globals and `cheb.*_weight_table`; `radial` calls its global
# `solve_ivp`.  `legendre_P` and `w_poly` are wrapped where momentum imported
# them, so only the calls from assembly are counted.  The table functions
# call the module globals `_pv_moments` and `_log_moments`, which compute the
# moments a table is built from; their count is 1 for a computation over a
# whole mesh (a 2-d result) and 0 for one at a single point.
PROBES = (
    ("cheb.pv_weight_table", "chebquark.cheb", "pv_weight_table", None),
    ("cheb.log_weight_table", "chebquark.cheb", "log_weight_table", None),
    ("cheb.pv_moments", "chebquark.cheb", "_pv_moments", lambda m: int(m.ndim > 1)),
    ("cheb.log_moments", "chebquark.cheb", "_log_moments", lambda m: int(m.ndim > 1)),
    ("kernels.legendre_P", "chebquark.momentum", "legendre_P", None),
    ("kernels.w_poly", "chebquark.momentum", "w_poly", None),
    ("momentum.solve_levels", "chebquark.momentum", "solve_levels", None),
    ("momentum.assemble_potential", "chebquark.momentum", "assemble_potential", None),
    ("momentum.solve_spectrum", "chebquark.momentum", "solve_spectrum",
     lambda pairs: len(pairs[0])),
    ("momentum.select_bound_states", "chebquark.momentum", "select_bound_states",
     lambda result: len(result[0])),
    ("radial.solve_radial", "chebquark.radial", "solve_radial", None),
    ("radial.solve_ivp", "chebquark.radial", "solve_ivp", lambda sol: sol.nfev),
)

ROOT_SPAN = "cli"
TABLE_SPANS = ("cheb.pv_weight_table", "cheb.log_weight_table")
MOMENT_SPANS = ("cheb.pv_moments", "cheb.log_moments")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None    # index of the enclosing span within the request
    request: int
    count: int | None     # eigenpairs, levels or RHS evaluations, per PROBES


class Tracer:
    """Collects the spans of one request in memory."""

    def __init__(self, request_id):
        self.request_id = request_id
        self.spans = []
        self._open = []

    def install(self):
        for name, module, attr, count in PROBES:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._wrap(name, getattr(mod, attr), count))

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, count, *args, **kwargs)
        return traced

    def call(self, name, fn, count, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        out = None
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            end = time.perf_counter()
            self._open.pop()
            n = count(out) if count is not None and out is not None else None
            self.spans[index] = Span(name, start, end, parent, self.request_id, n)


def self_times(spans):
    """Duration of each span minus the time its direct children cover.

    Calls are nested and sequential in one thread, so the children of a span
    never overlap and their durations add up to the interval they cover.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def table_builds(spans):
    """(builds, seconds) of the weight tables one request actually built.

    A build is a moment computation over a whole mesh; a table served from a
    cache runs none and is not counted.  A build is timed by the outermost
    table function that encloses it, which adds the product with the
    coefficient matrix, or by itself where no table function encloses it.
    """
    builds, timed = 0, {}
    for index, s in enumerate(spans):
        if s.name not in MOMENT_SPANS or not s.count:
            continue
        builds += 1
        outermost, parent = index, s.parent
        while parent is not None:
            if spans[parent].name in TABLE_SPANS:
                outermost = parent
            parent = spans[parent].parent
        timed[outermost] = spans[outermost].end - spans[outermost].start
    return builds, sum(timed.values())


def time_share(requests, name):
    """Share of the requests' time spent in spans called `name`, not nested."""
    inside = whole = 0.0
    for spans in requests:
        for s in spans:
            if s.name == ROOT_SPAN:
                whole += s.end - s.start
            elif s.name == name and spans[s.parent].name != name:
                inside += s.end - s.start
    return inside / whole if whole else 0.0


def layer_metrics(requests, scale):
    """Per-layer metrics of a set of requests, one span list per request.

    Every time is multiplied by `scale`.
    """
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    counted = Counter()
    builds, build_s = 0, 0.0
    for spans in requests:
        n, seconds = table_builds(spans)
        builds += n
        build_s += scale * seconds
        for s, self_s in zip(spans, self_times(spans)):
            total[s.name] += scale * (s.end - s.start)
            own[s.name] += scale * self_s
            calls[s.name] += 1
            counted[s.name] += s.count or 0

    def per(value, base):
        return value / base if base else 0.0

    n_req = len(requests)
    solves = calls["momentum.solve_levels"]
    levels = calls["radial.solve_radial"]
    ms = 1e3
    return {
        "cheb.tables_ms": per(ms * build_s, n_req),
        "cheb.table_builds": per(builds, n_req),
        "kernels.legendre_ms": per(ms * (total["kernels.legendre_P"]
                                         + total["kernels.w_poly"]), n_req),
        "kernels.calls": per(calls["kernels.legendre_P"] + calls["kernels.w_poly"], n_req),
        "momentum.solve_ms": per(ms * total["momentum.solve_levels"], solves),
        "momentum.assemble_ms": per(ms * own["momentum.assemble_potential"], solves),
        "momentum.assemble_calls": per(calls["momentum.assemble_potential"], solves),
        "momentum.eig_ms": per(ms * total["momentum.solve_spectrum"], solves),
        "momentum.eigpairs_computed": per(counted["momentum.solve_spectrum"], solves),
        "momentum.select_ms": per(ms * own["momentum.select_bound_states"], solves),
        "momentum.accept_ratio": per(counted["momentum.select_bound_states"],
                                     counted["momentum.solve_spectrum"]),
        "radial.level_ms": per(ms * total["radial.solve_radial"], levels),
        "radial.ivp_calls": per(calls["radial.solve_ivp"], levels),
        "radial.rhs_evals": per(counted["radial.solve_ivp"], levels),
        "cli.self_ms": per(ms * own[ROOT_SPAN], n_req),
    }
