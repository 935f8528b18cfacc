"""chebquark benchmark: run one workload, grade every level, print the metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload campaigns --seed 1 --seconds 30 --trace 0

Requests run in a closed loop: one client, one request at a time.  Each
request is one `chebquark.cli.run` of a validated configuration plus its
JSON emission, served in a child forked from this process after it has
imported `chebquark` but solved nothing, so every request starts with the
caches as cold as a fresh `chebquark` command has them.  A pass runs every
request of the workload once, in an order shuffled by the seed; the run
repeats whole passes until `--seconds` have elapsed.

The machine this runs on is shared, and other tenants slow it down by up to
2x for seconds to minutes at a time.  So a fixed calibration kernel is timed
before each request (see `calibrate`), each request's latency is the median
over its instances in the run, and every time reported is scaled to a
nominal machine speed by the median calibration of the run.  Unscaled times
are printed for reading.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` every
request is served twice, once untraced and once traced (alternating which
goes first), and the per-layer metrics come from the traced spans, which are
written to perfbench/out/ when the run ends.  The last line of standard
output is one JSON object: correct, attempted (requests), failed (requests
that raised, crashed or returned a non-zero status) and metrics.
"""

import os

# One BLAS thread: on a small shared machine more threads were slower and
# noisier, and a single-threaded parent is safe to fork.  Set before numpy
# loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import atexit  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import select  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402

import chebquark  # noqa: E402
from chebquark import cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# set-up probes take this share of a run's time, spread evenly over it
SETUP_SHARE = 0.2
SETUP_MIN_PROBES = 5
# calibrate() on the 2-core x86 machine the bounds were tuned on, at its
# lower quartile; reported times are scaled to the speed at which calibrate()
# takes this long
NOMINAL_CALIBRATION_S = 0.055
# a run that cannot finish inside this many seconds is abandoned as failed
HARD_LIMIT_S = 170.0

# Fresh interpreter to first request ready: import the CLI and validate the
# workload's configurations, then report.
SETUP_PROBE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from chebquark import cli\n"
    "for raw in json.loads(sys.argv[2]):\n"
    "    cli.build_config(raw)\n"
    "print('ready', flush=True)\n"
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run or cannot finish in time."""


@dataclass
class Outcome:
    """One served request: timing, memory, the CLI's JSON report, grades."""

    request: workloads.Request
    traced: bool
    calibration_s: float    # calibrate() timed right before the request
    latency_s: float
    maxrss_kb: int
    error: str | None
    report: dict | None = None
    spans: list = field(default_factory=list)
    grades: list = field(default_factory=list)

    @property
    def failed(self):
        return self.error is not None or self.report["status"] != cli.EXIT_OK


def _blas_threads():
    """Thread count reported by each loaded OpenBLAS library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


def _oscillator(t, y):
    return [y[1], -y[0]]


def _calibration_server(commands, replies):
    """Helper side: time the calibration kernel once per byte read."""
    matrix = np.random.default_rng(0).standard_normal((120, 120))
    a, b = np.ones(4_000_000), np.ones(4_000_000)
    c = np.empty_like(a)
    while os.read(commands, 1):
        start = time.perf_counter()
        scipy.linalg.eig(matrix)
        solve_ivp(_oscillator, (0.0, 30.0), [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12)
        for _ in range(2):
            np.add(a, b, out=c)
        sum(i * i for i in range(200_000))
        os.write(replies, f"{time.perf_counter() - start!r}\n".encode())


class Calibrator:
    """Times a fixed kernel that does not use chebquark, to track machine speed.

    The kernel does the kinds of work the workloads do: a small dense LAPACK
    eigensolve, an ODE integration with a Python right-hand side, a stream
    through arrays larger than the per-core caches, and a pure-Python loop.
    Across ten runs of each workload, scaling by its median over a run
    tracked the workloads better than any one of these parts alone.  It runs
    in a helper process that holds the arrays, so that request processes
    forked from the driver do not inherit them in their RSS.
    """

    def __init__(self):
        self._pid = None

    def __call__(self):
        if self._pid is None:
            self._start()
        os.write(self._commands, b"c")
        return float(self._replies.readline())

    def _start(self):
        commands_r, commands_w = os.pipe()
        replies_r, replies_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(commands_w)
                os.close(replies_r)
                _calibration_server(commands_r, replies_w)
                code = 0
            finally:
                os._exit(code)
        os.close(commands_r)
        os.close(replies_w)
        self._pid, self._commands = pid, commands_w
        self._replies = os.fdopen(replies_r)
        atexit.register(self.stop)

    def stop(self):
        """End the helper process and wait for it."""
        if self._pid is None:
            return
        os.close(self._commands)
        self._replies.close()
        os.waitpid(self._pid, 0)
        self._pid = None


calibrate = Calibrator()


def at_nominal_speed(seconds, calibration_s):
    """A time scaled to the machine speed at which calibrate() takes NOMINAL_CALIBRATION_S."""
    return seconds * NOMINAL_CALIBRATION_S / calibration_s


def median_calibration(outcomes):
    """The median calibration timed before the given requests."""
    return statistics.median(o.calibration_s for o in outcomes)


class SetupProbes:
    """Set-up probes, spread over a run between requests.

    A probe times a fresh interpreter from its start to its first request
    ready.  `run_passes` runs one whenever the probes so far have taken less
    than SETUP_SHARE of the run, so they sample the whole run and not only
    its first seconds.
    """

    def __init__(self, requests):
        self.raws = json.dumps([r.raw for r in requests])
        self.times = []     # unscaled seconds to "ready", one per probe
        self.spent = 0.0    # seconds the probes took, exit included

    def due(self, elapsed):
        return self.spent <= SETUP_SHARE * elapsed

    def probe(self):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC), self.raws],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed with status {proc.returncode}")
        self.times.append(ready)
        self.spent += time.perf_counter() - start


def _serve(cfg, traced, request_id):
    """Child side: run one request, return what the parent needs as JSON."""
    tracer = spans.Tracer(request_id)
    if traced:
        tracer.install()

    def request():
        return cli.emit(cli.run(cfg), "json")

    start = time.perf_counter()
    text = tracer.call(spans.ROOT_SPAN, request, None) if traced else request()
    latency = time.perf_counter() - start
    return {"latency_s": latency, "report": text,
            "spans": [list(s) for s in tracer.spans]}


def serve(request, cfg, traced, request_id, deadline):
    """Serve one request in a child forked from this process.

    A forked child starts from this process's state, where `chebquark` is
    imported and no cache holds anything yet, which is what a fresh CLI
    process sees after its imports.
    """
    calibration_s = calibrate()
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = _serve(cfg, traced, request_id)
            except Exception:  # the request failed: report it, do not crash the run
                payload = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "w") as fh:
                json.dump(payload, fh)
            code = 0
        finally:
            os._exit(code)

    os.close(write_fd)
    chunks = []
    with os.fdopen(read_fd, "rb") as fh:
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([fh], [], [], max(remaining, 0.0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise BenchError(f"{request.name} did not finish before the run's time limit")
            chunk = os.read(fh.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start

    payload = json.loads(b"".join(chunks) or b"{}")
    error = payload.get("error")
    if status != 0 or not payload:
        error = error or f"request process ended with wait status {status}"
    outcome = Outcome(request, traced, calibration_s, wall, usage.ru_maxrss, error)
    if error is None:
        outcome.latency_s = payload["latency_s"]
        outcome.report = json.loads(payload["report"])
        outcome.spans = [spans.Span(*s) for s in payload["spans"]]
    outcome.grades = workloads.grade(request, outcome.report)
    return outcome


def run_passes(requests, configs, seconds, seed, traced, deadline, setup=None):
    """Whole passes until `seconds` elapse; each pass in a seeded order.

    With `setup`, a SetupProbes, set-up probes run between requests while
    they are due, and at least SETUP_MIN_PROBES run in all.
    """
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    request_id = 0
    while not passes or time.perf_counter() - start < seconds:
        order = list(range(len(requests)))
        rng.shuffle(order)
        outcomes = []
        for k, i in enumerate(order):
            if setup is not None and setup.due(time.perf_counter() - start):
                setup.probe()
            modes = (False,)
            if traced:
                modes = (False, True) if (len(passes) + k) % 2 == 0 else (True, False)
            for mode in modes:
                outcomes.append(serve(requests[i], configs[i], mode, request_id, deadline))
                request_id += 1
        passes.append(outcomes)
    while setup is not None and len(setup.times) < SETUP_MIN_PROBES:
        setup.probe()
    return passes


def request_latencies(outcomes):
    """{request name: median over its instances of the latency at nominal speed}.

    Other tenants of a shared machine slow it down by up to 2x, for seconds
    to minutes at a time.  Scaling by the median calibration of the run
    removes most of that.  Scaling each latency by the calibration timed
    next to it instead adds the noise of that single calibration.
    """
    scale = at_nominal_speed(1.0, median_calibration(outcomes))
    per_request = {}
    for o in outcomes:
        per_request.setdefault(o.request.name, []).append(scale * o.latency_s)
    return {name: statistics.median(v) for name, v in per_request.items()}


def setup_seconds(passes, setup_times):
    """Median set-up time, at nominal speed."""
    calibration_s = median_calibration([o for p in passes for o in p])
    return at_nominal_speed(statistics.median(setup_times), calibration_s)


def end_to_end_metrics(passes, setup_times):
    """{name: (value, sample count)} of the end-to-end metrics.

    Request latency is reported as the mean over the workload's requests,
    not their median: with three or four requests per pass the median is
    one request's latency and carries that request's noise alone.
    """
    outcomes = [o for p in passes for o in p]
    grades = [g for o in outcomes for g in o.grades]
    passed = [g for g in grades if g.passed]
    pass_s = sum(request_latencies(outcomes).values())
    margins = [g.margin_digits for g in passed]
    return {
        "levels_per_s": (len(passed) / len(passes) / pass_s, len(passes)),
        "req_mean_ms": (1e3 * pass_s / len(passes[0]), len(outcomes)),
        "setup_s": (setup_seconds(passes, setup_times), len(setup_times)),
        "peak_rss_mb": (max(o.maxrss_kb for o in outcomes) / 1024.0, len(outcomes)),
        "pass_frac": (len(passed) / len(grades), len(grades)),
        "tol_margin_digits": (min(margins) if margins else 0.0, len(margins)),
    }


def per_layer_metrics(passes):
    """{name: (value, passes)} of the per-layer metrics of a traced run.

    Each metric is the median over passes of its value on the pass's traced
    requests, with times scaled to nominal speed, as the end-to-end metrics
    take medians; counters repeat exactly across passes.  The tracing
    overhead compares traced and untraced latencies as the end-to-end
    metrics compute them.
    """
    outcomes = [o for p in passes for o in p]
    scale = at_nominal_speed(1.0, median_calibration(outcomes))
    per_pass = [spans.layer_metrics([o.spans for o in p if o.traced], scale) for p in passes]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced = sum(request_latencies([o for o in outcomes if o.traced]).values())
    plain = sum(request_latencies([o for o in outcomes if not o.traced]).values())
    metrics["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    return {name: (value, len(passes)) for name, value in metrics.items()}


def write_spans(path, env, passes):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"environment": env}) + "\n")
        for o in (o for p in passes for o in p if o.traced):
            for index, s in enumerate(o.spans):
                fh.write(json.dumps({"id": index, "request_name": o.request.name,
                                     **s._asdict()}) + "\n")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    start = time.perf_counter()
    args = _parse_args(argv)
    if not Path(chebquark.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"chebquark was imported from {chebquark.__file__}, not from {SRC}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    env = environment(args)
    print("environment: " + json.dumps(env))

    requests = workloads.WORKLOADS[args.workload]
    configs = [cli.build_config(r.raw) for r in requests]
    # set-up is an end-to-end metric: a traced run does not probe it
    setup = None if args.trace else SetupProbes(requests)
    passes = run_passes(requests, configs, args.seconds, args.seed, bool(args.trace),
                        start + HARD_LIMIT_S, setup)

    outcomes = [o for p in passes for o in p]
    grades = [g for o in outcomes for g in o.grades]
    failing = [g for g in grades if not g.passed]
    unexpected = [g for g in failing if g.name not in workloads.KNOWN_FAILURES]
    failed_requests = [o for o in outcomes if o.failed]
    if args.trace:
        metrics = per_layer_metrics(passes)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(path, env, passes)
        print(f"spans written to {path.relative_to(ROOT)}")
        share = spans.time_share([o.spans for o in outcomes if o.traced], "radial.solve_radial")
        print(f"radial oracle share of traced request time: {100.0 * share:.1f}%")
    else:
        metrics = end_to_end_metrics(passes, setup.times)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    print(f"{args.workload}: {len(passes)} passes, {len(outcomes)} requests, "
          f"{len(grades)} levels graded")
    for name, (value, n) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]:12s} n={n}")
    # latency percentiles over every request instance, for reading only
    scale = at_nominal_speed(1.0, median_calibration(outcomes))
    for label, factor in (("scaled", scale), ("unscaled", 1.0)):
        latencies = sorted(1e3 * factor * o.latency_s for o in outcomes)
        print(f"  req_p50_ms ({label}) {statistics.median(latencies):23.6g} ms"
              f"{'':11s} n={len(latencies)}")
        if len(latencies) >= 100:
            print(f"  req_p90_ms ({label}) {latencies[int(0.9 * len(latencies))]:23.6g} ms"
                  f"{'':11s} n={len(latencies)}")
    if setup is not None:
        print(f"  setup_s (unscaled) {statistics.median(setup.times):24.6g} s"
              f"{'':12s} n={len(setup.times)}")
    print(f"  {'failed_frac':28s} {len(failing) / len(grades):14.6g} {'ratio':12s} "
          f"n={len(grades)}")
    if passing := [g for g in grades if g.passed]:
        tightest = min(passing, key=lambda g: g.margin_digits)
        print(f"  tightest level: {tightest.name}: {tightest.detail}")
    for name in sorted({g.name for g in failing}):
        example = next(g for g in failing if g.name == name)
        known = " (known)" if name in workloads.KNOWN_FAILURES else ""
        print(f"  failing level{known}: {name}: {example.detail}")
    for o in failed_requests:
        print(f"  failed request: {o.request.name}: "
              f"{o.error or 'status ' + str(o.report['status'])}")

    print(json.dumps({
        "correct": not unexpected and not failed_requests,
        "attempted": len(outcomes),
        "failed": len(failed_requests),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(3)
