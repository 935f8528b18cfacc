"""The benchmark harness in perfbench/ reaches into the library by name.

It wraps module attributes for the traced run and validates its requests
with `cli.build_config`, so a renamed function or config key would
break it without failing any other test.
"""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import chebquark
from chebquark import cheb, cli, momentum, radial
from chebquark import references as refs
from chebquark.kernels import Problem

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Import perfbench/<name>.py under a private module name."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("probe", spans.PROBES, ids=[p[0] for p in spans.PROBES])
def test_probe_resolves_to_callable(probe):
    _, module, attr, _ = probe
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_ivp_probe_wraps_scipys_own_function():
    # `radial.ivp_calls` and `radial.rhs_evals` count the calls and `nfev` of
    # scipy's solve_ivp, which `radial` resolves only when it is looked up
    import scipy.integrate

    assert radial.solve_ivp is scipy.integrate.solve_ivp


@pytest.mark.parametrize("request_", [r for w in workloads.WORKLOADS.values() for r in w],
                         ids=lambda r: r.name)
def test_workload_request_is_valid_config(request_):
    cli.build_config(request_.raw)


@pytest.mark.parametrize("name", chebquark.__all__)
def test_exported_name_resolves(name):
    assert getattr(chebquark, name, None) is not None


# probes whose spans feed kernels.legendre_ms, cheb.tables_ms and
# cheb.table_builds; the PV table is built without PV moments over the mesh
CALLED_ONCE = ("kernels.legendre_P", "kernels.w_poly", "cheb.pv_weight_table",
               "cheb.log_moments")
NEVER_CALLED = ("cheb.pv_moments",)


def test_solve_calls_through_the_probed_attributes(monkeypatch):
    # a traced run sees only the calls made through these attributes; one
    # Cornell ell = 2 solve on a fresh grid makes each exactly once (the
    # moments counted as the probe counts them, over a whole mesh)
    want = {**dict.fromkeys(CALLED_ONCE, 1), **dict.fromkeys(NEVER_CALLED, 0)}
    calls = dict.fromkeys(want, 0)
    for name, module, attr, count in spans.PROBES:
        if name not in calls:
            continue
        mod = importlib.import_module(module)

        def counted(*args, _fn=getattr(mod, attr), _name=name, _count=count, **kwargs):
            out = _fn(*args, **kwargs)
            calls[_name] += 1 if _count is None else _count(out)
            return out

        monkeypatch.setattr(mod, attr, counted)
    monkeypatch.setattr(cheb, "chebyshev_grid", functools.lru_cache(cheb.ChebGrid))
    problem = Problem(ell=2, alpha=refs.CORNELL_ALPHA, s=refs.physical_scales("charm").s)
    momentum.solve_levels(problem, 40, 1.0, 3)
    assert calls == want
