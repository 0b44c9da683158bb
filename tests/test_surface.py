"""The package's public surface: every ``__all__`` entry exists, and the
call shapes the bench scripts use still bind."""

import importlib
import inspect
import pkgutil

import pytest

import ssfmlab
from ssfmlab import bandwidth, engine, harness, runner

MODULES = ["ssfmlab"] + [f"ssfmlab.{m.name}" for m in pkgutil.iter_modules(ssfmlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    namespace = {}
    exec(f"from {name} import *", namespace)  # a stale __all__ entry raises here
    module = importlib.import_module(name)
    assert set(module.__all__) <= set(namespace)


def _bound(fn, *args, **kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def test_bench_call_shapes_bind():
    """``bench/micro.py`` calls these by these names, and ``bench/tracing.py``
    reads the bound arguments named here."""
    arguments = _bound(
        bandwidth.sweep_bandwidth, "scenario", "fractions",
        threads=2, launch_fields="launch", bench_fields="bench",
    )
    assert arguments["launch_fields"] == "launch" and arguments["bench_fields"] == "bench"
    arguments = _bound(runner.fraction_nsds, "scenario", "fractions", "launch", "bench")
    assert arguments["scenario"] == "scenario" and arguments["launch_fields"] == "launch"
    assert _bound(runner.benchmark_fields, "scenario")["scenario"] == "scenario"
    arguments = _bound(engine.propagate, "wave", "fiber", "cfg")
    assert arguments == {"wave": "wave", "fiber": "fiber", "cfg": "cfg"}
    assert _bound(harness.emit_csv, "result", "path")["result"] == "result"
