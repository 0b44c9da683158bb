"""The package's public surface: every ``__all__`` entry exists, every
public function and method has a caller, and the call shapes the bench
scripts use still bind."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


def _public_names():
    """(qualified name, pattern) of every public function of ``ssfmlab`` and
    every public method or property of its public classes; a method or
    property is matched as ``.name``."""
    names = []
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != name:
                continue
            if inspect.isfunction(value):  # any line but its own def line
                names.append((f"{name}.{attr}", rf"^(?!\s*def {attr}\b).*\b{attr}\b"))
            elif inspect.isclass(value):
                for member, raw in vars(value).items():
                    if member.startswith("_"):
                        continue
                    if isinstance(raw, (property, classmethod, staticmethod)) or inspect.isfunction(raw):
                        names.append((f"{name}.{attr}.{member}", rf"\.{member}\b"))
    return names


def test_every_public_name_has_a_caller():
    """A public name that only tests use is surface to delete: each must be
    named in the package outside its own ``def`` line, or in ``bench/``."""
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "ssfmlab").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in files)
    uncalled = [name for name, pattern in _public_names() if not re.search(pattern, text, re.M)]
    assert uncalled == []


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


def test_readme_names_every_preset_and_axis():
    """README's preset table has one row per preset, and its ``sweep`` axes
    list one entry per axis, in the package's order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Presets\n", 1)[1].split("\n#", 1)[0]
    assert tuple(re.findall(r"^\| `([\w-]+)` \|", table, re.M)) == harness.PRESETS
    axes = readme.split("`sweep` axes:\n\n", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"^- `(\w+)`:", axes, re.M)) == harness.AXES
