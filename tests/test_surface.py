"""The package's public surface: every ``__all__`` entry exists, every
public name has one home (its module, not the package root), every public
function and method has a caller, and the call shapes the bench scripts use
still bind."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import ssfmlab
from ssfmlab import bandwidth, engine, harness, runner
from ssfmlab.cli import build_parser

MODULES = ["ssfmlab"] + [f"ssfmlab.{m.name}" for m in pkgutil.iter_modules(ssfmlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    namespace = {}
    exec(f"from {name} import *", namespace)  # a stale __all__ entry raises here
    module = importlib.import_module(name)
    assert set(module.__all__) <= set(namespace)


def test_package_root_exports_only_its_version():
    """Each public name is imported from its own module: the package root
    declares ``__version__`` and imports nothing."""
    assert ssfmlab.__all__ == ["__version__"]
    tree = ast.parse(Path(ssfmlab.__file__).read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _public_names():
    """(qualified name, pattern) of every public function of ``ssfmlab`` and
    every public method, property or dataclass field of its public classes; a
    method, property or field is matched as ``.name``."""
    names = []
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != name:
                continue
            if inspect.isfunction(value):  # any line but its own def line
                names.append((f"{name}.{attr}", rf"^(?!\s*def {attr}\b).*\b{attr}\b"))
            elif inspect.isclass(value):
                fields = dataclasses.fields(value) if dataclasses.is_dataclass(value) else ()
                members = [f.name for f in fields] + [
                    member for member, raw in vars(value).items()
                    if isinstance(raw, (property, classmethod, staticmethod)) or inspect.isfunction(raw)
                ]
                for member in members:
                    if not member.startswith("_"):
                        names.append((f"{name}.{attr}.{member}", rf"\.{member}\b"))
    return names


def test_every_public_name_has_a_caller():
    """A public name that only tests use is surface to delete: each must be
    named in the package outside its own ``def`` line, or in ``bench/``, and
    each field of a public dataclass read there as ``.field``.  A module's
    ``__all__`` entry and the package root name a function without calling
    it, so neither counts; strings do, as ``bench/run_bench.py`` names
    ``cli.entry`` only in one."""
    root = Path(__file__).resolve().parents[1]
    package = [p for p in sorted((root / "src" / "ssfmlab").glob("*.py")) if p.name != "__init__.py"]
    files = package + sorted((root / "bench").glob("*.py"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in files)
    text = re.sub(r"^__all__ = \[.*?\]", "", text, flags=re.M | re.S)
    uncalled = [name for name, pattern in _public_names() if not re.search(pattern, text, re.M)]
    assert uncalled == []


def test_points_are_scored_only_in_the_point_loop():
    """Every command that scores filter fractions goes through
    ``harness._sweep_points``: no other function of the package calls
    ``sweep_bandwidth`` or ``runner.benchmark_fields``.  The best-fraction
    rule is applied where a row is reported: only ``harness._row`` and
    ``cli.cmd_optimize`` call ``_select_best``."""
    root = Path(__file__).resolve().parents[1] / "src" / "ssfmlab"
    callers = set()
    for path in sorted(root.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = ast.unparse(node.func)
                short = name.split(".")[-1]
                if short in ("sweep_bandwidth", "_select_best") or name == "runner.benchmark_fields":
                    callers.add((f"{path.stem}.{getattr(top, 'name', '<module>')}", name))
    assert callers == {
        ("harness._sweep_points", "bandwidth.sweep_bandwidth"),
        ("harness._sweep_points", "runner.benchmark_fields"),
        ("harness._row", "bandwidth._select_best"),
        ("cli.cmd_optimize", "bandwidth._select_best"),
    }


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


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_flag_table_matches_the_parser():
    """README's "Command line" flag table has one column per subcommand, and
    each row marks ``yes`` under exactly the subcommands that define its flag."""
    section = _readme().split("## Command line\n", 1)[1].split("\n#", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("|")]
    header, flag_rows = rows[0], rows[2:]
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = list(subparsers.choices)
    assert [cell.strip().strip("`") for cell in header[1:]] == commands
    assert flag_rows
    for flag_cell, *cells in flag_rows:
        flag = re.match(r"\s*`(--[\w-]+)", flag_cell).group(1)
        marked = [c for c, cell in zip(commands, cells) if cell.strip() == "yes"]
        defined = [c for c in commands if flag in subparsers.choices[c]._option_string_actions]
        assert marked == defined, flag


def test_readme_names_every_preset_and_axis():
    """README's preset table has one row per preset, and its ``sweep`` axes
    list one entry per axis, in the package's order."""
    readme = _readme()
    table = readme.split("### Presets\n", 1)[1].split("\n#", 1)[0]
    assert tuple(re.findall(r"^\| `([\w-]+)` \|", table, re.M)) == harness.PRESETS
    axes = readme.split("`sweep` axes:\n\n", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"^- `(\w+)`:", axes, re.M)) == harness.AXES
