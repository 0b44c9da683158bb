"""Traced run: spans around the calls into each ssfmlab layer, from outside.

The tracer replaces each public function of the seven layer modules at the
module attribute where its callers look it up: a function a module defines
is wrapped in that module's namespace, and a function it imports by name
(``runner.nsd``, ``harness.propagate``, ``metrics.resample_bandlimited``)
is wrapped in the importing module too.  Calls through a module object
(``runner.fraction_nsds`` as ``bandwidth`` and ``harness`` call it) hit the
wrapper in the defining module.  Private names are never touched, so the
batched segment loop inside ``runner`` counts as ``runner`` self time.

Each span keeps its name, layer, start, end, parent and thread.  A span
started on a worker thread with nothing open on that thread takes the
innermost open span of the main thread as its parent, which is the
``sweep_bandwidth`` call that owns the pool.  Work counters are derived
from the arguments of the runner and ``propagate`` spans only.

Those counters measure the work each call asks for, not the work it does.
A memo or a distance checkpoint placed inside ``runner.benchmark_fields``
or ``runner.fraction_nsds`` is invisible to ``harness.actual_msegs``,
``harness.work_ratio`` and ``harness.propagated_km``: each call still
counts a full run, and only ``runner.benchmark_fields.distinct_inputs``
and the span times show the saving.  A change that adds such reuse must
move the probes to the public function that then does the propagation,
so that they count what is actually propagated.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import threading
import time

import micro
from micro import metric
from workloads import gate

LAYERS = ("signals", "engine", "runner", "metrics", "bandwidth", "harness", "cli")


def _benchmark_probe(a: dict) -> dict:
    sc = a["scenario"]
    n_seg = round(sc.fiber.span_km / sc.benchmark_dz_km)
    key = (sc.fiber, sc.launch, sc.n_symbols, tuple(sc.seeds), sc.benchmark_spp,
           sc.benchmark_dz_km)
    return {"sample_segments": len(sc.seeds) * sc.n_symbols * sc.benchmark_spp * n_seg,
            "km": sc.fiber.span_km, "key": repr(key)}


def _fraction_probe(a: dict) -> dict:
    sc = a["scenario"]
    rows, n_samples = a["launch_fields"].shape
    n_seg = round(sc.fiber.span_km / sc.candidate_dz_km)
    return {"sample_segments": rows * n_samples * n_seg, "km": sc.fiber.span_km}


def _propagate_probe(a: dict) -> dict:
    return {"sample_segments": a["wave"].grid.n_samples * a["cfg"].n_seg,
            "km": a["fiber"].span_km}


PROBES = {
    "runner.benchmark_fields": _benchmark_probe,
    "runner.fraction_nsds": _fraction_probe,
    "engine.propagate": _propagate_probe,
}


class Tracer:
    """In-memory span recorder installed by patching module attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.captured: dict[str, object] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        capture = name == "harness.emit_csv"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = {"name": name, "layer": name.split(".")[0], "parent": parent,
                    "thread": threading.get_ident(), "start": 0.0, "end": 0.0}
            if probe is not None or capture:
                arguments = signature.bind(*args, **kwargs).arguments
                if probe is not None:
                    span["counts"] = probe(arguments)
                if capture:
                    self.captured.setdefault("sweep_result", arguments["result"])
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"ssfmlab.{layer}") for layer in LAYERS}
        defining = {m.__name__: layer for layer, m in modules.items()}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in defining):
                    continue
                self._patches.append((module, attr, obj))
                setattr(module, attr, self.wrap(f"{defining[obj.__module__]}.{obj.__name__}", obj))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, obj = self._patches.pop()
            setattr(module, attr, obj)


# --------------------------------------------------------------------------
# analysis


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def analyse(spans: list[dict], nominal_sample_segments: int) -> dict[str, dict]:
    """Per-layer metrics from the spans of one traced command."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        inside = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
                  for c in children.get(i, [])]
        self_s[span["layer"]] += span["end"] - span["start"] - _covered(inside)

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total_s(group: list[dict]) -> float:
        return sum(s["end"] - s["start"] for s in group)

    bench, fractions = named("runner.benchmark_fields"), named("runner.fraction_nsds")
    counted = [s for s in spans if "counts" in s]
    actual = sum(s["counts"]["sample_segments"] for s in counted)
    batch_segments = sum(s["counts"]["sample_segments"] for s in bench + fractions)
    distinct = len({s["counts"]["key"] for s in bench})

    idle = 0.0
    for i, span in enumerate(spans):
        if span["name"] != "bandwidth.sweep_bandwidth":
            continue
        pooled = [c for c in children.get(i, []) if c["name"] == "runner.fraction_nsds"]
        workers = len({c["thread"] for c in pooled})
        if workers > 1:
            pool_wall = max(c["end"] for c in pooled) - min(c["start"] for c in pooled)
            idle += pool_wall * workers - total_s(pooled)

    metrics = {
        "runner.benchmark_fields.s": (total_s(bench), "s"),
        "runner.benchmark_fields.calls": (len(bench), "count"),
        "runner.benchmark_fields.distinct_inputs": (distinct, "count"),
        "runner.benchmark_reuse_ratio": (distinct / len(bench) if bench else 1.0, "ratio"),
        "runner.fraction_nsds.s": (total_s(fractions), "s"),
        "runner.fraction_nsds.calls": (len(fractions), "count"),
        "runner.batch_msegs_per_s": (batch_segments / 1e6 / total_s(bench + fractions),
                                     "Msample-seg/s"),
        "bandwidth.worker_idle_s": (idle, "s"),
        "harness.actual_msegs": (actual / 1e6, "Msample-seg"),
        "harness.nominal_msegs": (nominal_sample_segments / 1e6, "Msample-seg"),
        "harness.work_ratio": (actual / nominal_sample_segments, "ratio"),
        "harness.propagated_km": (sum(s["counts"]["km"] for s in counted), "km"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    return {name: metric(value, unit) for name, (value, unit) in metrics.items()}


# --------------------------------------------------------------------------
# the traced run


def run_traced(workload, seed: int, scenario_path: str, work_dir: str, golden: dict):
    """Microbenchmarks, then the command in-process: untraced, traced, untraced.

    The first untraced command only warms the process (allocator, FFT
    caches), so that the traced command and the second untraced one, which
    the overhead compares, start from the same state.  Returns the per-layer
    metrics (all but ``cli.import_s``, which comes from the set-up launches)
    and a record with every span.
    """
    from ssfmlab import cli

    metrics = micro.before_command(workload, seed, work_dir)
    runs = []
    walls = {}
    tracer = Tracer()
    for label in ("warmup", "traced", "untraced"):
        out_dir = os.path.join(work_dir, label)
        os.makedirs(out_dir)
        if label == "traced":
            tracer.install()
        start = time.perf_counter()
        try:
            with open(os.path.join(work_dir, f"{label}.log"), "w") as log, \
                    contextlib.redirect_stdout(log):
                code = cli.main(workload.argv(seed, scenario_path, out_dir))
        finally:
            walls[label] = time.perf_counter() - start
            tracer.uninstall()
        runs.append({"label": label, "wall_s": walls[label], "exit_code": code,
                     "failure": gate(workload, seed, out_dir, golden, code)})

    metrics.update(analyse(tracer.spans, workload.nominal_sample_segments()))
    metrics.update(micro.after_command(tracer.captured.get("sweep_result"), work_dir))
    metrics["tracing.untraced_wall_s"] = metric(walls["untraced"], "s")
    metrics["tracing.overhead_s"] = metric(walls["traced"] - walls["untraced"], "s")
    return metrics, {"runs": runs, "spans": tracer.spans}
