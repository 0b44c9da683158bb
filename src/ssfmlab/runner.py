"""Seed-batched evaluation of benchmark/candidate scenario runs.

A scenario (defined in :mod:`ssfmlab.harness`) is consumed here purely
through its parameter attributes.  All seeds of a scenario are propagated
together as the rows of one 2-D field array, which keeps long sweeps cheap.
Rows evolve independently, but a per-seed result matches a one-row run bit
for bit only while the batch stays below 256 KiB: from that size on, numpy
elides the temporary Kerr factor array and multiplies with the operands
swapped, and its fused complex multiply is not bitwise commutative (seen
with numpy 2.4 on x86-64 Linux).
Shorter spans are read off the run to the farthest one, of which they are
prefixes.  Rows that diverge to non-finite values are reported as
NSD = +inf instead of aborting the run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from . import engine
from .metrics import nsd
from .signals import SamplingGrid, Waveform, gen_symbols, make_grid, shape_pulse

if TYPE_CHECKING:  # pragma: no cover
    from .harness import Scenario

__all__ = ["candidate_grid", "benchmark_grid", "shaped_fields", "benchmark_fields", "fraction_nsds"]


def candidate_grid(scenario: "Scenario") -> SamplingGrid:
    return make_grid(scenario.n_symbols, scenario.candidate_spp, scenario.launch.symbol_time)


def benchmark_grid(scenario: "Scenario") -> SamplingGrid:
    return make_grid(scenario.n_symbols, scenario.benchmark_spp, scenario.launch.symbol_time)


def _shaped_batch(scenario: "Scenario", grid: SamplingGrid) -> np.ndarray:
    rows = [
        shape_pulse(gen_symbols(seed, scenario.n_symbols), grid, scenario.launch).samples
        for seed in scenario.seeds
    ]
    return np.array(rows)


def shaped_fields(scenario: "Scenario") -> np.ndarray:
    """Candidate-grid launch fields, one row per seed."""
    return _shaped_batch(scenario, candidate_grid(scenario))


def _snapshots(
    scenario: "Scenario",
    fields: np.ndarray,
    grid: SamplingGrid,
    dz_km: float,
    fraction: float,
    spans: Sequence[float],
) -> Iterator[np.ndarray]:
    """Run ``fields`` with step ``dz_km`` and yield them at each of ``spans``."""
    cfg = engine.SsfmConfig.from_step(scenario.fiber.span_km, dz_km, filter_fraction=fraction)
    h = engine.linear_multiplier(grid, scenario.fiber, cfg).values
    stops = [engine.SsfmConfig.from_step(span, dz_km).n_seg for span in spans]
    return engine.run_segments(fields, h, scenario.fiber.gamma * dz_km, stops)


def benchmark_fields(scenario: "Scenario", spans: Sequence[float] | None = None) -> np.ndarray:
    """Benchmark outputs (fine grid, fine step, unfiltered) at each of ``spans``.

    ``spans`` are ascending distances in km, by default the scenario's span;
    all are read off one run.  The result has shape (spans, seeds, samples).
    """
    spans = (scenario.fiber.span_km,) if spans is None else spans
    grid = benchmark_grid(scenario)
    fields = _shaped_batch(scenario, grid)
    return np.array(list(_snapshots(scenario, fields, grid, scenario.benchmark_dz_km, 1.0, spans)))


def fraction_nsds(
    scenario: "Scenario",
    fraction: float,
    launch_fields: np.ndarray,
    bench_fields: np.ndarray,
    spans: Sequence[float] | None = None,
) -> np.ndarray:
    """Per-span, per-seed NSD of one filtered candidate run against cached benchmarks.

    ``launch_fields`` are candidate-grid inputs from :func:`shaped_fields`
    and ``bench_fields`` benchmark outputs from :func:`benchmark_fields` at
    the same ``spans``.  One candidate run reaches every span in turn and is
    scored there; the result has shape (spans, seeds).  Seeds whose
    candidate or benchmark run diverged yield +inf.
    """
    spans = (scenario.fiber.span_km,) if spans is None else spans
    grid_c = candidate_grid(scenario)
    grid_b = benchmark_grid(scenario)
    snapshots = _snapshots(
        scenario, launch_fields, grid_c, scenario.candidate_dz_km, fraction, spans
    )
    values = np.empty((len(spans), len(scenario.seeds)))
    for j, (span, outputs) in enumerate(zip(spans, snapshots)):
        for i, (out_row, bench_row) in enumerate(zip(outputs, bench_fields[j])):
            if not (np.all(np.isfinite(out_row)) and np.all(np.isfinite(bench_row))):
                values[j, i] = math.inf
                continue
            reference = Waveform(samples=bench_row, grid=grid_b, z_km=span)
            candidate = Waveform(samples=out_row, grid=grid_c, z_km=span)
            values[j, i] = nsd(reference, candidate).nsd
    return values
