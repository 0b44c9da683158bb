"""Seed-batched evaluation of benchmark/candidate scenario runs.

A scenario (defined in :mod:`ssfmlab.harness`) is consumed here purely
through its parameter attributes.  All seeds of a scenario are propagated
together as the rows of one 2-D field array, which keeps long sweeps cheap;
a candidate stacks the seeds of every filter fraction of its grid.  Each
run is split into contiguous row blocks of at most
:data:`engine.BLOCK_BYTES`, in whole rounds of one pool of at most one
worker thread per CPU; a candidate block builds the filtered responses of
its own rows.  Every block passes the byte size of its logical batch (all
seeds of one benchmark or one fraction) to :func:`engine.run_segments`,
which pins the Kerr multiply order by it, so a row's bits do not depend on
how the rows are blocked or on the thread count.
Shorter spans are read off the run to the farthest one, of which they are
prefixes.  Rows that diverge to non-finite values are reported as
NSD = +inf instead of aborting the run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import engine
from .metrics import nsd
from .signals import SamplingGrid, Waveform, gen_symbols, shape_pulse

if TYPE_CHECKING:  # pragma: no cover
    from .harness import Scenario

__all__ = ["shaped_fields", "benchmark_fields", "fraction_nsds"]


def _shaped_batch(scenario: "Scenario", grid: SamplingGrid) -> np.ndarray:
    rows = [
        shape_pulse(gen_symbols(seed, scenario.n_symbols), grid, scenario.launch).samples
        for seed in scenario.seeds
    ]
    return np.array(rows)


def shaped_fields(scenario: "Scenario") -> np.ndarray:
    """Candidate-grid launch fields, one row per seed."""
    return _shaped_batch(scenario, scenario.candidate_grid)


def _run_blocks(task: Callable[[range], None], rows: int, row_bytes: int, threads: int) -> None:
    """Call ``task`` on contiguous row ranges, on one pool of worker threads.

    The pool has ``threads`` workers (0 = one per CPU), but at most one per
    CPU and one per row.  The ranges hold at most :data:`engine.BLOCK_BYTES`
    (a single row may hold more), and their count is the fewest whole rounds
    of the pool, capped at one range per row.
    """
    cpus = os.cpu_count() or 1
    workers = min(threads or cpus, cpus, rows)
    per_block = max(1, engine.BLOCK_BYTES // row_bytes)
    count = min(rows, workers * math.ceil(rows / (per_block * workers)))
    bounds = [rows * i // count for i in range(count + 1)]
    blocks = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(task, blocks))  # re-raises a block's exception


def _stops(dz_km: float, spans: Sequence[float]) -> list[int]:
    return [engine.SsfmConfig.from_step(span, dz_km).n_seg for span in spans]


def _response(scenario: "Scenario", grid: SamplingGrid, dz_km: float, fraction: float) -> np.ndarray:
    cfg = engine.SsfmConfig.from_step(scenario.fiber.span_km, dz_km, filter_fraction=fraction)
    return engine.linear_multiplier(grid, scenario.fiber, cfg)


def benchmark_fields(
    scenario: "Scenario", spans: Sequence[float] | None = None, threads: int = 0
) -> np.ndarray:
    """Benchmark outputs (fine grid, fine step, unfiltered) at each of ``spans``.

    ``spans`` are ascending distances in km, by default the scenario's span;
    all are read off one run, split into seed blocks on ``threads`` workers.
    The result has shape (spans, seeds, samples).
    """
    spans = (scenario.fiber.span_km,) if spans is None else spans
    grid = scenario.benchmark_grid
    fields = _shaped_batch(scenario, grid)
    h = _response(scenario, grid, scenario.benchmark_dz_km, 1.0)
    gamma_dz = scenario.fiber.gamma * scenario.benchmark_dz_km
    stops = _stops(scenario.benchmark_dz_km, spans)
    out = np.empty((len(stops),) + fields.shape, dtype=np.complex128)

    def run(block: range) -> None:
        rows = slice(block.start, block.stop)
        snapshots = engine.run_segments(fields[rows], h, gamma_dz, stops, fields.nbytes)
        for j, snapshot in enumerate(snapshots):
            out[j, rows] = snapshot

    _run_blocks(run, len(fields), fields[0].nbytes, threads)
    return out


def fraction_nsds(
    scenario: "Scenario",
    fractions: Sequence[float],
    launch_fields: np.ndarray,
    bench_fields: np.ndarray,
    spans: Sequence[float] | None = None,
    threads: int = 0,
) -> np.ndarray:
    """Per-span, per-fraction, per-seed NSD of filtered candidate runs against cached benchmarks.

    ``launch_fields`` are candidate-grid inputs from :func:`shaped_fields`
    and ``bench_fields`` benchmark outputs from :func:`benchmark_fields` at
    the same ``spans``.  Every (fraction, seed) pair is one row of a single
    run, fraction-major, split into row blocks on ``threads`` workers; each
    block reaches every span in turn and is scored there.  The result has
    shape (spans, fractions, seeds).  Rows whose candidate or benchmark run
    diverged yield +inf.
    """
    spans = (scenario.fiber.span_km,) if spans is None else spans
    grid_c = scenario.candidate_grid
    grid_b = scenario.benchmark_grid
    dz_km = scenario.candidate_dz_km
    gamma_dz = scenario.fiber.gamma * dz_km
    stops = _stops(dz_km, spans)
    n_seeds = len(launch_fields)
    values = np.empty((len(spans), len(fractions) * n_seeds))

    def run(block: range) -> None:
        which, seeds = np.divmod(np.arange(block.start, block.stop), n_seeds)
        h = np.array([_response(scenario, grid_c, dz_km, fractions[k]) for k in which])
        # Each fraction's run of all seeds is the logical batch its bits follow.
        snapshots = engine.run_segments(
            launch_fields[seeds], h, gamma_dz, stops, launch_fields.nbytes
        )
        for j, (span, outputs) in enumerate(zip(spans, snapshots)):
            for row, seed, out_row in zip(block, seeds, outputs):
                bench_row = bench_fields[j, seed]
                if not (np.all(np.isfinite(out_row)) and np.all(np.isfinite(bench_row))):
                    values[j, row] = math.inf
                    continue
                reference = Waveform(samples=bench_row, grid=grid_b, z_km=span)
                candidate = Waveform(samples=out_row, grid=grid_c, z_km=span)
                values[j, row] = nsd(reference, candidate)

    _run_blocks(run, len(fractions) * n_seeds, launch_fields[0].nbytes, threads)
    return values.reshape(len(spans), len(fractions), n_seeds)
