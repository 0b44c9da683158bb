"""Benchmark workloads: generated scenarios, the command line and the output gate.

Each workload is one ``ssfmlab`` command.  Its inputs come from the workload
seed only: seed ``n`` selects the symbol seeds ``6n .. 6n+5``, and everything
else about the scenario is fixed, so the amount of work never depends on the
seed.  Seed 0 gives symbol seeds 0..5, the set ``reproduce fig2
--desk-scale`` uses by default.

The output gate compares every output file byte for byte, through its
SHA-256, with the output of the commit that defined the benchmark, for each
workload seed recorded in ``golden.json``; for every seed it also checks
invariants that any correct program must meet.

Why these three workloads:

* ``distance_sweep`` is dominated by the threaded fraction grid (about 80%
  of serial time), so the engine kernel and the bandwidth thread pool carry
  it.  Its axis points are prefixes of one 300 km run, so distance
  checkpointing would save work here; its benchmark runs are all distinct,
  so a benchmark memo has nothing to reuse.
* ``dt_sweep`` spends about half its time recomputing the same 30 samples
  per symbol benchmark at every point, so a benchmark memo would save work
  here; all points share one span, so distance checkpointing has nothing to
  reuse.
* ``fig2_traces`` runs coarse steps on small arrays, so per-segment Python
  overhead weighs more than FFT throughput; it also exercises the 1-D
  ``propagate`` path, NSD resampling and trace CSV output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

SEEDS_PER_RUN = 6
N_SYMBOLS = 64
BENCHMARK_SPP = 30
BENCHMARK_DZ_KM = 0.1


def frange(start: float, step: float, stop: float) -> tuple[float, ...]:
    """Inclusive ``start:step:stop`` grid, rounded like the scenario parser."""
    count = round((stop - start) / step)
    return tuple(round(start + i * step, 12) for i in range(count + 1))


def symbol_seeds(seed: int) -> tuple[int, ...]:
    return tuple(SEEDS_PER_RUN * seed + i for i in range(SEEDS_PER_RUN))


def scenario_text(
    seed: int, span_km: float, power_dbm: float, spp: int, dz_km: float, fractions: str
) -> str:
    return (
        f"span_km = {span_km:g}\n"
        f"power_dbm = {power_dbm:g}\n"
        f"candidate_spp = {spp}\n"
        f"candidate_dz_km = {dz_km:g}\n"
        f"n_symbols = {N_SYMBOLS}\n"
        f"seeds = {','.join(str(s) for s in symbol_seeds(seed))}\n"
        f"filter_fraction = optimize\n"
        f"optimize_fractions = {fractions}\n"
        f"benchmark_spp = {BENCHMARK_SPP}\n"
        f"benchmark_dz_km = {BENCHMARK_DZ_KM:g}\n"
    )


@dataclass(frozen=True)
class Workload:
    """One ``ssfmlab`` command with the figures needed to check and size it.

    ``points`` lists, per axis point, the span in km, the candidate samples
    per symbol and the candidate step; ``fraction_grid`` is the filter grid
    searched at each point.  ``shared_benchmark`` marks a command that
    propagates one benchmark for all points, and ``traces`` the number of
    extra 1-D candidate runs per point.
    """

    name: str
    axis: str | None
    points: tuple[tuple[float, int, float], ...]
    fraction_grid: tuple[float, ...]
    power_dbm: float
    shared_benchmark: bool = False
    traces: int = 0

    @property
    def axis_values(self) -> tuple[float, ...]:
        """Span in km per point on the distance axis, samples per symbol otherwise."""
        if self.axis == "distance":
            return tuple(span_km for span_km, _, _ in self.points)
        return tuple(float(spp) for _, spp, _ in self.points)

    def scenario(self, seed: int, span_km: float | None = None) -> str:
        """Scenario of the first point, sweeps vary one axis from it; ``span_km`` overrides."""
        first_span_km, spp, dz_km = self.points[0]
        span_km = first_span_km if span_km is None else span_km
        step = round(self.fraction_grid[1] - self.fraction_grid[0], 12)
        grid = f"{self.fraction_grid[0]:g}:{step:g}:{self.fraction_grid[-1]:g}"
        return scenario_text(seed, span_km, self.power_dbm, spp, dz_km, grid)

    def argv(self, seed: int, scenario_path: str, out_dir: str) -> list[str]:
        """``ssfmlab`` arguments for one run, writing into ``out_dir``."""
        if self.axis is None:
            seeds = ",".join(str(s) for s in symbol_seeds(seed))
            return ["reproduce", "fig2", "--desk-scale", "--seeds", seeds,
                    "--threads", "2", "--out", os.path.join(out_dir, "fig2")]
        values = ",".join(f"{v:g}" for v in self.axis_values)
        return ["sweep", "--config", scenario_path, "--axis", self.axis, "--values", values,
                "--threads", "2", "--out", os.path.join(out_dir, f"sweep_{self.axis}.csv")]

    def output_files(self) -> dict[str, int]:
        """Output file name -> expected data rows."""
        if self.axis is not None:
            return {f"sweep_{self.axis}.csv": len(self.axis_values)}
        files = {"fig2_summary.csv": len(self.points),
                 "fig2_trace_benchmark.csv": N_SYMBOLS * BENCHMARK_SPP}
        for _, spp, _ in self.points:
            for kind in ("unfiltered", "filtered"):
                files[f"fig2_trace_spp{spp}_{kind}.csv"] = N_SYMBOLS * spp
        return files

    def nominal_sample_segments(self) -> int:
        """Sample-segments the command implies under the seed algorithm.

        Per point: one unfiltered benchmark run (unless shared), one batched
        candidate run per filter fraction, and ``traces`` single-seed runs.
        Every run covers ``seeds x samples x segments``.
        """
        total = 0
        for i, (span_km, spp, dz_km) in enumerate(self.points):
            if i == 0 or not self.shared_benchmark:
                total += (SEEDS_PER_RUN * N_SYMBOLS * BENCHMARK_SPP
                          * round(span_km / BENCHMARK_DZ_KM))
            candidate = N_SYMBOLS * spp * round(span_km / dz_km)
            total += len(self.fraction_grid) * SEEDS_PER_RUN * candidate
            total += self.traces * candidate
        return total


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="distance_sweep",
            axis="distance",
            points=tuple((z, 16, 0.1) for z in (100.0, 200.0, 300.0)),
            fraction_grid=frange(0.5, 0.05, 1.0),
            power_dbm=10.0,
        ),
        Workload(
            name="dt_sweep",
            axis="dt",
            points=tuple((300.0, spp, 0.1) for spp in (20, 16, 12, 8)),
            fraction_grid=frange(0.6, 0.1, 1.0),
            power_dbm=10.0,
        ),
        Workload(
            name="fig2_traces",
            axis=None,
            points=tuple((600.0, spp, 1.5) for spp in (30, 10, 8, 6, 4)),
            fraction_grid=frange(0.5, 0.05, 1.0),
            power_dbm=9.6,
            shared_benchmark=True,
            traces=2,
        ),
    )
}


# --------------------------------------------------------------------------
# output gate


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _rows(path: str, header: list[str]) -> list[list[float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != header:
            raise ValueError(f"{os.path.basename(path)}: unexpected header")
        return [[float(x) for x in row] for row in reader]


def _axis_column(workload: Workload) -> tuple[str, tuple[float, ...]]:
    if workload.axis == "distance":
        return "distance_km", workload.axis_values
    if workload.axis == "dt":
        return "dt_over_ts_percent", tuple(100.0 / v for v in workload.axis_values)
    return "samples_per_symbol", workload.axis_values


def check_invariants(workload: Workload, out_dir: str) -> None:
    """Raise ValueError unless the outputs are well formed and consistent.

    Every NSD is finite, filtering never loses to the unfiltered run, each
    chosen fraction lies on the grid, and every file has the expected rows.
    """
    column, expected_axis = _axis_column(workload)
    for name, n_rows in workload.output_files().items():
        path = os.path.join(out_dir, name)
        if "_trace_" in name:
            rows = _rows(path, ["t_ps", "re", "im"])
            if not all(math.isfinite(x) for row in rows for x in row):
                raise ValueError(f"{name}: non-finite sample")
        else:
            rows = _rows(path, [column, "nsd_without_lpf", "nsd_with_lpf", "chosen_fraction"])
            for (axis, without, with_lpf, chosen), expected in zip(rows, expected_axis):
                if not math.isclose(axis, expected, rel_tol=1e-9):
                    raise ValueError(f"{name}: axis value {axis} != {expected}")
                if not (math.isfinite(without) and math.isfinite(with_lpf)):
                    raise ValueError(f"{name}: non-finite NSD at {axis}")
                if with_lpf > without:
                    raise ValueError(f"{name}: filtered NSD exceeds unfiltered at {axis}")
                if not any(math.isclose(chosen, f, rel_tol=1e-9) for f in workload.fraction_grid):
                    raise ValueError(f"{name}: chosen fraction {chosen} not on the grid")
        if len(rows) != n_rows:
            raise ValueError(f"{name}: {len(rows)} rows, expected {n_rows}")


def check_outputs(workload: Workload, seed: int, out_dir: str, golden: dict) -> None:
    """Byte-exact comparison where a golden digest exists, invariants always."""
    check_invariants(workload, out_dir)
    expected = golden.get(workload.name, {}).get(str(seed))
    if expected is None:
        return
    for name, want in expected.items():
        if digest(os.path.join(out_dir, name)) != want:
            raise ValueError(f"{name}: bytes differ from the seed commit's output")


def load_golden() -> dict:
    """Workload -> seed -> output file -> SHA-256, as written by ``make_golden.py``."""
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def gate(workload: Workload, seed: int, out_dir: str, golden: dict, code: int) -> str | None:
    """None when a command passed, otherwise the reason it failed."""
    if code != 0:
        return f"exit code {code}"
    try:
        check_outputs(workload, seed, out_dir, golden)
    except (OSError, ValueError, StopIteration) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
