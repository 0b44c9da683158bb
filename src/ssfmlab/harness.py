"""Experiment harness: scenario files, axis sweeps, presets and CSV output.

A scenario bundles one channel/transmitter configuration with a coarse
candidate discretization and the fine benchmark discretization it is judged
against.  Scenario files are flat ``key = value`` text (``#`` starts a
comment).  Interface units are ps, km, dBm and GHz; internally everything
runs in ps/km/W.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import bandwidth, runner
from .engine import BENCHMARK_DZ_KM, BENCHMARK_SPP, FiberParams, SsfmConfig, propagate
from .signals import LaunchSpec, SamplingGrid, Waveform, gen_symbols, make_grid, shape_pulse

__all__ = [
    "AXES",
    "PRESETS",
    "Scenario",
    "ScenarioError",
    "SweepResult",
    "SweepJob",
    "load_scenario",
    "parse_scenario",
    "seed_run",
    "sweep",
    "emit_csv",
    "write_trace_csv",
    "preset_jobs",
    "reproduce_fig2",
]

_AXIS_COLUMNS = {
    "distance": "distance_km",
    "power": "power_dbm",
    "dt": "dt_over_ts_percent",
    "bandwidth": "filter_fraction",
}
AXES = tuple(_AXIS_COLUMNS)

OPTIMIZE = "optimize"


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input."""


def _physical_bytes() -> float:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf here: no bound
        return math.inf


def parse_fraction_spec(text: str) -> tuple[float, ...]:
    """Fraction grids are ``start:step:stop`` ranges or comma lists."""
    text = text.strip()
    try:
        if ":" not in text:
            return tuple(float(p) for p in text.split(",") if p.strip())
        start, step, stop = (float(p) for p in text.split(":"))
        span = (stop - start) / step
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"cannot parse fraction grid {text!r}") from exc
    if not (math.isfinite(span) and span >= 0.0):
        raise ScenarioError(f"range {text!r} does not lead from start to stop")
    count = round(span) + 1
    if count * 64 > _physical_bytes():  # 32 B a fraction in the tuple, 32 B in its NSD value
        raise ScenarioError(f"out of memory: range {text!r} holds {count:.3g} fractions")
    grid = tuple(round(start + i * step, 12) for i in range(count))
    if not math.isclose(grid[-1], stop, rel_tol=1e-9):
        raise ScenarioError(f"step does not divide the range in {text!r}")
    return grid


def _validate_fractions(fractions: Sequence[float]) -> None:
    fractions = tuple(float(f) for f in fractions)
    if not fractions:
        raise ValueError("fraction grid is empty")
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"filter fraction {f} outside (0, 1]")
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise ValueError("fraction grid must be strictly ascending")
    if fractions[-1] != 1.0:
        raise ValueError("fraction grid must contain 1.0")


def _check_memory(scenario: Scenario, copies: int) -> None:
    """Refuse a run holding ``copies`` benchmark batches (the launch rows, the
    run's buffers, one snapshot per span) beyond physical memory."""
    seeds = scenario.seeds
    # len() cannot count a lazy range beyond sys.maxsize; the range's index can
    n_seeds = seeds.index(seeds[-1]) + 1 if isinstance(seeds, range) else len(seeds)
    n_symbols, spp = scenario.n_symbols, scenario.benchmark_spp
    need = n_seeds * n_symbols * spp * 16 * copies
    limit = _physical_bytes()
    if need > limit:
        raise ScenarioError(
            f"out of memory: {n_seeds} seeds of {n_symbols} symbols at {spp} samples per "
            f"symbol need about {need / 2**30:.3g} GiB, more than the "
            f"{limit / 2**30:.3g} GiB of physical memory"
        )


@dataclass(frozen=True)
class Scenario:
    """One candidate run plus the benchmark it is compared against.

    ``seeds`` may be given as any sequence (a ``range`` stays lazy until the
    memory bound below has passed) and is stored as a tuple.  The candidate
    and benchmark sampling grids are derived once, on construction, and both
    steps must cut the span into whole segments.
    """

    fiber: FiberParams
    launch: LaunchSpec
    candidate_spp: int
    candidate_dz_km: float
    filter_fraction: float | str = OPTIMIZE
    n_symbols: int = 256
    seeds: tuple[int, ...] = tuple(range(20))
    benchmark_spp: int = BENCHMARK_SPP
    benchmark_dz_km: float = BENCHMARK_DZ_KM
    optimize_fractions: tuple[float, ...] = parse_fraction_spec("0.5:0.01:1.0")
    candidate_grid: SamplingGrid = field(init=False, repr=False, compare=False)
    benchmark_grid: SamplingGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ScenarioError("seed list is empty")
        if isinstance(self.filter_fraction, str) and self.filter_fraction != OPTIMIZE:
            raise ScenarioError(
                f"filter_fraction must be a number in (0, 1] or '{OPTIMIZE}', "
                f"got {self.filter_fraction!r}"
            )
        if self.candidate_spp > self.benchmark_spp:
            raise ScenarioError(
                f"candidate_spp {self.candidate_spp} exceeds benchmark_spp {self.benchmark_spp}"
            )
        if self.candidate_dz_km < self.benchmark_dz_km:
            raise ScenarioError(
                f"candidate_dz_km {self.candidate_dz_km} is finer than "
                f"benchmark_dz_km {self.benchmark_dz_km}"
            )
        try:  # refuse malformed grids and steps before any command propagates
            for grid in (self.optimize_fractions, _point_grid(self)):
                _validate_fractions(grid)
            for dz_km in (self.candidate_dz_km, self.benchmark_dz_km):
                SsfmConfig.from_step(self.fiber.span_km, dz_km)
            n, symbol_time = self.n_symbols, self.launch.symbol_time
            object.__setattr__(self, "candidate_grid", make_grid(n, self.candidate_spp, symbol_time))
            object.__setattr__(self, "benchmark_grid", make_grid(n, self.benchmark_spp, symbol_time))
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        # the bound reads n_symbols and benchmark_spp, which make_grid has checked
        _check_memory(self, copies=3)
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if min(self.seeds) < 0:
            raise ScenarioError(f"seeds must be non-negative, got {min(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ScenarioError("seed list contains duplicates")


@dataclass(frozen=True)
class SweepResult:
    """Seed-averaged NSD along one experiment axis, with and without filtering."""

    axis_name: str
    axis_values: tuple[float, ...]
    nsd_without_lpf: tuple[float, ...]
    nsd_with_lpf: tuple[float, ...]
    chosen_fractions: tuple[float, ...]


# --------------------------------------------------------------------------
# scenario files


def parse_seed_spec(text: str) -> Sequence[int]:
    """A bare integer means that many seeds (0..n-1), kept as a lazy ``range``
    that :class:`Scenario` bounds before it is expanded; a comma list is literal."""
    text = text.strip()
    try:
        if "," in text:
            return tuple(int(part) for part in text.split(",") if part.strip())
        return range(int(text))
    except ValueError as exc:
        raise ScenarioError(f"cannot parse seed spec {text!r}") from exc


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None


def _integer(text: str) -> int:
    value = _number(text)
    if not math.isfinite(value) or value != int(value):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(value)


# Each scenario-file key, the Scenario attribute it sets and the parser of its
# value.  The first four keys are required; an attribute whose key a file
# leaves out keeps its dataclass default.
_KEYS = {
    "span_km": ("fiber.span_km", _number),
    "power_dbm": ("launch.power_dbm", _number),
    "candidate_spp": ("candidate_spp", _integer),
    "candidate_dz_km": ("candidate_dz_km", _number),
    "beta2_ps2_per_km": ("fiber.beta2", _number),
    "gamma_per_w_km": ("fiber.gamma", _number),
    "alpha_per_km": ("fiber.alpha", _number),
    "rolloff": ("launch.rolloff", _number),
    "baud_gbaud": ("launch.baud_rate", lambda text: _number(text) * 1e9),
    "n_symbols": ("n_symbols", _integer),
    "seeds": ("seeds", parse_seed_spec),
    "filter_fraction": ("filter_fraction", lambda text: text if text == OPTIMIZE else _number(text)),
    "benchmark_spp": ("benchmark_spp", _integer),
    "benchmark_dz_km": ("benchmark_dz_km", _number),
    "optimize_fractions": ("optimize_fractions", parse_fraction_spec),
}
_REQUIRED_KEYS = tuple(_KEYS)[:4]


def parse_scenario(text: str) -> Scenario:
    """Parse flat ``key = value`` scenario text."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _KEYS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ScenarioError(f"missing required key {key!r}")
    given: dict[str, dict[str, object]] = {"fiber": {}, "launch": {}, "": {}}
    for key, value in entries.items():
        attribute, parse = _KEYS[key]
        owner, _, name = attribute.rpartition(".")
        try:
            given[owner][name] = parse(value)
        except ValueError as exc:
            raise ScenarioError(f"key {key!r}: {exc}") from exc
    try:
        fiber, launch = FiberParams(**given["fiber"]), LaunchSpec(**given["launch"])
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return Scenario(fiber=fiber, launch=launch, **given[""])


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text)


# --------------------------------------------------------------------------
# running scenarios


def _point_grid(scenario: Scenario) -> tuple[float, ...]:
    """The fractions one point evaluates: the optimize grid, or its pinned fraction and 1.0."""
    if scenario.filter_fraction != OPTIMIZE:
        return tuple(sorted({float(scenario.filter_fraction), 1.0}))
    return scenario.optimize_fractions


def seed_run(scenario: Scenario, seed: int, fraction: float) -> Waveform:
    """One seed launched on the candidate grid and propagated over the span at ``fraction``."""
    wave = shape_pulse(gen_symbols(seed, scenario.n_symbols), scenario.candidate_grid, scenario.launch)
    cfg = SsfmConfig.from_step(scenario.fiber.span_km, scenario.candidate_dz_km, fraction)
    return propagate(wave, scenario.fiber, cfg)


def _select_best(fractions: Sequence[float], values: Sequence[float]) -> tuple[float, float]:
    """Smallest NSD wins; ties go to the largest fraction."""
    best = min(values)
    tied = [fraction for fraction, value in zip(fractions, values) if value == best]
    return max(tied), best


def _row(
    point: Scenario, grid: tuple[float, ...], curve: tuple[float, ...]
) -> tuple[float, float, float]:
    """One sweep CSV row off the point's NSD ``curve`` over ``grid``: (NSD without filter,
    NSD at the chosen fraction, that fraction), the best one if optimizing, else the pinned one."""
    pinned = point.filter_fraction
    fraction = _select_best(grid, curve)[0] if pinned == OPTIMIZE else float(pinned)
    return curve[grid.index(1.0)], curve[grid.index(fraction)], fraction


def _substitute(base: Scenario, axis: str, value: float) -> Scenario:
    if axis == "distance":
        return dataclasses.replace(base, fiber=dataclasses.replace(base.fiber, span_km=value))
    if axis == "power":
        return dataclasses.replace(base, launch=dataclasses.replace(base.launch, power_dbm=value))
    if axis == "bandwidth":
        return dataclasses.replace(base, filter_fraction=value)
    if not math.isfinite(value) or value != int(value):  # the dt axis; no other reaches here
        raise ScenarioError(f"dt axis values are samples per symbol, got {value}")
    return dataclasses.replace(base, candidate_spp=int(value))


def sweep(axis: str, base: Scenario, values: Sequence[float], threads: int = 0) -> SweepResult:
    """Sweep one axis of a scenario and collect filtered/unfiltered NSD.

    Axis values are km for ``distance``, dBm for ``power``, integer samples
    per symbol for ``dt`` and filter fractions for ``bandwidth``, where each
    value pins the point's fraction.  Segment counts are recomputed per
    point from the fixed step sizes, and every point is checked before
    anything is propagated.  Points that differ only in span and filter
    fraction are read off one propagation of the union of their fractions
    to the farthest span (every ``bandwidth`` point, say), and points whose
    benchmark inputs agree (every ``dt`` point) share one benchmark run.
    """
    if axis not in AXES:
        raise ScenarioError(f"unknown sweep axis {axis!r}; expected one of {AXES}")
    if len(values) == 0:
        raise ScenarioError(f"no values to sweep on axis {axis!r}")
    points = [_substitute(base, axis, float(v)) for v in values]
    axis_values = tuple(100.0 / float(v) if axis == "dt" else float(v) for v in values)
    return _sweep_points(_AXIS_COLUMNS[axis], axis_values, points, threads)[0]


def _sweep_points(
    column: str, axis_values: tuple[float, ...], points: Sequence[Scenario], threads: int
) -> tuple[SweepResult, np.ndarray]:
    """Evaluate sweep points, each a row that :func:`_row` reads off its span's NSD
    curve over its group's fraction grid; also return the last benchmark run."""
    # Points that differ only in span and filter fraction share one run of
    # the union of their fraction grids to the farthest span of the sweep,
    # which keys their group.  No axis changes a step, so every point is
    # whole steps at that span too.
    far_km = max(point.fiber.span_km for point in points)
    runs = [
        dataclasses.replace(
            point, fiber=dataclasses.replace(point.fiber, span_km=far_km), filter_fraction=OPTIMIZE
        )
        for point in points
    ]
    groups: dict[Scenario, tuple[set[float], set[float]]] = {}
    for run, point in zip(runs, points):
        span_set, grid = groups.setdefault(run, (set(), set()))
        span_set.add(point.fiber.span_km)
        grid.update(_point_grid(point))
    for run, (span_set, _) in groups.items():  # one snapshot per span, plus 2
        _check_memory(run, copies=len(span_set) + 2)
    # The benchmark depends on no candidate setting, so consecutive groups
    # whose runs agree on the rest share one benchmark run.  In one sweep
    # either every group agrees (dt, fig2) or none does (power), so holding
    # only the last benchmark loses no reuse.
    key, bench_fields = None, None
    curves: dict[tuple[Scenario, float], tuple[tuple[float, ...], tuple[float, ...]]] = {}
    for run, (span_set, grid_set) in groups.items():
        spans, grid = tuple(sorted(span_set)), tuple(sorted(grid_set))
        run_key = (run.fiber, run.launch, run.n_symbols, run.seeds, run.benchmark_spp,
                   run.benchmark_dz_km, spans)
        if run_key != key:
            bench_fields = None  # drop the last benchmark before running the next
            key, bench_fields = run_key, runner.benchmark_fields(run, spans, threads)
        launch_fields = runner.shaped_fields(run)
        at_spans = bandwidth.sweep_bandwidth(run, grid, launch_fields, bench_fields, threads, spans)
        for span, curve in zip(spans, at_spans):
            curves[run, span] = grid, curve
    rows = (_row(point, *curves[run, point.fiber.span_km]) for run, point in zip(runs, points))
    without, with_lpf, chosen = zip(*rows)
    return SweepResult(column, axis_values, without, with_lpf, chosen), bench_fields


# --------------------------------------------------------------------------
# CSV output


def _fmt(value: float) -> str:
    return format(value, ".12e")


def _fmt_axis(value: float) -> str:
    return format(value, ".12g")


def _write_csv(path: str, header: str, rows: Iterable[Iterable[str]]) -> None:
    """Write one header line and one comma-joined line per row, LF-terminated."""
    lines = [header] + [",".join(row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_csv(result: SweepResult, path: str) -> None:
    """Write a sweep as CSV: one header line, one row per axis value."""
    rows = zip(
        result.axis_values,
        result.nsd_without_lpf,
        result.nsd_with_lpf,
        result.chosen_fractions,
    )
    cells = [
        (_fmt_axis(value), _fmt(without), _fmt(with_lpf), _fmt_axis(fraction))
        for value, without, with_lpf, fraction in rows
    ]
    _write_csv(path, f"{result.axis_name},nsd_without_lpf,nsd_with_lpf,chosen_fraction", cells)


def write_trace_csv(wave: Waveform, path: str) -> None:
    """Write a waveform as CSV columns (t_ps, re, im)."""
    rows = zip(wave.grid.times(), wave.samples)
    cells = [(_fmt_axis(t), _fmt(sample.real), _fmt(sample.imag)) for t, sample in rows]
    _write_csv(path, "t_ps,re,im", cells)


# --------------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class SweepJob:
    """One named sweep: a base scenario, an axis and the values to visit."""

    label: str
    axis: str
    values: tuple[float, ...]
    base: Scenario


def _preset_scenario(
    spp: int, power_dbm: float, desk_scale: bool, desk_seeds: int, span_km: float, dz_km: float
) -> Scenario:
    """An optimizing preset scenario at full scale (256 symbols, 20 seeds, 0.01
    fraction grid) or desk scale (64 symbols, ``desk_seeds`` seeds, 0.05 grid)."""
    n_symbols, n_seeds, step = (64, desk_seeds, "0.05") if desk_scale else (256, 20, "0.01")
    return Scenario(
        fiber=FiberParams(span_km=span_km),
        launch=LaunchSpec(power_dbm=power_dbm),
        candidate_spp=spp,
        candidate_dz_km=dz_km,
        n_symbols=n_symbols,
        seeds=range(n_seeds),
        optimize_fractions=parse_fraction_spec(f"0.5:{step}:1.0"),
    )


# name: axis, desk seed count, span and step in km, then per scale (full, desk)
# the (spp, dBm) curve of each job and the axis values (None: the job's
# fraction grid)
_PRESET_TABLE = {
    "fig2": ("dt", 6, 600.0, 1.5, ((30, 9.6),), ((30, 9.6),),
             (30.0, 10.0, 8.0, 6.0, 4.0), (30.0, 10.0, 8.0, 6.0, 4.0)),
    "fig3a": ("distance", 10, 1000.0, 0.1, ((16, 10.0),), ((16, 10.0),),
              tuple(float(z) for z in range(100, 1001, 100)), (200.0, 600.0, 1000.0)),
    "fig3b": ("power", 6, 1000.0, 0.1, ((8, 6.0),), ((8, 6.0),),
              tuple(round(5.4 + 0.3 * i, 12) for i in range(9)), (5.4, 6.6, 7.8)),
    "fig3c": ("dt", 10, 1000.0, 0.1, ((16, 10.0),), ((16, 10.0),),
              (21.0, 20.0, 18.0, 16.0, 15.0, 14.0), (20.0, 16.0, 14.0)),
    "fig3d": ("bandwidth", 10, 1000.0, 0.1, ((16, 10.0), (17, 10.0), (8, 6.3), (7, 6.3)),
              ((16, 10.0), (8, 6.3)), None, None),
}
PRESETS = tuple(_PRESET_TABLE)


def preset_jobs(name: str, desk_scale: bool = False) -> list[SweepJob]:
    """Sweep jobs for the named preset (``fig2`` runs its job with :func:`reproduce_fig2`)."""
    if name not in _PRESET_TABLE:
        raise ScenarioError(f"unknown preset {name!r}; expected one of {PRESETS}")
    axis, desk_seeds, span_km, dz_km, curves, desk_curves, values, desk_values = _PRESET_TABLE[name]
    if desk_scale:
        curves, values = desk_curves, desk_values
    jobs = []
    for spp, power_dbm in curves:
        base = _preset_scenario(spp, power_dbm, desk_scale, desk_seeds, span_km, dz_km)
        label = name if len(curves) == 1 else f"{name}_spp{spp}_{power_dbm}dbm"
        jobs.append(SweepJob(label, axis, values or base.optimize_fractions, base))
    return jobs


def reproduce_fig2(job: SweepJob, threads: int = 0) -> tuple[SweepResult, dict[str, Waveform]]:
    """Time-discretization study: the ``fig2`` job run at each of its samples per symbol.

    Returns the per-spp NSD summary (unfiltered vs bandwidth-optimized) and
    first-seed output traces: the benchmark plus an unfiltered and a filtered
    trace per spp value.  The 30-spp traces sit at the benchmark's time
    resolution but not at its step, so their gap to the benchmark is the
    1.5 km split error, the floor the coarser rows are measured against.
    """
    points = [_substitute(job.base, job.axis, v) for v in job.values]
    summary, bench_fields = _sweep_points("samples_per_symbol", job.values, points, threads)
    span_km = job.base.fiber.span_km
    bench_grid = job.base.benchmark_grid
    traces = {"benchmark": Waveform(samples=bench_fields[0, 0], grid=bench_grid, z_km=span_km)}
    for point, chosen in zip(points, summary.chosen_fractions):
        for suffix, fraction in (("unfiltered", 1.0), ("filtered", chosen)):
            traces[f"spp{point.candidate_spp}_{suffix}"] = seed_run(point, point.seeds[0], fraction)
    return summary, traces
