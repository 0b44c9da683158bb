"""Experiment harness: scenario files, axis sweeps, presets and CSV output.

A scenario bundles one channel/transmitter configuration with a coarse
candidate discretization and the fine benchmark discretization it is judged
against.  Scenario files are flat ``key = value`` text (``#`` starts a
comment).  Interface units are ps, km, dBm and GHz; internally everything
runs in ps/km/W.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bandwidth, runner
from .engine import BENCHMARK_DZ_KM, BENCHMARK_SPP, FiberParams, SsfmConfig, propagate
from .signals import LaunchSpec, Waveform, gen_symbols, shape_pulse

__all__ = [
    "AXES",
    "PRESETS",
    "Scenario",
    "ScenarioError",
    "SweepResult",
    "SweepJob",
    "load_scenario",
    "parse_scenario",
    "sweep",
    "bandwidth_table",
    "emit_csv",
    "write_trace_csv",
    "preset_jobs",
    "fig2_scenario",
    "reproduce_fig2",
]

log = logging.getLogger(__name__)

AXES = ("distance", "power", "dt", "bandwidth")
PRESETS = ("fig2", "fig3a", "fig3b", "fig3c", "fig3d")

OPTIMIZE = "optimize"


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input."""


# Live copies of the benchmark batch: the shaped launch rows, the run's
# buffers and the snapshot held for scoring.
_LIVE_COPIES = 3


def _physical_bytes() -> float:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf here: no bound
        return math.inf


@dataclass(frozen=True)
class Scenario:
    """One candidate run plus the benchmark it is compared against.

    ``seeds`` may be given as any sequence (a ``range`` stays lazy until the
    memory bound below has passed) and is stored as a tuple.
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
    optimize_fractions: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_symbols < 1:
            raise ScenarioError(f"n_symbols must be positive, got {self.n_symbols}")
        if not self.seeds:
            raise ScenarioError("seed list is empty")
        need = len(self.seeds) * self.n_symbols * self.benchmark_spp * 16 * _LIVE_COPIES
        limit = _physical_bytes()
        if need > limit:
            raise ScenarioError(
                f"out of memory: {len(self.seeds)} seeds of {self.n_symbols} symbols at "
                f"{self.benchmark_spp} samples per symbol need about {need / 2**30:.3g} GiB, "
                f"more than the {limit / 2**30:.3g} GiB of physical memory"
            )
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if len(set(self.seeds)) != len(self.seeds):
            raise ScenarioError("seed list contains duplicates")
        if self.candidate_spp > self.benchmark_spp:
            raise ScenarioError(
                f"candidate_spp {self.candidate_spp} exceeds benchmark_spp {self.benchmark_spp}"
            )
        if self.candidate_dz_km < self.benchmark_dz_km:
            raise ScenarioError(
                f"candidate_dz_km {self.candidate_dz_km} is finer than "
                f"benchmark_dz_km {self.benchmark_dz_km}"
            )
        if isinstance(self.filter_fraction, str):
            if self.filter_fraction != OPTIMIZE:
                raise ScenarioError(
                    f"filter_fraction must be a number in (0, 1] or '{OPTIMIZE}', "
                    f"got {self.filter_fraction!r}"
                )
        elif not 0.0 < self.filter_fraction <= 1.0:
            raise ScenarioError(
                f"filter_fraction must lie in (0, 1], got {self.filter_fraction}"
            )
        try:  # refuse malformed grids before any command propagates
            if self.optimize_fractions is not None:
                bandwidth._validate_fractions(self.optimize_fractions)
            runner.candidate_grid(self)
            runner.benchmark_grid(self)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc


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


_REQUIRED_KEYS = ("span_km", "power_dbm", "candidate_spp", "candidate_dz_km")
_OPTIONAL_KEYS = (
    "beta2_ps2_per_km",
    "gamma_per_w_km",
    "alpha_per_km",
    "rolloff",
    "baud_gbaud",
    "n_symbols",
    "seeds",
    "filter_fraction",
    "benchmark_spp",
    "benchmark_dz_km",
    "optimize_fractions",
)


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
    grid = tuple(round(start + i * step, 12) for i in range(round(span) + 1))
    if not math.isclose(grid[-1], stop, rel_tol=1e-9):
        raise ScenarioError(f"step does not divide the range in {text!r}")
    return grid


def parse_scenario(text: str) -> Scenario:
    """Parse flat ``key = value`` scenario text."""
    entries: dict[str, str] = {}
    known = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in known:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ScenarioError(f"missing required key {key!r}")

    def number(key: str, default: float | None = None) -> float:
        if key not in entries:
            return default  # type: ignore[return-value]
        try:
            return float(entries[key])
        except ValueError as exc:
            raise ScenarioError(f"key {key!r}: not a number: {entries[key]!r}") from exc

    def integer(key: str, default: int) -> int:
        value = number(key, float(default))
        if not math.isfinite(value) or value != int(value):
            raise ScenarioError(f"key {key!r}: expected an integer, got {entries[key]!r}")
        return int(value)

    fraction: float | str = OPTIMIZE
    if "filter_fraction" in entries:
        raw_fraction = entries["filter_fraction"]
        fraction = raw_fraction if raw_fraction == OPTIMIZE else number("filter_fraction")
    fractions = None
    if "optimize_fractions" in entries:
        fractions = parse_fraction_spec(entries["optimize_fractions"])
    seeds = parse_seed_spec(entries["seeds"]) if "seeds" in entries else range(20)
    try:
        fiber = FiberParams(
            beta2=number("beta2_ps2_per_km", -21.7),
            gamma=number("gamma_per_w_km", 1.27),
            alpha=number("alpha_per_km", 0.0),
            span_km=number("span_km"),
        )
        launch = LaunchSpec(
            power_dbm=number("power_dbm"),
            rolloff=number("rolloff", 0.1),
            baud_rate=number("baud_gbaud", 10.0) * 1e9,
        )
        return Scenario(
            fiber=fiber,
            launch=launch,
            candidate_spp=integer("candidate_spp", 0),
            candidate_dz_km=number("candidate_dz_km"),
            filter_fraction=fraction,
            n_symbols=integer("n_symbols", 256),
            seeds=seeds,
            benchmark_spp=integer("benchmark_spp", BENCHMARK_SPP),
            benchmark_dz_km=number("benchmark_dz_km", BENCHMARK_DZ_KM),
            optimize_fractions=fractions,
        )
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(str(exc)) from exc


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text)


# --------------------------------------------------------------------------
# running scenarios


def _warn_overflows(values: Sequence[float], what: str) -> None:
    n_bad = sum(1 for v in values if not math.isfinite(v))
    if n_bad:
        log.warning("%d of %d %s overflowed (reported as inf)", n_bad, len(values), what)


def _point_grid(scenario: Scenario) -> tuple[float, ...]:
    """The fractions one point evaluates: the optimize grid, or its pinned fraction and 1.0."""
    if scenario.filter_fraction != OPTIMIZE:
        return tuple(sorted({float(scenario.filter_fraction), 1.0}))
    if scenario.optimize_fractions is not None:
        return scenario.optimize_fractions
    return bandwidth.default_fractions()


def _columns(scenario: Scenario, result: bandwidth.BandwidthSweep) -> tuple[float, float, float]:
    """(NSD without filter, NSD with the chosen filter, chosen fraction) of one point."""
    if scenario.filter_fraction == OPTIMIZE:
        return result.value_at(1.0), result.best_nsd, result.best_fraction
    fraction = float(scenario.filter_fraction)
    return result.value_at(1.0), result.value_at(fraction), fraction


def _at_span(scenario: Scenario, span_km: float) -> Scenario:
    return dataclasses.replace(scenario, fiber=dataclasses.replace(scenario.fiber, span_km=span_km))


def _substitute(base: Scenario, axis: str, value: float) -> Scenario:
    if axis == "distance":
        return _at_span(base, value)
    if axis == "power":
        return dataclasses.replace(base, launch=dataclasses.replace(base.launch, power_dbm=value))
    if axis == "dt":
        if not math.isfinite(value) or value != int(value):
            raise ScenarioError(f"dt axis values are samples per symbol, got {value}")
        return dataclasses.replace(base, candidate_spp=int(value))
    raise ScenarioError(f"unknown sweep axis {axis!r}")  # pragma: no cover


_AXIS_COLUMNS = {
    "distance": "distance_km",
    "power": "power_dbm",
    "dt": "dt_over_ts_percent",
    "bandwidth": "filter_fraction",
}


def bandwidth_table(result: bandwidth.BandwidthSweep, values: Sequence[float]) -> SweepResult:
    """NSD at each of the filter fractions ``values``, next to the fraction 1.0 NSD."""
    fractions = tuple(float(v) for v in values)
    return SweepResult(
        axis_name=_AXIS_COLUMNS["bandwidth"],
        axis_values=fractions,
        nsd_without_lpf=(result.value_at(1.0),) * len(fractions),
        nsd_with_lpf=tuple(result.value_at(f) for f in fractions),
        chosen_fractions=fractions,
    )


def sweep(axis: str, base: Scenario, values: Sequence[float], threads: int = 1) -> SweepResult:
    """Sweep one axis of a scenario and collect filtered/unfiltered NSD.

    Axis values are km for ``distance``, dBm for ``power``, integer samples
    per symbol for ``dt`` and filter fractions for ``bandwidth``.  Segment
    counts are recomputed per point from the fixed step sizes, and every
    point is checked before anything is propagated.  Points that differ
    only in span are read off one propagation to the farthest of them, and
    points whose benchmark inputs agree (every ``dt`` point, say) share one
    benchmark run.  For the bandwidth axis a single benchmark set is shared
    by all points.
    """
    if axis not in AXES:
        raise ScenarioError(f"unknown sweep axis {axis!r}; expected one of {AXES}")
    column = _AXIS_COLUMNS[axis]
    if len(values) == 0:
        return SweepResult(column, (), (), (), ())

    if axis == "bandwidth":
        grid = tuple(sorted(set(float(v) for v in values) | {1.0}))
        (result,) = bandwidth.sweep_bandwidth(base, grid, threads=threads)
        _warn_overflows(result.nsd_values, "fractions")
        return bandwidth_table(result, values)

    points = [_substitute(base, axis, float(v)) for v in values]
    axis_values = tuple(100.0 / float(v) if axis == "dt" else float(v) for v in values)
    return _sweep_points(column, axis_values, points, threads)[0]


def _sweep_points(
    column: str, axis_values: tuple[float, ...], points: Sequence[Scenario], threads: int
) -> tuple[SweepResult, dict[tuple, np.ndarray]]:
    """Evaluate checked sweep points; also return the benchmark runs made, by input key."""
    for point in points:  # every span must be whole steps before anything runs
        for dz_km in (point.candidate_dz_km, point.benchmark_dz_km):
            SsfmConfig.from_step(point.fiber.span_km, dz_km)
    # Points that differ only in span share one run to the farthest of them;
    # 1 km stands in for the span in the key that groups them.
    groups: dict[Scenario, set[float]] = {}
    for point in points:
        groups.setdefault(_at_span(point, 1.0), set()).add(point.fiber.span_km)
    # The benchmark depends on no candidate setting, so groups whose runs
    # agree on the rest share one benchmark run.
    benchmarks: dict[tuple, np.ndarray] = {}
    results: dict[Scenario, bandwidth.BandwidthSweep] = {}
    for shape, span_set in groups.items():
        spans = tuple(sorted(span_set))
        run = _at_span(shape, spans[-1])
        key = (run.fiber, run.launch, run.n_symbols, run.seeds, run.benchmark_spp,
               run.benchmark_dz_km, spans)
        if key not in benchmarks:
            benchmarks[key] = runner.benchmark_fields(run, spans, threads)
        sweeps = bandwidth.sweep_bandwidth(
            run, _point_grid(run), threads=threads, bench_fields=benchmarks[key], spans=spans
        )
        for span, result in zip(spans, sweeps):
            _warn_overflows(result.nsd_values, "fractions")
            results[_at_span(shape, span)] = result
    without, with_lpf, chosen = zip(*(_columns(p, results[p]) for p in points))
    return SweepResult(column, axis_values, without, with_lpf, chosen), benchmarks


# --------------------------------------------------------------------------
# CSV output


def _fmt(value: float) -> str:
    return format(value, ".12e")


def _fmt_axis(value: float) -> str:
    return format(value, ".12g")


def emit_csv(result: SweepResult, path: str) -> None:
    """Write a sweep as CSV: one header line, one row per axis value."""
    lines = [f"{result.axis_name},nsd_without_lpf,nsd_with_lpf,chosen_fraction"]
    rows = zip(
        result.axis_values,
        result.nsd_without_lpf,
        result.nsd_with_lpf,
        result.chosen_fractions,
    )
    for value, without, with_lpf, fraction in rows:
        lines.append(f"{_fmt_axis(value)},{_fmt(without)},{_fmt(with_lpf)},{_fmt_axis(fraction)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace_csv(wave: Waveform, path: str) -> None:
    """Write a waveform as CSV columns (t_ps, re, im)."""
    lines = ["t_ps,re,im"]
    for t, sample in zip(wave.grid.times(), wave.samples):
        lines.append(f"{_fmt_axis(t)},{_fmt(sample.real)},{_fmt(sample.imag)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    spp: int,
    power_dbm: float,
    desk_scale: bool,
    desk_seeds: int,
    seeds: Sequence[int] | None,
    span_km: float = 1000.0,
    dz_km: float = 0.1,
) -> Scenario:
    """An optimizing preset scenario at full scale (256 symbols, 20 seeds, 0.01
    fraction grid) or desk scale (64 symbols, ``desk_seeds`` seeds, 0.05 grid)."""
    n_symbols, default_seeds, step = (64, desk_seeds, 0.05) if desk_scale else (256, 20, 0.01)
    return Scenario(
        fiber=FiberParams(beta2=-21.7, gamma=1.27, alpha=0.0, span_km=span_km),
        launch=LaunchSpec(power_dbm=power_dbm),
        candidate_spp=spp,
        candidate_dz_km=dz_km,
        filter_fraction=OPTIMIZE,
        n_symbols=n_symbols,
        seeds=seeds or range(default_seeds),
        optimize_fractions=bandwidth.default_fractions(step),
    )


# name: axis, desk seed count, then per scale (full, desk) the (spp, dBm) curve
# of each job and the axis values (None: the job's fraction grid)
_PRESET_TABLE = {
    "fig3a": ("distance", 10, ((16, 10.0),), ((16, 10.0),),
              tuple(float(z) for z in range(100, 1001, 100)), (200.0, 600.0, 1000.0)),
    "fig3b": ("power", 6, ((8, 6.0),), ((8, 6.0),),
              tuple(round(5.4 + 0.3 * i, 12) for i in range(9)), (5.4, 6.6, 7.8)),
    "fig3c": ("dt", 10, ((16, 10.0),), ((16, 10.0),),
              (21.0, 20.0, 18.0, 16.0, 15.0, 14.0), (20.0, 16.0, 14.0)),
    "fig3d": ("bandwidth", 10, ((16, 10.0), (17, 10.0), (8, 6.3), (7, 6.3)),
              ((16, 10.0), (8, 6.3)), None, None),
}


def preset_jobs(
    name: str, desk_scale: bool = False, seeds: Sequence[int] | None = None
) -> list[SweepJob]:
    """Sweep jobs for the named preset (``fig2`` has its own entry point)."""
    if name not in _PRESET_TABLE:
        raise ScenarioError(f"unknown preset {name!r}; expected one of {PRESETS}")
    axis, desk_seeds, curves, desk_curves, values, desk_values = _PRESET_TABLE[name]
    if desk_scale:
        curves, values = desk_curves, desk_values
    jobs = []
    for spp, power_dbm in curves:
        base = _preset_scenario(spp, power_dbm, desk_scale, desk_seeds, seeds)
        label = name if len(curves) == 1 else f"{name}_spp{spp}_{power_dbm}dbm"
        jobs.append(SweepJob(label, axis, values or base.optimize_fractions, base))
    return jobs


FIG2_SPP = (30, 10, 8, 6, 4)


def fig2_scenario(
    spp: int, desk_scale: bool = False, seeds: Sequence[int] | None = None
) -> Scenario:
    """The ``fig2`` study at ``spp`` samples per symbol: 9.6 dBm, 600 km, 1.5 km steps."""
    return _preset_scenario(spp, 9.6, desk_scale, 6, seeds, span_km=600.0, dz_km=1.5)


def reproduce_fig2(
    desk_scale: bool = False, seeds: Sequence[int] | None = None, threads: int = 1
) -> tuple[SweepResult, dict[str, Waveform]]:
    """Time-discretization study of :func:`fig2_scenario` over :data:`FIG2_SPP`.

    Returns the per-spp NSD summary (unfiltered vs bandwidth-optimized) and
    first-seed output traces: the benchmark plus an unfiltered and a filtered
    trace per spp value.  The 30-spp traces sit at the benchmark's time
    resolution but not at its step, so their gap to the benchmark is the
    1.5 km split error, the floor the coarser rows are measured against.
    """
    points = [fig2_scenario(spp, desk_scale, seeds) for spp in FIG2_SPP]
    spp_values = tuple(float(spp) for spp in FIG2_SPP)
    summary, benchmarks = _sweep_points("samples_per_symbol", spp_values, points, threads)
    (bench_fields,) = benchmarks.values()
    span_km = points[0].fiber.span_km
    bench_grid = runner.benchmark_grid(points[0])
    traces = {"benchmark": Waveform(samples=bench_fields[0, 0], grid=bench_grid, z_km=span_km)}
    for point, chosen in zip(points, summary.chosen_fractions):
        symbols = gen_symbols(point.seeds[0], point.n_symbols)
        seed0 = shape_pulse(symbols, runner.candidate_grid(point), point.launch)
        for suffix, fraction in (("unfiltered", 1.0), ("filtered", chosen)):
            cfg = SsfmConfig.from_step(span_km, point.candidate_dz_km, filter_fraction=fraction)
            traces[f"spp{point.candidate_spp}_{suffix}"] = propagate(seed0, point.fiber, cfg)
    return summary, traces
