"""Layer microbenchmarks on the workload's own inputs, through public names only.

Every function gets warm-up calls before it is timed, and reports the median
of its timed calls.  Return values are passed on without looking inside
them, so a change of return type does not break the benchmark.  Runs are
shortened to ``MICRO_SEGMENTS`` candidate steps so the whole set takes a
few seconds.
"""

from __future__ import annotations

import os
import statistics
import time

MICRO_SEGMENTS = 100
SWEEP_REPEATS = 5
PROPAGATE_FRACTIONS = (1.0, 0.8)


def median_time(fn, repeats: int, warmup: int = 2) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def before_command(workload, seed: int, work_dir: str) -> dict:
    """Layers timed on the workload's first-point scenario, cut to ``MICRO_SEGMENTS`` steps."""
    from ssfmlab import bandwidth, engine, harness, metrics, runner, signals

    text = workload.scenario(seed, span_km=MICRO_SEGMENTS * workload.points[0][2])
    scenario = harness.parse_scenario(text)
    fiber, launch = scenario.fiber, scenario.launch
    grid_c = signals.make_grid(scenario.n_symbols, scenario.candidate_spp, launch.symbol_time)
    grid_b = signals.make_grid(scenario.n_symbols, scenario.benchmark_spp, launch.symbol_time)
    symbols = signals.gen_symbols(scenario.seeds[0], scenario.n_symbols)
    wave_c = signals.shape_pulse(symbols, grid_c, launch)
    wave_b = signals.shape_pulse(symbols, grid_b, launch)
    configs = [engine.SsfmConfig.from_step(fiber.span_km, scenario.candidate_dz_km, f)
               for f in PROPAGATE_FRACTIONS]

    per_segment = []
    for cfg in configs:
        call = median_time(lambda: engine.propagate(wave_c, fiber, cfg), repeats=5, warmup=1)
        per_segment.append(call / cfg.n_seg)

    launch_fields = runner.shaped_fields(scenario)
    bench_fields = runner.benchmark_fields(scenario)
    # Repeat 0 warms up; the thread counts alternate so that a drift in machine
    # speed hits both alike.
    sweep_s: dict[int, list[float]] = {1: [], 2: []}
    for repeat in range(SWEEP_REPEATS + 1):
        for threads in sweep_s:
            start = time.perf_counter()
            bandwidth.sweep_bandwidth(scenario, workload.fraction_grid, threads=threads,
                                      launch_fields=launch_fields, bench_fields=bench_fields)
            if repeat:
                sweep_s[threads].append(time.perf_counter() - start)
    t1, t2 = (statistics.median(sweep_s[threads]) for threads in (1, 2))

    return {
        "engine.propagate.us_per_segment": metric(1e6 * statistics.median(per_segment), "us"),
        "engine.linear_multiplier.us": metric(
            1e6 * median_time(lambda: engine.linear_multiplier(grid_c, fiber, configs[0]), 101),
            "us"),
        "runner.shaped_fields.ms": metric(
            1e3 * median_time(lambda: runner.shaped_fields(scenario), 21), "ms"),
        "signals.shape_pulse.us": metric(
            1e6 * median_time(lambda: signals.shape_pulse(symbols, grid_c, launch), 101), "us"),
        "harness.parse_scenario.us": metric(
            1e6 * median_time(lambda: harness.parse_scenario(text), 201), "us"),
        "signals.resample_bandlimited.us": metric(
            1e6 * median_time(lambda: signals.resample_bandlimited(wave_c, grid_b), 101), "us"),
        "metrics.nsd.us": metric(1e6 * median_time(lambda: metrics.nsd(wave_b, wave_c), 101),
                                  "us"),
        "bandwidth.sweep_bandwidth.t1_s": metric(t1, "s"),
        "bandwidth.sweep_bandwidth.t2_s": metric(t2, "s"),
        "bandwidth.parallel_speedup": metric(t1 / t2, "ratio"),
        "harness.write_trace_csv.ms": metric(
            1e3 * median_time(lambda: harness.write_trace_csv(
                wave_b, os.path.join(work_dir, "micro_trace.csv")), 21), "ms"),
    }


def after_command(sweep_result, work_dir: str) -> dict:
    """``emit_csv`` timed on the result object the traced command emitted."""
    from ssfmlab import harness

    path = os.path.join(work_dir, "micro_sweep.csv")
    return {"harness.emit_csv.ms": metric(
        1e3 * median_time(lambda: harness.emit_csv(sweep_result, path), 51), "ms")}
