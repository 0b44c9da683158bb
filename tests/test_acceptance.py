"""Acceptance suite: one test per advertised guarantee, at stated tolerance.

Each test prints a single summary line with the measured numbers so a
``pytest -v -s tests/test_acceptance.py`` run reads as a checklist.  The
desk-scale preset fixtures are module-scoped because they dominate the
runtime of the whole suite.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from ssfmlab.bandwidth import _select_best
from ssfmlab.cli import main
from ssfmlab.engine import FiberParams, SsfmConfig, propagate
from ssfmlab.harness import PRESETS, parse_fraction_spec, preset_jobs, reproduce_fig2, sweep
from ssfmlab.metrics import nsd
from ssfmlab.signals import (
    LaunchSpec,
    Waveform,
    gen_symbols,
    make_grid,
    resample_bandlimited,
    shape_pulse,
)

from conftest import energy, search, tiny_scenario
from reference_impl import analytic_dispersion, traditional_ssfm


@pytest.fixture(scope="module")
def fig3a_result():
    (job,) = preset_jobs("fig3a", desk_scale=True)
    return sweep(job.axis, job.base, job.values)


@pytest.fixture(scope="module")
def fig3c_result():
    (job,) = preset_jobs("fig3c", desk_scale=True)
    return sweep(job.axis, job.base, job.values)


@pytest.fixture(scope="module")
def fig3d_results():
    jobs = preset_jobs("fig3d", desk_scale=True)
    return {job.label: sweep(job.axis, job.base, job.values) for job in jobs}


@pytest.fixture(scope="module")
def fig2_job():
    (job,) = preset_jobs("fig2", desk_scale=True)
    return job


@pytest.fixture(scope="module")
def fig2_result(fig2_job):
    return reproduce_fig2(fig2_job)


def test_criterion_01_dispersion_oracle():
    """Pure dispersion over 600 km matches the closed-form solution."""
    fiber = FiberParams(beta2=-21.7, gamma=0.0, span_km=600.0)
    grid = make_grid(16, 32, 100.0)
    t = grid.times() - grid.duration / 2.0
    gaussian = 0.05 * np.exp(-(t**2) / (2.0 * 80.0**2)) + 0.0j
    wave = Waveform(gaussian, grid)

    start = time.perf_counter()
    out = propagate(wave, fiber, SsfmConfig.from_step(600.0, 0.5))
    elapsed = time.perf_counter() - start

    expected = Waveform(analytic_dispersion(gaussian, grid, -21.7, 600.0), grid, z_km=600.0)
    value = nsd(expected, out)
    assert value < 1e-20
    assert elapsed < 1.0
    print(f"criterion 1: PASS  nsd={value:.3e} (<1e-20), runtime={elapsed:.3f}s (<1s)")


def test_criterion_02_spm_oracle():
    """A constant envelope picks up exactly the gamma P Z phase rotation."""
    fiber = FiberParams(beta2=0.0, gamma=1.27, span_km=100.0)
    grid = make_grid(16, 8, 100.0)
    p0 = 0.01
    wave = Waveform(np.full(grid.n_samples, math.sqrt(p0), dtype=complex), grid)
    out = propagate(wave, fiber, SsfmConfig.from_step(100.0, 0.5))

    rotation = np.angle(out.samples * np.conj(wave.samples))
    phase_err = np.max(np.abs(rotation - 1.27 * p0 * 100.0))
    mag_err = np.max(np.abs(np.abs(out.samples) - math.sqrt(p0))) / math.sqrt(p0)
    assert phase_err < 1e-10
    # exact up to double rounding: each segment runs one fft/ifft pair
    np.testing.assert_allclose(np.abs(out.samples), math.sqrt(p0), rtol=1e-13)
    print(f"criterion 2: PASS  phase err={phase_err:.3e} rad (<1e-10), magnitude err={mag_err:.3e}")


def _preset_propagation_configs():
    """Every (spp, dz, span, power) combination the preset experiments run.

    Bit-identity is a code-path property, independent of symbol count and
    seed, so each configuration is exercised at 16 symbols with seed 0.
    """
    configs = set()
    for name in PRESETS:
        for job in preset_jobs(name, desk_scale=True):
            base = job.base
            points = [(base.candidate_spp, base.fiber.span_km, base.launch.power_dbm)]
            if job.axis == "distance":
                points = [(base.candidate_spp, v, base.launch.power_dbm) for v in job.values]
            elif job.axis == "power":
                points = [(base.candidate_spp, base.fiber.span_km, v) for v in job.values]
            elif job.axis == "dt":
                points = [(int(v), base.fiber.span_km, base.launch.power_dbm) for v in job.values]
            for spp, span, power in points:
                configs.add((spp, base.candidate_dz_km, span, power))
                configs.add((base.benchmark_spp, base.benchmark_dz_km, span, power))
    return sorted(configs)


def test_criterion_03_unfiltered_path_is_bitwise_traditional():
    """filter_fraction = 1 must not merely approximate the plain split-step
    method; outputs agree bit for bit on every preset configuration."""
    configs = _preset_propagation_configs()
    for spp, dz_km, span_km, power_dbm in configs:
        fiber = FiberParams(beta2=-21.7, gamma=1.27, span_km=span_km)
        launch = LaunchSpec(power_dbm=power_dbm)
        grid = make_grid(16, spp, launch.symbol_time)
        wave = shape_pulse(gen_symbols(0, 16), grid, launch)
        cfg = SsfmConfig.from_step(span_km, dz_km, filter_fraction=1.0)
        ours = propagate(wave, fiber, cfg)
        theirs = traditional_ssfm(wave.samples, grid, fiber, dz_km, cfg.n_seg)
        np.testing.assert_array_equal(
            ours.samples,
            theirs,
            err_msg=f"spp={spp} dz={dz_km} span={span_km} power={power_dbm}",
        )
    print(f"criterion 3: PASS  bit-identical on {len(configs)} preset configurations")


def test_criterion_04_first_order_convergence():
    fiber = FiberParams(beta2=-21.7, gamma=1.27, span_km=100.0)
    launch = LaunchSpec(power_dbm=4.0)
    grid = make_grid(64, 30, launch.symbol_time)
    wave = shape_pulse(gen_symbols(0, 64), grid, launch)

    start = time.perf_counter()
    reference = propagate(wave, fiber, SsfmConfig.from_step(100.0, 0.025))
    steps = (4.0, 2.0, 1.0, 0.5)
    errors = [
        math.sqrt(nsd(reference, propagate(wave, fiber, SsfmConfig.from_step(100.0, dz))))
        for dz in steps
    ]
    elapsed = time.perf_counter() - start

    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert 0.8 <= slope <= 1.5
    assert elapsed < 60.0
    print(f"criterion 4: PASS  slope={slope:.3f} (in [0.8,1.5]), runtime={elapsed:.1f}s (<60s)")


@pytest.mark.slow
def test_criterion_05_filtering_gain_over_distance(fig3a_result):
    """Optimized filtering cuts the NSD at least in half at 200/600/1000 km,
    with a bounded gain at the 1000 km point."""
    ratios = {
        z: with_lpf / without
        for z, without, with_lpf in zip(
            fig3a_result.axis_values, fig3a_result.nsd_without_lpf, fig3a_result.nsd_with_lpf
        )
    }
    assert all(r <= 0.5 for r in ratios.values()), ratios
    assert 1.0 / 6.0 <= ratios[1000.0] <= 1.0 / 2.5, ratios
    text = ", ".join(f"{int(z)}km:{r:.3f}" for z, r in ratios.items())
    print(f"criterion 5: PASS  nsd ratios {text} (all <=0.5; 1000km in [1/6,1/2.5])")


@pytest.mark.slow
def test_criterion_06_bandwidth_optimum_location(fig3d_results):
    summaries = []
    for label, result in fig3d_results.items():
        values = dict(zip(result.axis_values, result.nsd_with_lpf))
        best_fraction = result.axis_values[int(np.argmin(result.nsd_with_lpf))]
        assert 0.65 <= best_fraction <= 0.90, (label, best_fraction)
        assert values[0.55] > values[1.0], (label, values[0.55], values[1.0])
        summaries.append(f"{label}: best={best_fraction:.2f}")
    print(f"criterion 6: PASS  {'; '.join(summaries)} (in [0.65,0.90]; nsd@0.55 > nsd@1.0)")


@pytest.mark.slow
def test_criterion_07_resolution_point_gain(fig3c_result):
    index = fig3c_result.axis_values.index(100.0 / 16.0)
    without = fig3c_result.nsd_without_lpf[index]
    with_lpf = fig3c_result.nsd_with_lpf[index]
    assert with_lpf <= 0.5 * without, (with_lpf, without)
    print(f"criterion 7: PASS  dt=Ts/16: with={with_lpf:.3e} <= 0.5*without={0.5 * without:.3e}")


def test_criterion_08_aliasing_monotonicity(fig2_result):
    summary, _ = fig2_result
    by_spp = dict(zip(summary.axis_values, summary.nsd_without_lpf))
    chain = [by_spp[s] for s in (10.0, 8.0, 6.0, 4.0)]
    assert chain[0] < chain[1] < chain[2] < chain[3], chain
    text = " < ".join(f"{v:.3f}" for v in chain)
    print(f"criterion 8: PASS  unfiltered nsd strictly increasing: {text}")


@pytest.mark.slow
def test_criterion_09_reproduce_is_byte_deterministic(tmp_path):
    paths = []
    for run in ("first", "second"):
        out = tmp_path / run / "fig3a"
        out.parent.mkdir()
        code = main(
            ["reproduce", "fig3a", "--desk-scale", "--seeds", "5", "--out", str(out)]
        )
        assert code == 0
        paths.append(out.with_suffix(".csv"))
    assert filecmp.cmp(paths[0], paths[1], shallow=False)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    print("criterion 9: PASS  two runs produced byte-identical CSV")


def test_criterion_10_property_roundup():
    """Compact re-verification of the cross-module properties; the full
    versions live in the per-module test files."""
    grid = make_grid(16, 8, 100.0)
    launch = LaunchSpec(power_dbm=6.0)
    wave = shape_pulse(gen_symbols(0, 16), grid, launch)
    fiber = FiberParams(beta2=-21.7, gamma=1.27, span_km=40.0)

    # energy conservation through a lossless propagation
    out = propagate(wave, fiber, SsfmConfig.from_step(40.0, 2.0))
    assert energy(out) == pytest.approx(energy(wave), rel=1e-12)

    # magnitude preservation of the nonlinear step (exact up to rounding): one
    # segment with an all-pass h on one-sample rows, whose FFT pair is exact
    from ssfmlab.engine import run_segments

    (rotated,) = run_segments(wave.samples[:, None], np.ones(1), 1.27 * 2.0, (1,))
    np.testing.assert_allclose(np.abs(rotated[:, 0]), np.abs(wave.samples), rtol=5e-15)

    # resampling round trip
    fine = make_grid(16, 12, 100.0)
    back = resample_bandlimited(resample_bandlimited(wave, fine), grid)
    np.testing.assert_allclose(back.samples, wave.samples, rtol=0, atol=1e-10)

    # NSD scale covariance
    other = shape_pulse(gen_symbols(1, 16), grid, launch)
    base_value = nsd(wave, other)
    scaled = nsd(
        Waveform(3.0j * wave.samples, grid), Waveform(3.0j * other.samples, grid)
    )
    assert scaled == pytest.approx(base_value, rel=1e-12)

    # argmin containment: the chosen fraction is a grid point achieving the
    # minimum searched value
    fractions = parse_fraction_spec("0.5:0.1:1.0")
    (curve,) = search(tiny_scenario(), fractions)
    best_fraction, best_nsd = _select_best(fractions, curve)
    assert best_fraction in fractions
    assert best_nsd == min(curve)
    assert curve[fractions.index(best_fraction)] == best_nsd

    # band limitation: stopband multiplier entries are exactly zero
    from ssfmlab.engine import linear_multiplier

    cfg = SsfmConfig(dz_km=1.0, n_seg=1, filter_fraction=0.7)
    h = linear_multiplier(grid, fiber, cfg)
    k = np.concatenate([np.arange(0, 64), np.arange(-64, 0)])
    assert np.all(h[np.abs(k) > 0.7 * 64] == 0.0 + 0.0j)

    print("criterion 10: PASS  cross-module property roundup")


class TestFig2WaveformRegression:
    """The step-size study's traces: filtered coarse grids beat unfiltered
    ones, and the 30-spp trace differs from the benchmark only by the split
    error of the study's 1.5 km step."""

    def test_filtered_traces_closer_to_benchmark_at_coarse_spp(self, fig2_result):
        _, traces = fig2_result
        benchmark = traces["benchmark"]
        for spp in (8, 6):
            unfiltered = nsd(benchmark, traces[f"spp{spp}_unfiltered"])
            filtered = nsd(benchmark, traces[f"spp{spp}_filtered"])
            assert filtered < unfiltered, (spp, filtered, unfiltered)
        print("fig2 regression (filtered spp 8/6 beat unfiltered): PASS")

    def test_reference_resolution_trace_matches_benchmark(self, fig2_result, fig2_job):
        """The spp=30 trace shares the benchmark's time grid but not its
        0.1 km step, so its gap to the benchmark is the 1.5 km split error.
        The trace must be the plain split-step run of the seed-0 launch, the
        gap must shrink at least at criterion 4's slope as the step is
        refined and meet NSD 1e-3 at 0.3 km, and no coarser unfiltered trace
        may come closer."""
        _, traces = fig2_result
        benchmark = traces["benchmark"]
        trace = traces["spp30_unfiltered"]
        scenario = fig2_job.base
        fiber, launch, dz_km = scenario.fiber, scenario.launch, scenario.candidate_dz_km
        grid = make_grid(scenario.n_symbols, scenario.candidate_spp, launch.symbol_time)
        wave = shape_pulse(gen_symbols(scenario.seeds[0], scenario.n_symbols), grid, launch)

        # provenance: no grid, seed or filter error rides along with the step
        assert trace.grid == benchmark.grid == grid, (trace.grid, benchmark.grid, grid)
        n_seg = SsfmConfig.from_step(fiber.span_km, dz_km).n_seg
        np.testing.assert_array_equal(
            trace.samples,
            traditional_ssfm(wave.samples, grid, fiber, dz_km, n_seg),
            err_msg=f"spp=30 trace is not the unfiltered seed-0 run at {dz_km} km x {n_seg}",
        )

        # the gap is step error: NSD is the squared field error, so criterion
        # 4's slope bound of 0.8 asks each refinement to cut it by ratio^1.6
        steps = (dz_km, 0.75, 0.3)
        gaps = [nsd(benchmark, trace)] + [
            nsd(benchmark, propagate(wave, fiber, SsfmConfig.from_step(fiber.span_km, dz)))
            for dz in steps[1:]
        ]
        for coarse, fine, gap_coarse, gap_fine in zip(steps, steps[1:], gaps, gaps[1:]):
            required = (coarse / fine) ** 1.6
            assert gap_coarse >= required * gap_fine, (
                f"refining the step {coarse} -> {fine} km cut the NSD to the "
                f"benchmark {gap_coarse / gap_fine:.2f}x ({gap_coarse:.3e} -> "
                f"{gap_fine:.3e}); first order needs at least {required:.2f}x"
            )
        assert gaps[-1] < 1e-3, f"NSD at 0.3 km steps is {gaps[-1]:.3e}, not below 1e-3"

        # the 30-spp trace is the floor every coarser grid is measured against
        coarser = {
            spp: nsd(benchmark, traces[f"spp{spp:g}_unfiltered"]) for spp in fig2_job.values[1:]
        }
        assert all(gaps[0] < value for value in coarser.values()), (
            f"spp=30 NSD {gaps[0]:.3e} is not below every coarser unfiltered trace: "
            + ", ".join(f"spp {spp}: {value:.3e}" for spp, value in coarser.items())
        )

        text = "/".join(f"{g:.3e}" for g in gaps)
        print(
            f"fig2 regression (spp30 trace = step error): PASS  "
            f"nsd@1.5/0.75/0.3 km = {text} (<1e-3 at 0.3 km; "
            f"below spp {'/'.join(str(s) for s in coarser)})"
        )
