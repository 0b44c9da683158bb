import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ssfmlab import runner
from ssfmlab.engine import (
    BENCHMARK_DZ_KM,
    BENCHMARK_SPP,
    BLOCK_BYTES,
    FiberParams,
    NumericalOverflowError,
    SsfmConfig,
    linear_multiplier,
    propagate,
    run_segments,
)
from ssfmlab.harness import Scenario
from ssfmlab.metrics import nsd
from ssfmlab.signals import LaunchSpec, Waveform, gen_symbols, make_grid, shape_pulse
from conftest import energy, replace
from reference_impl import analytic_dispersion, traditional_ssfm

FIBER = FiberParams(beta2=-21.7, gamma=1.27, span_km=100.0)


def test_benchmark_constants():
    assert BENCHMARK_SPP == 30
    assert BENCHMARK_DZ_KM == 0.1


class TestConfigs:
    def test_from_step_divides_span(self):
        cfg = SsfmConfig.from_step(100.0, 0.1)
        assert cfg.n_seg == 1000
        assert cfg.dz_km == 0.1
        assert cfg.filter_fraction == 1.0

    def test_from_step_rejects_non_dividing_step(self):
        with pytest.raises(ValueError):
            SsfmConfig.from_step(100.0, 0.3)

    @pytest.mark.parametrize("dz_km", [0.0, -0.5, math.nan, math.inf, 5e-324])
    def test_from_step_refuses_a_step_it_cannot_count(self, dz_km):
        """A step that is not positive and finite, or too short for the
        segment count to be finite, is refused before any division fails."""
        with pytest.raises(ValueError, match="dz_km must be positive|too short to count"):
            SsfmConfig.from_step(100.0, dz_km)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.01, math.nan])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(ValueError):
            SsfmConfig(dz_km=1.0, n_seg=10, filter_fraction=fraction)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            SsfmConfig(dz_km=0.0, n_seg=10)
        with pytest.raises(ValueError):
            SsfmConfig(dz_km=1.0, n_seg=0)

    def test_fiber_validation(self):
        with pytest.raises(ValueError):
            FiberParams(beta2=math.nan, gamma=1.0, span_km=10.0)
        with pytest.raises(ValueError):
            FiberParams(beta2=-21.7, gamma=1.27, span_km=0.0)


class TestLinearMultiplier:
    def test_unfiltered_is_all_pass_unit_modulus(self, small_grid):
        cfg = SsfmConfig(dz_km=0.5, n_seg=1, filter_fraction=1.0)
        h = linear_multiplier(small_grid, FIBER, cfg)
        assert h[0] == 1.0 + 0.0j
        np.testing.assert_allclose(np.abs(h), 1.0, rtol=1e-15)
        assert np.count_nonzero(h) == small_grid.n_samples

    def test_passband_phase_matches_dispersion_response(self, small_grid):
        cfg = SsfmConfig(dz_km=0.5, n_seg=1, filter_fraction=1.0)
        h = linear_multiplier(small_grid, FIBER, cfg)
        f = small_grid.frequencies()
        expected = np.exp(2j * np.pi**2 * FIBER.beta2 * 0.5 * f * f)
        np.testing.assert_allclose(h, expected, rtol=1e-14, atol=1e-15)

    def test_stopband_zeros_enumerated_exactly(self):
        """fraction 0.55 on 40 bins passes |k| <= 11 and zeroes the rest."""
        grid = make_grid(5, 8, 100.0)
        cfg = SsfmConfig(dz_km=1.0, n_seg=1, filter_fraction=0.55)
        h = linear_multiplier(grid, FIBER, cfg)
        k = np.concatenate([np.arange(0, 20), np.arange(-20, 0)])
        cutoff = Fraction(55, 100) * 20  # exact arithmetic, no rounding
        expected_pass = np.array([abs(int(b)) <= cutoff for b in k])
        np.testing.assert_array_equal(h != 0, expected_pass)
        assert np.all(h[~expected_pass] == 0.0 + 0.0j)

    def test_edge_bin_is_inclusive(self):
        # fraction 0.75 of 32 half-bins lands exactly on bin 24
        grid = make_grid(8, 8, 100.0)
        cfg = SsfmConfig(dz_km=1.0, n_seg=1, filter_fraction=0.75)
        h = linear_multiplier(grid, FIBER, cfg)
        assert h[24] != 0 and h[64 - 24] != 0
        assert h[25] == 0 and h[64 - 25] == 0

    def test_attenuation_scales_modulus(self, small_grid):
        fiber = FiberParams(beta2=-21.7, gamma=1.27, span_km=100.0, alpha=0.2)
        cfg = SsfmConfig(dz_km=5.0, n_seg=1, filter_fraction=1.0)
        h = linear_multiplier(small_grid, fiber, cfg)
        np.testing.assert_allclose(np.abs(h), math.exp(-0.5), rtol=1e-14)


def kerr_step(samples, gamma, dz_km):
    """One segment of ``run_segments`` with an all-pass ``h`` on one-sample
    rows: a length-1 FFT pair is exact, so only the Kerr rotation acts."""
    (out,) = run_segments(samples[:, None], np.ones(1), gamma * dz_km, (1,))
    return out[:, 0]


class TestNonlinearStep:
    def test_zero_gamma_is_bitwise_identity(self, small_waveform):
        out = kerr_step(small_waveform.samples, 0.0, 2.5)
        np.testing.assert_array_equal(out, small_waveform.samples)

    def test_magnitude_preserved_to_rounding(self, small_waveform):
        out = kerr_step(small_waveform.samples, 1.27, 5.0)
        np.testing.assert_allclose(np.abs(out), np.abs(small_waveform.samples), rtol=5e-15)

    def test_phase_rotation_proportional_to_power(self, small_waveform):
        out = kerr_step(small_waveform.samples, 1.27, 5.0)
        rotation = np.angle(out * np.conj(small_waveform.samples))
        power = np.abs(small_waveform.samples) ** 2
        np.testing.assert_allclose(rotation, 1.27 * 5.0 * power, rtol=1e-10, atol=1e-13)

    @given(st.floats(min_value=0.01, max_value=50.0))
    def test_magnitude_preserved_for_any_step(self, dz):
        grid = make_grid(4, 8, 100.0)
        wave = shape_pulse(gen_symbols(3, 4), grid, LaunchSpec(power_dbm=8.0))
        out = kerr_step(wave.samples, 1.27, dz)
        np.testing.assert_allclose(np.abs(out), np.abs(wave.samples), rtol=5e-15)


class TestPropagate:
    def test_pure_dispersion_matches_analytic_solution(self):
        """gamma = 0 reduces to the exactly solvable linear equation."""
        fiber = FiberParams(beta2=-21.7, gamma=0.0, span_km=100.0)
        grid = make_grid(64, 8, 100.0)
        wave = shape_pulse(gen_symbols(0, 64), grid, LaunchSpec(power_dbm=10.0))
        out = propagate(wave, fiber, SsfmConfig.from_step(100.0, 0.1))
        expected = Waveform(
            analytic_dispersion(wave.samples, grid, -21.7, 100.0), grid, z_km=100.0
        )
        assert nsd(expected, out) < 1e-20

    def test_constant_envelope_accumulates_kerr_phase(self):
        """beta2 = 0 with a flat field leaves only the gamma P z rotation."""
        fiber = FiberParams(beta2=0.0, gamma=1.27, span_km=100.0)
        grid = make_grid(16, 8, 100.0)
        p0 = 0.01
        wave = Waveform(np.full(grid.n_samples, math.sqrt(p0), dtype=complex), grid)
        out = propagate(wave, fiber, SsfmConfig.from_step(100.0, 0.5))
        rotation = np.angle(out.samples * np.conj(wave.samples))
        np.testing.assert_allclose(rotation, 1.27 * p0 * 100.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose(np.abs(out.samples), math.sqrt(p0), rtol=1e-13)

    def test_fundamental_soliton_keeps_its_shape(self):
        """A sech pulse at the soliton power balances dispersion against the
        Kerr effect, checking the relative sign of the two operators.  The
        residual shape error scales linearly with the step size."""
        t0 = 20.0
        fiber = FiberParams(beta2=-21.7, gamma=1.27, span_km=20.0)
        p0 = abs(fiber.beta2) / (fiber.gamma * t0**2)
        grid = make_grid(16, 32, 100.0)
        t = grid.times() - grid.duration / 2.0
        sech = (math.sqrt(p0) / np.cosh(t / t0)).astype(complex)
        wave = Waveform(sech, grid)

        devs = {}
        for dz in (0.1, 0.01):
            out = propagate(wave, fiber, SsfmConfig.from_step(20.0, dz))
            devs[dz] = np.max(np.abs(np.abs(out.samples) - np.abs(sech))) / math.sqrt(p0)
        assert devs[0.1] < 2e-3
        assert devs[0.01] < 2e-4
        # first-order scheme: tenfold step refinement shrinks the error tenfold
        assert 5.0 < devs[0.1] / devs[0.01] < 20.0

    def test_energy_conserved_without_attenuation(self, small_waveform):
        out = propagate(small_waveform, FIBER, SsfmConfig.from_step(100.0, 10.0))
        assert energy(out) == pytest.approx(energy(small_waveform), rel=1e-12)

    def test_unfiltered_run_is_bitwise_traditional_ssfm(self, small_waveform):
        out = propagate(small_waveform, FIBER, SsfmConfig.from_step(100.0, 5.0))
        expected = traditional_ssfm(small_waveform.samples, small_waveform.grid, FIBER, 5.0, 20)
        np.testing.assert_array_equal(out.samples, expected)

    def test_filtered_output_is_band_limited(self, small_waveform):
        cfg = SsfmConfig.from_step(100.0, 5.0, filter_fraction=0.8)
        out = propagate(small_waveform, FIBER, cfg)
        spectrum = np.fft.fft(out.samples)
        k = np.concatenate([np.arange(0, 64), np.arange(-64, 0)])
        stopband = np.abs(k) > 0.8 * 64
        # one fft round trip separates the stored samples from the exact
        # zeros the multiplier wrote, so the bound is rounding-level
        assert np.max(np.abs(spectrum[stopband])) <= 1e-13 * np.max(np.abs(spectrum))

    def test_advances_distance_marker(self, small_waveform):
        out = propagate(small_waveform, FIBER, SsfmConfig.from_step(100.0, 10.0))
        assert out.z_km == 100.0

    def test_rejects_waveform_not_at_origin(self, small_grid):
        wave = Waveform(np.ones(small_grid.n_samples, dtype=complex), small_grid, z_km=3.0)
        with pytest.raises(ValueError):
            propagate(wave, FIBER, SsfmConfig.from_step(100.0, 10.0))

    def test_rejects_config_not_covering_span(self, small_waveform):
        with pytest.raises(ValueError):
            propagate(small_waveform, FIBER, SsfmConfig(dz_km=10.0, n_seg=9))

    def test_gain_overflow_raises_with_segment_index(self, small_waveform):
        fiber = FiberParams(beta2=-21.7, gamma=1.27, span_km=500.0, alpha=-2.0)
        cfg = SsfmConfig.from_step(500.0, 10.0)
        with pytest.raises(NumericalOverflowError) as exc:
            propagate(small_waveform, fiber, cfg)
        assert exc.value.segment == 37

    def test_overflow_in_the_first_segment_is_segment_1(self, small_waveform):
        """Segments are counted from 1: a gain beyond float range in every
        segment leaves the field non-finite after the first one."""
        fiber = FiberParams(beta2=-21.7, gamma=1.27, span_km=10.0, alpha=-1e4)
        with pytest.raises(NumericalOverflowError) as exc:
            propagate(small_waveform, fiber, SsfmConfig.from_step(10.0, 1.0))
        assert exc.value.segment == 1
        assert str(exc.value) == "non-finite field values after segment 1"

    def test_deterministic(self, small_waveform):
        a = propagate(small_waveform, FIBER, SsfmConfig.from_step(100.0, 5.0))
        b = propagate(small_waveform, FIBER, SsfmConfig.from_step(100.0, 5.0))
        np.testing.assert_array_equal(a.samples, b.samples)


class TestRunSegments:
    """Every CSV number comes from seed batches through ``run_segments``, so
    the batch must not touch a single bit of any row."""

    @pytest.mark.parametrize("fraction", [1.0, 0.75])
    @pytest.mark.parametrize(
        "spp, dz_km", [(4, 0.1), (16, 0.1), (20, 0.1), (30, 0.1), (4, 1.5), (30, 1.5)]
    )
    def test_batched_rows_equal_single_runs_bitwise(self, spp, dz_km, fraction):
        n_seg = 20
        fiber = FiberParams(beta2=-21.7, gamma=1.27, span_km=n_seg * dz_km)
        launch = LaunchSpec(power_dbm=10.0)
        grid = make_grid(64, spp, launch.symbol_time)
        waves = [shape_pulse(gen_symbols(seed, 64), grid, launch) for seed in range(4)]
        cfg = SsfmConfig.from_step(fiber.span_km, dz_km, filter_fraction=fraction)
        h = linear_multiplier(grid, fiber, cfg)
        batch = np.array([wave.samples for wave in waves])
        (out,) = run_segments(batch, h, fiber.gamma * dz_km, (n_seg,))
        for seed, wave in enumerate(waves):
            np.testing.assert_array_equal(
                out[seed], propagate(wave, fiber, cfg).samples, err_msg=f"seed {seed}"
            )

    def test_snapshots_equal_shorter_runs_bitwise(self, small_waveform):
        cfg = SsfmConfig.from_step(100.0, 5.0, filter_fraction=0.8)
        h = linear_multiplier(small_waveform.grid, FIBER, cfg)
        stops = (3, 3, 8, 20)
        snapshots = list(run_segments(small_waveform.samples, h, FIBER.gamma * 5.0, stops))
        assert len(snapshots) == len(stops)
        for stop, snapshot in zip(stops, snapshots):
            fiber = FiberParams(beta2=-21.7, gamma=1.27, span_km=stop * 5.0)
            short = SsfmConfig.from_step(fiber.span_km, 5.0, filter_fraction=0.8)
            np.testing.assert_array_equal(snapshot, propagate(small_waveform, fiber, short).samples)


    @staticmethod
    def _reference_loop(fields, h, gamma_dz, n_seg):
        """The out-of-place segment loop with the Kerr operand order spelled
        out: ``factors * fields`` for a batch of BLOCK_BYTES or more, else
        ``fields * factors``."""
        swapped = fields.nbytes >= BLOCK_BYTES

        def kerr_factors(fields):
            phase = gamma_dz * (fields.real**2 + fields.imag**2)
            factors = np.empty(fields.shape, dtype=np.complex128)
            factors.real = np.cos(phase)
            factors.imag = np.sin(phase)
            return factors

        for _ in range(n_seg):
            factors = kerr_factors(fields)
            fields = factors * fields if swapped else fields * factors
            fields = np.fft.ifft(np.fft.fft(fields, axis=-1) * h, axis=-1)
        return fields

    @staticmethod
    def _batch(rows, fraction=0.75, n_seg=30, dz_km=1.5):
        """``rows`` seeds of 64 symbols at 30 spp (1920 samples, 30 KiB a row)."""
        fiber = FiberParams(beta2=-21.7, gamma=1.27, span_km=n_seg * dz_km)
        launch = LaunchSpec(power_dbm=10.0)
        grid = make_grid(64, 30, launch.symbol_time)
        batch = np.array([shape_pulse(gen_symbols(s, 64), grid, launch).samples for s in range(rows)])
        cfg = SsfmConfig.from_step(fiber.span_km, dz_km, filter_fraction=fraction)
        return batch, linear_multiplier(grid, fiber, cfg), fiber.gamma * dz_km, n_seg

    @pytest.mark.parametrize("rows", [8, 9, 20])
    def test_pinned_order_equals_reference_loop_bitwise(self, rows):
        """8 rows stay below BLOCK_BYTES and 9 or 20 rows reach it, so both
        operand orders are checked."""
        batch, h, gamma_dz, n_seg = self._batch(rows)
        assert (batch.nbytes >= BLOCK_BYTES) == (rows > 8)
        (out,) = run_segments(batch, h, gamma_dz, (n_seg,))
        np.testing.assert_array_equal(out, self._reference_loop(batch, h, gamma_dz, n_seg))

    def test_rows_of_a_large_batch_equal_one_row_runs_in_its_order(self):
        batch, h, gamma_dz, n_seg = self._batch(9)
        (out,) = run_segments(batch, h, gamma_dz, (n_seg,))
        for seed, row in enumerate(batch):
            (alone,) = run_segments(row, h, gamma_dz, (n_seg,), batch.nbytes)
            np.testing.assert_array_equal(out[seed], alone, err_msg=f"seed {seed}")

    def test_per_row_responses_equal_a_shared_response(self):
        batch, h, gamma_dz, n_seg = self._batch(9)
        (shared,) = run_segments(batch, h, gamma_dz, (n_seg,))
        (per_row,) = run_segments(batch, np.tile(h, (9, 1)), gamma_dz, (n_seg,))
        np.testing.assert_array_equal(per_row, shared)

    def test_held_snapshot_and_input_never_change(self):
        batch, h, gamma_dz, _ = self._batch(2)
        launch = batch.copy()
        snapshots = run_segments(batch, h, gamma_dz, (2, 5, 9))
        first = next(snapshots)
        kept = first.copy()
        rest = list(snapshots)
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(batch, launch)
        assert not any(np.shares_memory(first, later) for later in rest)


class TestBenchmarkOutput:
    """The benchmark every NSD is scored against, as ``runner.benchmark_fields`` runs it."""

    @staticmethod
    def _scenario(span_km, power_dbm, n_symbols, seeds):
        return Scenario(
            fiber=FiberParams(beta2=-21.7, gamma=1.27, span_km=span_km),
            launch=LaunchSpec(power_dbm=power_dbm),
            candidate_spp=8,
            candidate_dz_km=1.0,
            n_symbols=n_symbols,
            seeds=seeds,
        )

    @staticmethod
    def _first_row(scenario):
        samples = runner.benchmark_fields(scenario)[0, 0]
        return Waveform(samples, scenario.benchmark_grid, scenario.fiber.span_km)

    def test_uses_reference_discretization(self):
        scenario = self._scenario(20.0, 6.0, 16, seeds=(0, 1))
        out = runner.benchmark_fields(scenario)
        grid = make_grid(16, 30, 100.0)
        assert scenario.benchmark_grid == grid
        assert out.shape == (1, 2, grid.n_samples)
        wave = shape_pulse(gen_symbols(0, 16), grid, scenario.launch)
        expected = propagate(wave, scenario.fiber, SsfmConfig.from_step(20.0, 0.1))
        np.testing.assert_array_equal(out[0, 0], expected.samples)

    def test_self_convergence_against_finer_discretization(self):
        """The reference discretization is converged: halving the step and
        adding samples moves the long-haul output by well under 1e-3."""
        scenario = self._scenario(1000.0, 10.0, 64, seeds=(0,))
        bench = self._first_row(scenario)
        finer = self._first_row(replace(scenario, benchmark_spp=40, benchmark_dz_km=0.05))
        assert nsd(finer, bench) < 1e-3
