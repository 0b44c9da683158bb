import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ssfmlab import (
    QAM16,
    LaunchSpec,
    Waveform,
    dbm_to_watts,
    gen_symbols,
    make_grid,
    resample_bandlimited,
    shape_pulse,
)

from conftest import energy, mean_power


class TestMakeGrid:
    def test_example_dimensions(self):
        grid = make_grid(4, 8, 100.0)
        assert grid.n_samples == 32
        assert grid.dt == 12.5
        assert 1.0 / grid.dt == 0.08
        assert grid.duration == 400.0
        assert grid.n_samples // grid.samples_per_symbol == 4

    def test_times_and_frequencies(self):
        grid = make_grid(4, 8, 100.0)
        np.testing.assert_array_equal(grid.times(), np.arange(32) * 12.5)
        np.testing.assert_array_equal(grid.frequencies(), np.fft.fftfreq(32, 12.5))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_grid(0, 8)
        with pytest.raises(ValueError):
            make_grid(4, 1)
        with pytest.raises(ValueError):
            make_grid(4, 8, 0.0)
        with pytest.raises(ValueError):
            make_grid(4, 8, math.inf)
        # odd total sample count has no single Nyquist bin
        with pytest.raises(ValueError):
            make_grid(3, 3)


class TestDbmToWatts:
    def test_reference_points(self):
        assert dbm_to_watts(0.0) == 1e-3
        assert dbm_to_watts(10.0) == pytest.approx(1e-2, rel=1e-15)
        assert dbm_to_watts(9.6) == pytest.approx(9.120108393559097e-3, rel=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dbm_to_watts(math.nan)

    @given(st.floats(min_value=-40.0, max_value=40.0))
    def test_decade_scaling(self, p):
        assert dbm_to_watts(p + 10.0) == pytest.approx(10.0 * dbm_to_watts(p), rel=1e-12)


class TestConstellation:
    def test_sixteen_distinct_points_with_unit_mean_power(self):
        assert len(QAM16) == 16
        assert len(np.unique(QAM16)) == 16
        assert np.mean(np.abs(QAM16) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_symbols_drawn_from_constellation(self):
        seq = gen_symbols(3, 1000)
        assert np.isin(seq, QAM16).all()

    def test_deterministic_per_seed(self):
        a = gen_symbols(42, 256)
        b = gen_symbols(42, 256)
        c = gen_symbols(43, 256)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_draw_is_uniform(self):
        """All 16 points appear with frequency within 4 sigma of 1/16."""
        n = 1_000_000
        seq = gen_symbols(2024, n)
        _, counts = np.unique(seq, return_counts=True)
        assert len(counts) == 16
        sigma = math.sqrt(n * (1 / 16) * (15 / 16))
        np.testing.assert_allclose(counts, n / 16, atol=4 * sigma)

    def test_rejects_empty_draw(self):
        with pytest.raises(ValueError):
            gen_symbols(0, 0)


class TestLaunchSpec:
    def test_symbol_time_at_10_gbaud(self):
        assert LaunchSpec(power_dbm=4.0).symbol_time == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LaunchSpec(power_dbm=math.inf)
        with pytest.raises(ValueError):
            LaunchSpec(power_dbm=0.0, rolloff=1.5)
        with pytest.raises(ValueError):
            LaunchSpec(power_dbm=0.0, baud_rate=0.0)


class TestWaveform:
    def test_energy_and_mean_power(self, small_grid):
        samples = np.full(small_grid.n_samples, 2.0 + 0.0j)
        wave = Waveform(samples, small_grid)
        assert mean_power(wave) == pytest.approx(4.0, rel=1e-15)
        assert energy(wave) == pytest.approx(4.0 * small_grid.duration, rel=1e-15)

    def test_rejects_wrong_length(self, small_grid):
        with pytest.raises(ValueError):
            Waveform(np.zeros(3, dtype=complex), small_grid)

    def test_rejects_non_finite_samples(self, small_grid):
        samples = np.zeros(small_grid.n_samples, dtype=complex)
        samples[5] = np.nan
        with pytest.raises(ValueError):
            Waveform(samples, small_grid)

    def test_immutable(self, small_waveform):
        with pytest.raises(AttributeError):
            small_waveform.z_km = 5.0


def _wrapped_raised_cosine(t, ts, rolloff, period, wraps=200):
    """Cyclic raised-cosine impulse response by direct time-domain summation.

    Sums the continuous-time impulse response over ``wraps`` periods on each
    side; the tail it drops decays like 1/t^3, which keeps the truncation
    error below 1e-8 for the grid sizes used here.
    """
    total = np.zeros_like(t)
    for m in range(-wraps, wraps + 1):
        x = (t + m * period) / ts
        num = np.sinc(x) * np.cos(np.pi * rolloff * x)
        den = 1.0 - (2.0 * rolloff * x) ** 2
        total += num / den
    return total


class TestShapePulse:
    def test_matches_time_domain_convolution(self):
        """Frequency-domain shaping equals a brute-force cyclic convolution.

        Roll-off 0.3 on an 8 samples/symbol grid keeps the impulse response
        singularities at t = +/- Ts/0.6 off the sample points.
        """
        grid = make_grid(16, 8, 100.0)
        launch = LaunchSpec(power_dbm=2.0, rolloff=0.3)
        seq = gen_symbols(11, 16)
        shaped = shape_pulse(seq, grid, launch)

        times = grid.times()
        oracle = np.zeros(grid.n_samples, dtype=np.complex128)
        for s, symbol in enumerate(seq):
            oracle += symbol * _wrapped_raised_cosine(
                times - s * grid.symbol_time, grid.symbol_time, 0.3, grid.duration
            )
        oracle *= math.sqrt(dbm_to_watts(2.0) / np.mean(np.abs(oracle) ** 2))

        peak = np.max(np.abs(shaped.samples))
        np.testing.assert_allclose(shaped.samples, oracle, rtol=0, atol=1e-7 * peak)

    @pytest.mark.parametrize("rolloff", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("spp", [2, 4, 30])
    def test_mean_power_calibrated_exactly(self, rolloff, spp):
        launch = LaunchSpec(power_dbm=9.6, rolloff=rolloff)
        grid = make_grid(32, spp, launch.symbol_time)
        shaped = shape_pulse(gen_symbols(5, 32), grid, launch)
        assert mean_power(shaped) == pytest.approx(dbm_to_watts(9.6), rel=1e-12)

    def test_zero_rolloff_has_flat_brickwall_spectrum(self):
        # one symbol in slot 0 makes the symbol-train spectrum constant, so
        # the shaped spectrum is the pulse spectrum itself
        grid = make_grid(16, 8, 100.0)
        launch = LaunchSpec(power_dbm=0.0, rolloff=0.0)
        seq = gen_symbols(0, 16)
        symbols = np.zeros(16, dtype=complex)
        symbols[0] = seq[0]
        shaped = shape_pulse(symbols, grid, launch)

        spectrum = np.fft.fft(shaped.samples)
        k = np.concatenate([np.arange(0, 64), np.arange(-64, 0)])
        passband = np.abs(k) <= 8  # |f| <= 1/(2 Ts), edge inclusive
        peak = np.max(np.abs(spectrum))
        np.testing.assert_allclose(
            spectrum[passband], spectrum[0], rtol=1e-12, atol=1e-12 * peak
        )
        assert np.max(np.abs(spectrum[~passband])) <= 1e-13 * peak

    def test_spectrum_vanishes_beyond_rolloff_band(self):
        grid = make_grid(16, 8, 100.0)
        launch = LaunchSpec(power_dbm=3.0, rolloff=0.1)
        shaped = shape_pulse(gen_symbols(9, 16), grid, launch)
        freqs = grid.frequencies()
        stopband = np.abs(freqs) > (1.0 + 0.1) / (2.0 * grid.symbol_time)
        spectrum = np.fft.fft(shaped.samples)
        assert np.max(np.abs(spectrum[stopband])) <= 1e-13 * np.max(np.abs(spectrum))

    def test_deterministic(self):
        grid = make_grid(16, 8, 100.0)
        launch = LaunchSpec(power_dbm=3.0)
        a = shape_pulse(gen_symbols(1, 16), grid, launch)
        b = shape_pulse(gen_symbols(1, 16), grid, launch)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_rejects_length_mismatch(self):
        grid = make_grid(16, 8, 100.0)
        with pytest.raises(ValueError):
            shape_pulse(gen_symbols(0, 8), grid, LaunchSpec(power_dbm=0.0))


class TestResampleBandlimited:
    def test_round_trip_is_identity(self, small_waveform):
        fine = make_grid(16, 12, 100.0)
        up = resample_bandlimited(small_waveform, fine)
        back = resample_bandlimited(up, small_waveform.grid)
        np.testing.assert_allclose(
            back.samples, small_waveform.samples, rtol=0, atol=1e-10
        )

    def test_pure_tone_interpolates_exactly(self):
        coarse = make_grid(16, 8, 100.0)
        fine = make_grid(16, 12, 100.0)
        tone = np.exp(2j * np.pi * 5.0 * coarse.times() / coarse.duration)
        up = resample_bandlimited(Waveform(tone, coarse), fine)
        expected = np.exp(2j * np.pi * 5.0 * fine.times() / fine.duration)
        np.testing.assert_allclose(up.samples, expected, rtol=1e-12, atol=1e-12)

    def test_nyquist_tone_round_trip(self):
        """The shared +/-Nyquist bin is split in half going up and folded back
        coming down, so the alternating-sign tone survives a round trip."""
        coarse = make_grid(16, 8, 100.0)
        fine = make_grid(16, 12, 100.0)
        tone = np.cos(np.pi * np.arange(coarse.n_samples)).astype(complex)
        up = resample_bandlimited(Waveform(tone, coarse), fine)
        f_nyq = 0.5 * (1.0 / coarse.dt)
        np.testing.assert_allclose(
            up.samples, np.cos(2.0 * np.pi * f_nyq * fine.times()), rtol=0, atol=1e-12
        )
        back = resample_bandlimited(up, coarse)
        np.testing.assert_allclose(back.samples, tone, rtol=0, atol=1e-12)

    def test_upsampling_preserves_energy(self, small_waveform):
        fine = make_grid(16, 20, 100.0)
        up = resample_bandlimited(small_waveform, fine)
        assert energy(up) == pytest.approx(energy(small_waveform), rel=1e-12)

    def test_downsample_of_bandlimited_tone_is_exact(self):
        fine = make_grid(16, 12, 100.0)
        coarse = make_grid(16, 8, 100.0)
        tone = np.exp(2j * np.pi * 5.0 * fine.times() / fine.duration)
        down = resample_bandlimited(Waveform(tone, fine), coarse)
        expected = np.exp(2j * np.pi * 5.0 * coarse.times() / coarse.duration)
        np.testing.assert_allclose(down.samples, expected, rtol=1e-12, atol=1e-12)

    def test_same_grid_returns_copy(self, small_waveform):
        other = make_grid(16, 8, 100.0)
        out = resample_bandlimited(small_waveform, other)
        assert out.samples is not small_waveform.samples
        np.testing.assert_array_equal(out.samples, small_waveform.samples)

    def test_rejects_duration_mismatch(self, small_waveform):
        with pytest.raises(ValueError):
            resample_bandlimited(small_waveform, make_grid(8, 8, 100.0))

    def test_preserves_propagation_distance(self, small_grid):
        wave = Waveform(np.ones(small_grid.n_samples, dtype=complex), small_grid, z_km=42.0)
        up = resample_bandlimited(wave, make_grid(16, 10, 100.0))
        assert up.z_km == 42.0
