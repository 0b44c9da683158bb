import numpy as np
import pytest
from hypothesis import given, strategies as st

from ssfmlab import (
    DegenerateInputError,
    LaunchSpec,
    Waveform,
    gen_symbols,
    make_grid,
    nsd,
    resample_bandlimited,
    shape_pulse,
)


def test_identical_waveforms_score_zero(small_waveform):
    assert nsd(small_waveform, small_waveform) == 0.0


def test_zero_candidate_scores_one(small_waveform):
    zero = Waveform(np.zeros(small_waveform.grid.n_samples, dtype=complex), small_waveform.grid)
    assert nsd(small_waveform, zero) == 1.0


def test_scaled_candidate_scores_squared_gap(small_waveform):
    c = 0.5 + 0.2j
    scaled = Waveform(c * small_waveform.samples, small_waveform.grid)
    assert nsd(small_waveform, scaled) == pytest.approx(abs(1.0 - c) ** 2, rel=1e-12)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_common_scale_drops_out(magnitude, angle):
    """Scaling reference and candidate by one complex factor leaves the
    metric unchanged, so it compares shapes rather than absolute levels."""
    grid = make_grid(8, 8, 100.0)
    ref = shape_pulse(gen_symbols(0, 8), grid, LaunchSpec(power_dbm=3.0))
    cand = shape_pulse(gen_symbols(1, 8), grid, LaunchSpec(power_dbm=3.0))
    base = nsd(ref, cand)
    s = magnitude * np.exp(1j * angle)
    scaled = nsd(
        Waveform(s * ref.samples, grid), Waveform(s * cand.samples, grid)
    )
    assert scaled == pytest.approx(base, rel=1e-12)


def test_candidate_grid_does_not_bias_the_score(small_waveform):
    """A band-limited candidate scores the same from any grid that holds it."""
    cand_coarse = shape_pulse(
        gen_symbols(8, 16), small_waveform.grid, LaunchSpec(power_dbm=3.0)
    )
    fine = make_grid(16, 12, 100.0)
    cand_fine = resample_bandlimited(cand_coarse, fine)
    a = nsd(small_waveform, cand_coarse)
    b = nsd(small_waveform, cand_fine)
    assert b == pytest.approx(a, rel=1e-8)


def test_comparison_happens_on_reference_grid(small_waveform):
    fine = make_grid(16, 12, 100.0)
    cand = resample_bandlimited(small_waveform, fine)
    value = nsd(small_waveform, cand)
    assert value < 1e-20
    # the candidate is scored after resampling onto the reference grid
    assert value == nsd(small_waveform, resample_bandlimited(cand, small_waveform.grid))


def test_rejects_mismatched_windows(small_waveform):
    other = make_grid(8, 8, 100.0)
    wave = Waveform(np.ones(other.n_samples, dtype=complex), other)
    with pytest.raises(ValueError):
        nsd(small_waveform, wave)


def test_rejects_mismatched_distances(small_waveform):
    moved = Waveform(small_waveform.samples, small_waveform.grid, z_km=50.0)
    with pytest.raises(ValueError):
        nsd(small_waveform, moved)


def test_rejects_zero_energy_reference(small_grid):
    zero = Waveform(np.zeros(small_grid.n_samples, dtype=complex), small_grid)
    one = Waveform(np.ones(small_grid.n_samples, dtype=complex), small_grid)
    with pytest.raises(DegenerateInputError):
        nsd(zero, one)


def test_sums_of_squares_beyond_float_range_still_score():
    """At 1e305 W a sample, 4,096 samples sum past float range; both waveforms
    are scaled by a power of two first, so the metric stays a number."""
    grid = make_grid(256, 16, 100.0)
    wave = shape_pulse(gen_symbols(0, 256), grid, LaunchSpec(power_dbm=3.0))
    gain = np.sqrt(1e305 / np.mean(wave.samples.real**2 + wave.samples.imag**2))
    huge = Waveform(gain * wave.samples, grid)
    shifted = Waveform(np.roll(huge.samples, 1), grid)
    with np.errstate(all="raise"):
        assert nsd(huge, huge) == 0.0
        value = nsd(huge, shifted)
    assert np.isfinite(value)
    assert value == pytest.approx(nsd(wave, Waveform(np.roll(wave.samples, 1), grid)), rel=1e-12)


@pytest.mark.parametrize("power_dbm", [3.0, 40.0], ids=["peak-below-1", "peak-above-1"])
def test_scaling_moves_no_bit(small_grid, power_dbm):
    """A reference peak below 1 is not scaled; one above 1 is scaled down by
    a power of two.  Either way the sums give the unscaled ratio exactly."""
    launch = LaunchSpec(power_dbm=power_dbm)
    reference = shape_pulse(gen_symbols(7, 16), small_grid, launch)
    other = shape_pulse(gen_symbols(8, 16), small_grid, launch)
    assert (np.max(np.abs(reference.samples)) > 1.0) == (power_dbm > 30.0)
    ref = reference.samples
    diff = ref - other.samples
    unscaled = np.sum(diff.real**2 + diff.imag**2) / np.sum(ref.real**2 + ref.imag**2)
    assert nsd(reference, other) == float(unscaled)


def test_reference_whose_squares_underflow_is_refused(small_waveform):
    """A subnormal peak is not scaled up: every square underflows to 0, so the
    reference carries no energy and is refused, with no arithmetic error."""
    tiny = Waveform(small_waveform.samples * (2e-310 / np.max(np.abs(small_waveform.samples))),
                    small_waveform.grid)
    assert 0.0 < np.max(np.abs(tiny.samples)) < np.finfo(float).tiny
    with pytest.raises(DegenerateInputError, match="zero energy"):
        nsd(tiny, tiny)
