"""Deterministic 16-QAM test signals on uniform sampling grids.

Internal units are picoseconds for time, 1/ps for frequency and watts for
instantaneous power.  Grids are periodic: the DFT of a waveform treats the
window as one period, so pulse tails wrap around instead of being truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QAM16",
    "SamplingGrid",
    "Waveform",
    "LaunchSpec",
    "make_grid",
    "dbm_to_watts",
    "gen_symbols",
    "shape_pulse",
    "resample_bandlimited",
]

_LEVELS = (-3.0, -1.0, 1.0, 3.0)

# Square 16-QAM constellation scaled to unit mean symbol power.
QAM16 = np.array(
    [(i + 1j * q) / math.sqrt(10.0) for i in _LEVELS for q in _LEVELS],
    dtype=np.complex128,
)


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform time grid covering an integer number of symbol slots."""

    n_samples: int
    samples_per_symbol: int
    symbol_time: float  # ps
    dt: float  # ps

    @property
    def duration(self) -> float:
        return self.n_samples * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.dt

    def frequencies(self) -> np.ndarray:
        """DFT bin frequencies f_k = k/(n dt), in standard FFT order."""
        return np.fft.fftfreq(self.n_samples, self.dt)


def make_grid(n_symbols: int, samples_per_symbol: int, symbol_time: float = 100.0) -> SamplingGrid:
    """Build the sampling grid for ``n_symbols`` slots of ``symbol_time`` ps.

    ``samples_per_symbol`` must be at least 2 and the total sample count must
    come out even, because the resampler assigns a single shared bin to the
    +/-Nyquist frequency.
    """
    if n_symbols < 1:
        raise ValueError(f"n_symbols must be positive, got {n_symbols}")
    if samples_per_symbol < 2:
        raise ValueError(f"samples_per_symbol must be at least 2, got {samples_per_symbol}")
    if not (math.isfinite(symbol_time) and symbol_time > 0.0):
        raise ValueError(f"symbol_time must be positive and finite, got {symbol_time}")
    n_samples = n_symbols * samples_per_symbol
    if n_samples % 2:
        raise ValueError(f"n_samples must be even, got {n_samples}")
    return SamplingGrid(
        n_samples=n_samples,
        samples_per_symbol=samples_per_symbol,
        symbol_time=float(symbol_time),
        dt=float(symbol_time) / samples_per_symbol,
    )


def dbm_to_watts(power_dbm: float) -> float:
    """Convert a power level in dBm to watts; both must be finite, and the watts above 0."""
    if not math.isfinite(power_dbm):
        raise ValueError(f"power_dbm must be finite, got {power_dbm}")
    try:
        watts = 10.0 ** (power_dbm / 10.0) * 1e-3
    except OverflowError:
        raise ValueError(f"power_dbm {power_dbm} is too large to express in watts") from None
    if watts == 0.0:
        raise ValueError(f"power_dbm {power_dbm} is too small to express in watts")
    return watts


def gen_symbols(seed: int, n_symbols: int) -> np.ndarray:
    """Draw ``n_symbols`` independent uniform 16-QAM symbols.

    The draw is reproducible: the same seed always yields the same complex
    array of :data:`QAM16` points.
    """
    if n_symbols < 1:
        raise ValueError(f"n_symbols must be positive, got {n_symbols}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 16, size=n_symbols)
    return QAM16[idx]


@dataclass(frozen=True)
class LaunchSpec:
    """Transmitter-side parameters: launch power, pulse roll-off, symbol rate."""

    power_dbm: float
    rolloff: float = 0.1
    baud_rate: float = 10e9  # symbols/s

    def __post_init__(self) -> None:
        dbm_to_watts(self.power_dbm)  # refuses a power without a finite, nonzero value in watts
        if not 0.0 <= self.rolloff <= 1.0:
            raise ValueError(f"rolloff must lie in [0, 1], got {self.rolloff}")
        if not (math.isfinite(self.baud_rate) and self.baud_rate > 0.0):
            raise ValueError(f"baud_rate must be positive, got {self.baud_rate}")

    @property
    def symbol_time(self) -> float:
        """Symbol slot duration in ps."""
        return 1e12 / self.baud_rate


@dataclass(frozen=True)
class Waveform:
    """Complex field envelope sampled on a grid at propagation distance z_km."""

    samples: np.ndarray
    grid: SamplingGrid
    z_km: float = 0.0

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.shape != (self.grid.n_samples,):
            raise ValueError(
                f"expected {self.grid.n_samples} samples, got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform samples must be finite")
        object.__setattr__(self, "samples", samples)


def _raised_cosine_spectrum(freqs: np.ndarray, symbol_time: float, rolloff: float) -> np.ndarray:
    """Continuous-time raised-cosine spectrum evaluated at ``freqs`` (1/ps)."""
    ts = symbol_time
    absf = np.abs(freqs)
    if rolloff == 0.0:
        return np.where(absf <= 0.5 / ts, ts, 0.0)
    f_flat = (1.0 - rolloff) / (2.0 * ts)
    f_stop = (1.0 + rolloff) / (2.0 * ts)
    spec = np.zeros_like(absf)
    spec[absf <= f_flat] = ts
    ramp = (absf > f_flat) & (absf <= f_stop)
    spec[ramp] = 0.5 * ts * (1.0 + np.cos(np.pi * ts / rolloff * (absf[ramp] - f_flat)))
    return spec


def shape_pulse(symbols: np.ndarray, grid: SamplingGrid, launch: LaunchSpec) -> Waveform:
    """Raised-cosine shape a symbol sequence onto a sampling grid.

    Parameters
    ----------
    symbols : np.ndarray
        One complex symbol per grid slot; the length must match the grid.
    grid : SamplingGrid
        Target grid.  The pulse filter is applied cyclically, so tails wrap
        around the window edges.
    launch : LaunchSpec
        Supplies roll-off and launch power.  The output is rescaled so its
        time-average power equals ``dbm_to_watts(launch.power_dbm)`` exactly.

    Returns
    -------
    Waveform
        The modulated waveform at z = 0.
    """
    if len(symbols) * grid.samples_per_symbol != grid.n_samples:
        raise ValueError(
            f"sequence of {len(symbols)} symbols does not fill a grid of "
            f"{grid.n_samples // grid.samples_per_symbol} slots"
        )
    train = np.zeros(grid.n_samples, dtype=np.complex128)
    train[:: grid.samples_per_symbol] = symbols
    pulse = _raised_cosine_spectrum(grid.frequencies(), grid.symbol_time, launch.rolloff)
    # Unit pulse energy; the closed-form energy of the raised cosine is Ts(1 - rolloff/4).
    pulse /= math.sqrt(grid.symbol_time * (1.0 - launch.rolloff / 4.0))
    field = np.fft.ifft(np.fft.fft(train) * pulse)
    mean_power = np.mean(field.real**2 + field.imag**2)
    field *= math.sqrt(dbm_to_watts(launch.power_dbm) / mean_power)
    return Waveform(samples=field, grid=grid, z_km=0.0)


def resample_bandlimited(wave: Waveform, target: SamplingGrid) -> Waveform:
    """Resample a waveform onto ``target`` by trigonometric interpolation.

    The spectrum is zero-padded (upsampling) or truncated (downsampling)
    around the symmetric bin layout and rescaled so time-domain amplitudes
    are preserved.  The single +/-Nyquist bin of an even-length grid is split
    in half when upsampling and folded back when downsampling, which makes an
    upsample/downsample round trip exact up to rounding.
    """
    src = wave.grid
    if not math.isclose(src.duration, target.duration, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            f"grid durations differ: {src.duration} ps vs {target.duration} ps"
        )
    n = src.n_samples
    m = target.n_samples
    if m == n:
        return Waveform(samples=wave.samples.copy(), grid=target, z_km=wave.z_km)
    spectrum = np.fft.fft(wave.samples)
    out = np.zeros(m, dtype=np.complex128)
    half = min(n, m) // 2
    out[:half] = spectrum[:half]
    if m > n:
        out[m - half + 1 :] = spectrum[half + 1 :]
        out[half] = 0.5 * spectrum[half]
        out[m - half] = 0.5 * spectrum[half]
    else:
        out[half + 1 :] = spectrum[n - half + 1 :]
        out[half] = spectrum[half] + spectrum[n - half]
    out *= m / n
    return Waveform(samples=np.fft.ifft(out), grid=target, z_km=wave.z_km)
