"""Split-step propagation of the scalar nonlinear Schrodinger equation.

Each segment applies the Kerr nonlinearity in the time domain and then the
dispersive/attenuating linear operator in the frequency domain.  The linear
multiplier doubles as a brick-wall low-pass filter: bins beyond the
configured fraction of the Nyquist band are set to exactly zero and their
exponentials are never evaluated.  With ``filter_fraction = 1`` every bin
passes and the scheme degenerates to the plain split-step method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .signals import SamplingGrid, Waveform

__all__ = [
    "FiberParams",
    "SsfmConfig",
    "NumericalOverflowError",
    "linear_multiplier",
    "propagate",
    "run_segments",
    "BLOCK_BYTES",
]

# numpy elides the temporary of a binary operation from this many bytes on,
# which swapped the operands of the Kerr product in larger batches; batched
# runs are also split into row blocks of at most this size.
BLOCK_BYTES = 256 * 1024


class NumericalOverflowError(ArithmeticError):
    """Raised when propagation produces non-finite field values."""

    def __init__(self, segment: int):
        self.segment = segment
        super().__init__(f"non-finite field values after segment {segment}")


@dataclass(frozen=True, kw_only=True)
class FiberParams:
    """Fiber span parameters, given by keyword.

    alpha is the power attenuation coefficient in 1/km (0 models ideal
    distributed amplification), beta2 the group-velocity dispersion in
    ps^2/km, gamma the Kerr coefficient in 1/(W km) and span_km the length.
    The defaults are the standard single-mode fiber every preset uses.
    """

    beta2: float = -21.7
    gamma: float = 1.27
    span_km: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        for name in ("beta2", "gamma", "span_km", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.span_km <= 0.0:
            raise ValueError(f"span_km must be positive, got {self.span_km}")


@dataclass(frozen=True)
class SsfmConfig:
    """Step size, segment count and low-pass fraction of one propagation run."""

    dz_km: float
    n_seg: int
    filter_fraction: float

    def __post_init__(self) -> None:
        _check_step(self.dz_km)
        if self.n_seg < 1:
            raise ValueError(f"n_seg must be positive, got {self.n_seg}")
        if not 0.0 < self.filter_fraction <= 1.0:
            raise ValueError(
                f"filter_fraction must lie in (0, 1], got {self.filter_fraction}"
            )

    @classmethod
    def from_step(cls, span_km: float, dz_km: float, filter_fraction: float = 1.0) -> "SsfmConfig":
        """Segment a span into steps of ``dz_km``; the step must divide the span."""
        _check_step(dz_km)
        n_seg = span_km / dz_km
        if not math.isfinite(n_seg):
            raise ValueError(f"steps of {dz_km} km are too short to count over a {span_km} km span")
        cfg = cls(dz_km=dz_km, n_seg=max(round(n_seg), 1), filter_fraction=filter_fraction)
        _check_span(cfg, span_km)
        return cfg


def _check_step(dz_km: float) -> None:
    if not (math.isfinite(dz_km) and dz_km > 0.0):
        raise ValueError(f"dz_km must be positive, got {dz_km}")


def _check_span(cfg: SsfmConfig, span_km: float) -> None:
    if not math.isclose(cfg.n_seg * cfg.dz_km, span_km, rel_tol=1e-9, abs_tol=0.0):
        raise ValueError(
            f"{cfg.n_seg} segments of {cfg.dz_km} km do not cover a {span_km} km span"
        )


def _bin_indices(n_samples: int) -> np.ndarray:
    """Signed DFT bin numbers in FFT order: 0..n/2-1, -n/2..-1."""
    return np.concatenate([np.arange(0, n_samples // 2), np.arange(-(n_samples // 2), 0)])


def linear_multiplier(grid: SamplingGrid, fiber: FiberParams, cfg: SsfmConfig) -> np.ndarray:
    """Build the filtered linear-step multiplier for one segment.

    Passband bins (|f_k| up to ``filter_fraction`` times the Nyquist
    frequency, edge inclusive) carry the attenuation and dispersion response
    exp(-alpha dz / 2) exp(2j pi^2 f^2 beta2 dz); stopband bins are exactly
    zero.  The passband test is done on integer bin numbers so the edge
    decision never depends on floating-point frequency values, and stopband
    exponentials are never computed.
    """
    n = grid.n_samples
    k = _bin_indices(n)
    passband = np.abs(k) <= cfg.filter_fraction * (n / 2.0)
    values = np.zeros(n, dtype=np.complex128)
    f_pass = grid.frequencies()[passband]
    try:
        gain = math.exp(-0.5 * fiber.alpha * cfg.dz_km)
    except OverflowError:
        gain = math.inf
    # A gain or phase beyond float range diverges like any other run.
    with np.errstate(over="ignore", invalid="ignore"):
        phase = (2.0 * np.pi**2 * fiber.beta2 * cfg.dz_km) * (f_pass * f_pass)
        values[passband] = gain * np.exp(1j * phase)
    return values


def run_segments(
    fields: np.ndarray,
    h: np.ndarray,
    gamma_dz: float,
    stops: Iterable[int],
    batch_bytes: int | None = None,
) -> Iterator[np.ndarray]:
    """Propagate a (..., n) field array and yield it at each segment count in ``stops``.

    One segment is the Kerr rotation followed by the linear step ``h``, one
    (n,) response for every row or one per row.  ``stops`` must be
    ascending, and the run ends at the last of them, so a shorter span is
    read off a longer run instead of being propagated again.  Each snapshot
    is a copy that later segments leave alone.  Rows evolve independently;
    non-finite values are allowed to propagate so callers can decide per row
    how to handle divergence.

    The loop works in one field, one factors and one phase buffer, so a
    segment allocates no complex-size temporary; three real ones remain,
    ``np.square(fields.imag)``, ``np.cos(phase)`` and ``np.sin(phase)``,
    which keeps ``cos``/``sin`` on the contiguous phase array.

    The fused complex multiply is not bitwise commutative, so the Kerr
    product's operand order is pinned by ``batch_bytes``, the byte size of
    the logical batch these rows belong to (by default ``fields`` itself):
    ``factors * fields`` from :data:`BLOCK_BYTES` up, else
    ``fields * factors``.  That is the order numpy's temporary elision gave
    the product before it was pinned, and a caller that splits a batch
    passes the whole batch's size with every part.
    """
    fields = np.array(fields, dtype=np.complex128)
    if batch_bytes is None:
        batch_bytes = fields.nbytes
    factors = np.empty_like(fields)
    phase = np.empty(fields.shape)
    kerr = (factors, fields) if batch_bytes >= BLOCK_BYTES else (fields, factors)
    done = 0
    for stop in stops:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(done, stop):
                np.square(fields.real, out=phase)
                phase += np.square(fields.imag)
                phase *= gamma_dz
                factors.real = np.cos(phase)
                factors.imag = np.sin(phase)
                np.multiply(*kerr, out=fields)
                np.fft.fft(fields, axis=-1, out=fields)
                np.multiply(fields, h, out=fields)
                np.fft.ifft(fields, axis=-1, out=fields)
        done = stop
        yield fields.copy()


def propagate(wave: Waveform, fiber: FiberParams, cfg: SsfmConfig) -> Waveform:
    """Propagate a waveform over the full span.

    The input must sit at z = 0 and the segment count must cover the span.
    Raises :class:`NumericalOverflowError` naming the segment at which field
    values first became non-finite, counted from 1.
    """
    if wave.z_km != 0.0:
        raise ValueError(f"input waveform must be at z = 0, got z = {wave.z_km} km")
    _check_span(cfg, fiber.span_km)
    h = linear_multiplier(wave.grid, fiber, cfg)
    (field,) = run_segments(wave.samples, h, fiber.gamma * cfg.dz_km, [cfg.n_seg])
    if not np.all(np.isfinite(field)):  # a non-finite value stays so: rerun to name its segment
        snapshots = run_segments(wave.samples, h, fiber.gamma * cfg.dz_km, range(1, cfg.n_seg + 1))
        for seg, field in enumerate(snapshots, start=1):
            if not np.all(np.isfinite(field)):
                raise NumericalOverflowError(seg)
    return Waveform(samples=field, grid=wave.grid, z_km=fiber.span_km)

