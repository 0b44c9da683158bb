"""Accuracy metric: normalized square difference between two runs."""

from __future__ import annotations

import math

import numpy as np

from .signals import Waveform, resample_bandlimited

__all__ = ["DegenerateInputError", "nsd"]


class DegenerateInputError(ValueError):
    """Raised when the reference waveform carries no energy."""


def nsd(reference: Waveform, candidate: Waveform) -> float:
    """Normalized square difference of ``candidate`` against ``reference``.

    The candidate is resampled onto the reference grid by trigonometric
    interpolation and the energy of the complex difference is normalized by
    the reference energy: sum |a - a_hat|^2 dt / sum |a|^2 dt.  Both
    waveforms must cover the same window and sit at the same distance.
    When the reference's peak magnitude is 1 or more, both waveforms are
    scaled down by the power of two that brings it into [0.5, 1), so that
    neither sum of squares overflows at any launch power.  The scaling is
    exact, and so moves no bit of the ratio, unless a scaled square is
    subnormal.  A smaller reference is not scaled up: one whose squares all
    underflow to 0 is refused as carrying no energy.
    """
    if not math.isclose(reference.z_km, candidate.z_km, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(
            f"waveforms sit at different distances: {reference.z_km} km vs {candidate.z_km} km"
        )
    resampled = resample_bandlimited(candidate, reference.grid)
    scale = math.ldexp(1.0, -max(math.frexp(np.max(np.abs(reference.samples)))[1], 0))
    diff = (reference.samples - resampled.samples) * scale
    ref = reference.samples * scale
    num = np.sum(diff.real**2 + diff.imag**2)
    den = np.sum(ref.real**2 + ref.imag**2)
    if den == 0.0:
        raise DegenerateInputError("reference waveform has zero energy")
    return float(num / den)
