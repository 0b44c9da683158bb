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
    """
    if not math.isclose(reference.z_km, candidate.z_km, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(
            f"waveforms sit at different distances: {reference.z_km} km vs {candidate.z_km} km"
        )
    resampled = resample_bandlimited(candidate, reference.grid)
    diff = reference.samples - resampled.samples
    num = np.sum(diff.real**2 + diff.imag**2)
    den = np.sum(reference.samples.real**2 + reference.samples.imag**2)
    if den == 0.0:
        raise DegenerateInputError("reference waveform has zero energy")
    return float(num / den)
