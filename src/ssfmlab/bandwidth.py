"""Grid search for the low-pass filter bandwidth of a scenario."""

from __future__ import annotations

import logging
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import runner

if TYPE_CHECKING:  # pragma: no cover
    from .harness import Scenario

__all__ = ["default_fractions", "sweep_bandwidth"]

log = logging.getLogger(__name__)


def default_fractions(step: float = 0.01) -> tuple[float, ...]:
    """Search grid from 0.50 to 1.00 inclusive in steps of ``step``."""
    count = round(0.5 / step) if step > 0.0 else 0  # so the check refuses step <= 0 and NaN
    if not math.isclose(count * step, 0.5, rel_tol=1e-9):
        raise ValueError(f"step {step} does not divide the 0.50..1.00 range")
    return tuple(round(0.5 + i * step, 12) for i in range(count + 1))


def _validate_fractions(fractions: Sequence[float]) -> tuple[float, ...]:
    fractions = tuple(float(f) for f in fractions)
    if not fractions:
        raise ValueError("fraction grid is empty")
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"filter fraction {f} outside (0, 1]")
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise ValueError("fraction grid must be strictly ascending")
    if fractions[-1] != 1.0:
        raise ValueError("fraction grid must contain 1.0")
    return fractions


def _select_best(fractions: Sequence[float], values: Sequence[float]) -> tuple[float, float]:
    """Smallest NSD wins; ties go to the largest fraction."""
    best = min(values)
    tied = [fraction for fraction, value in zip(fractions, values) if value == best]
    return max(tied), best


def sweep_bandwidth(
    scenario: "Scenario",
    fractions: Sequence[float],
    bench_fields: np.ndarray,
    threads: int = 0,
    launch_fields: np.ndarray | None = None,
    spans: Sequence[float] | None = None,
) -> tuple[tuple[float, ...], ...]:
    """Evaluate a scenario's seed-averaged NSD over a filter-fraction grid.

    The fraction grid must be strictly ascending, lie in (0, 1] and contain
    1.0 so the unfiltered scheme is always a candidate.  ``bench_fields``
    are the benchmark outputs from :func:`runner.benchmark_fields` at the
    same ``spans``, reused across all fractions; callers that already hold
    the shaped inputs can pass ``launch_fields`` to skip reshaping them.
    The whole fraction grid runs as row blocks on ``threads`` workers
    (0 = one per CPU).  A fraction whose propagation diverges is recorded
    as NSD = +inf rather than failing the sweep, and each span with such
    fractions logs one warning.  In the package only the point loop of
    :mod:`ssfmlab.harness` calls it, so every sweep point, ``fig2`` row and
    ``optimize-bandwidth`` search is scored here.

    It only scores, returning one curve per span: the seed-mean NSD of each
    fraction in grid order (the point loop picks each row's fraction).  With
    ``spans`` (ascending km) each fraction is propagated once and scored at
    every span; without, the tuple holds the scenario's span.
    """
    fractions = _validate_fractions(fractions)
    if launch_fields is None:
        launch_fields = runner.shaped_fields(scenario)
    per_seed = runner.fraction_nsds(scenario, fractions, launch_fields, bench_fields, spans, threads)
    curves = tuple(tuple(float(np.mean(row)) for row in at_span) for at_span in per_seed)
    for curve in curves:
        n_bad = sum(1 for v in curve if not math.isfinite(v))
        if n_bad:
            log.warning("%d of %d fractions overflowed (reported as inf)", n_bad, len(curve))
    return curves
