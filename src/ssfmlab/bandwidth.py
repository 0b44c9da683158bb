"""Grid search for the low-pass filter bandwidth of a scenario."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import runner

if TYPE_CHECKING:  # pragma: no cover
    from .harness import Scenario

__all__ = ["BandwidthSweep", "default_fractions", "sweep_bandwidth"]


def default_fractions(step: float = 0.01) -> tuple[float, ...]:
    """Search grid from 0.50 to 1.00 inclusive in steps of ``step``."""
    count = round(0.5 / step)
    if not math.isclose(count * step, 0.5, rel_tol=1e-9):
        raise ValueError(f"step {step} does not divide the 0.50..1.00 range")
    return tuple(round(0.5 + i * step, 12) for i in range(count + 1))


@dataclass(frozen=True)
class BandwidthSweep:
    """NSD of one scenario across filter fractions, plus the best point."""

    fractions: tuple[float, ...]
    nsd_values: tuple[float, ...]
    best_fraction: float
    best_nsd: float

    def value_at(self, fraction: float) -> float:
        return self.nsd_values[self.fractions.index(fraction)]


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
    for fraction, value in zip(reversed(fractions), reversed(values)):
        if value == best:
            return fraction, value
    return fractions[-1], best  # pragma: no cover - min always present


def sweep_bandwidth(
    scenario: "Scenario",
    fractions: Sequence[float] | None = None,
    threads: int = 1,
    launch_fields: np.ndarray | None = None,
    bench_fields: np.ndarray | None = None,
    spans: Sequence[float] | None = None,
) -> tuple[BandwidthSweep, ...]:
    """Evaluate a scenario's seed-averaged NSD over a filter-fraction grid.

    The fraction grid must be strictly ascending, lie in (0, 1] and contain
    1.0 so the unfiltered scheme is always a candidate.  Benchmark outputs
    are computed once per seed and reused across all fractions; callers that
    already hold them can pass ``launch_fields``/``bench_fields`` to skip the
    recomputation.  The benchmark and the whole fraction grid each run as
    row blocks on ``threads`` workers (0 = one per CPU).  A fraction whose
    propagation diverges is recorded as NSD = +inf rather than failing the
    sweep.

    One sweep per span is returned as a tuple.  With ``spans`` (ascending
    km, see :func:`runner.benchmark_fields`) each fraction is propagated once
    and scored at every span; without, the tuple holds the scenario's span.
    """
    fractions = _validate_fractions(fractions if fractions is not None else default_fractions())
    if launch_fields is None:
        launch_fields = runner.shaped_fields(scenario)
    if bench_fields is None:
        bench_fields = runner.benchmark_fields(scenario, spans, threads)
    per_seed = runner.fraction_nsds(scenario, fractions, launch_fields, bench_fields, spans, threads)
    sweeps = []
    for at_span in per_seed:
        values = tuple(float(np.mean(row)) for row in at_span)
        best_fraction, best_nsd = _select_best(fractions, values)
        sweeps.append(BandwidthSweep(fractions, values, best_fraction, best_nsd))
    return tuple(sweeps)
