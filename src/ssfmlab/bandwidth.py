"""Grid search for the low-pass filter bandwidth of a scenario."""

from __future__ import annotations

import logging
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import runner

if TYPE_CHECKING:  # pragma: no cover
    from .harness import Scenario

__all__ = ["sweep_bandwidth"]

log = logging.getLogger(__name__)


def sweep_bandwidth(
    scenario: "Scenario",
    fractions: Sequence[float],
    launch_fields: np.ndarray,
    bench_fields: np.ndarray,
    threads: int = 0,
    spans: Sequence[float] | None = None,
) -> tuple[tuple[float, ...], ...]:
    """Evaluate a scenario's seed-averaged NSD over a filter-fraction grid.

    ``fractions`` is checked by :class:`~ssfmlab.harness.Scenario`: strictly
    ascending, in (0, 1] and holding 1.0, so the unfiltered scheme is always
    a candidate.  Every fraction runs from ``launch_fields``
    (:func:`runner.shaped_fields`) against ``bench_fields``
    (:func:`runner.benchmark_fields` at the same ``spans``), as row blocks of
    one run on ``threads`` workers (0 = one per CPU).  A fraction whose
    propagation diverges is recorded as NSD = +inf rather than failing the
    sweep, and each span with such fractions logs one warning.  In the
    package only the point loop of :mod:`ssfmlab.harness` calls it, so every
    sweep point, ``fig2`` row and ``optimize-bandwidth`` search is scored here.

    It only scores, returning one curve per span: the seed-mean NSD of each
    fraction in grid order (the point loop picks each row's fraction).  With
    ``spans`` (ascending km) each fraction is propagated once and scored at
    every span; without, the tuple holds the scenario's span.
    """
    per_seed = runner.fraction_nsds(scenario, fractions, launch_fields, bench_fields, spans, threads)
    curves = tuple(tuple(float(np.mean(row)) for row in at_span) for at_span in per_seed)
    for curve in curves:
        n_bad = sum(1 for v in curve if not math.isfinite(v))
        if n_bad:
            log.warning("%d of %d fractions overflowed (reported as inf)", n_bad, len(curve))
    return curves
