import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from ssfmlab import runner
from ssfmlab.bandwidth import sweep_bandwidth
from ssfmlab.engine import FiberParams
from ssfmlab.harness import Scenario
from ssfmlab.signals import LaunchSpec, gen_symbols, make_grid, shape_pulse

# CI boxes vary; deadlines only cause flakes on the FFT-heavy properties.
settings.register_profile("default", deadline=None, derandomize=True)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_grid():
    # 16 symbols at 8 samples/symbol, 100 ps symbols
    return make_grid(16, 8, 100.0)


@pytest.fixture
def small_waveform(small_grid):
    launch = LaunchSpec(power_dbm=3.0)
    return shape_pulse(gen_symbols(7, 16), small_grid, launch)


def energy(wave):
    """Total energy sum(|a|^2) dt of a waveform."""
    p = wave.samples.real**2 + wave.samples.imag**2
    return float(np.sum(p) * wave.grid.dt)


def mean_power(wave):
    """Time-average power mean(|a|^2) of a waveform."""
    p = wave.samples.real**2 + wave.samples.imag**2
    return float(np.mean(p))


def tiny_scenario(**overrides):
    """A scenario small enough for sub-second sweeps in unit tests."""
    base = dict(
        fiber=FiberParams(beta2=-21.7, gamma=1.27, span_km=20.0),
        launch=LaunchSpec(power_dbm=6.0),
        candidate_spp=6,
        candidate_dz_km=2.0,
        n_symbols=16,
        seeds=(0, 1),
        benchmark_spp=12,
        benchmark_dz_km=0.5,
    )
    base.update(overrides)
    return Scenario(**base)


def replace(scenario, **overrides):
    return dataclasses.replace(scenario, **overrides)


def search(scenario, fractions, threads=0, spans=None):
    """``sweep_bandwidth`` scored against a benchmark run of its own: one NSD
    curve per span, the seed mean of each of ``fractions`` in grid order."""
    bench_fields = runner.benchmark_fields(scenario, spans, threads)
    return sweep_bandwidth(scenario, fractions, bench_fields, threads=threads, spans=spans)
