import math

import numpy as np
import pytest

from ssfmlab import FiberParams, default_fractions, sweep_bandwidth
from ssfmlab.bandwidth import _select_best

from conftest import replace, tiny_scenario


class TestDefaultFractions:
    def test_standard_grid(self):
        grid = default_fractions()
        assert len(grid) == 51
        assert grid[0] == 0.5
        assert grid[-1] == 1.0
        np.testing.assert_allclose(np.diff(grid), 0.01, rtol=1e-9)

    def test_coarse_grid(self):
        grid = default_fractions(0.05)
        assert len(grid) == 11
        assert grid[0] == 0.5 and grid[-1] == 1.0

    def test_rejects_non_dividing_step(self):
        with pytest.raises(ValueError):
            default_fractions(0.03)


class TestSelectBest:
    def test_unique_minimum(self):
        assert _select_best((0.5, 0.75, 1.0), (3.0, 1.0, 2.0)) == (0.75, 1.0)

    def test_tie_goes_to_largest_fraction(self):
        assert _select_best((0.5, 0.75, 1.0), (3.0, 1.0, 1.0)) == (1.0, 1.0)

    def test_ignores_diverged_entries(self):
        assert _select_best((0.5, 0.75, 1.0), (math.inf, 2.0, 5.0)) == (0.75, 2.0)

    def test_all_diverged(self):
        fraction, value = _select_best((0.5, 1.0), (math.inf, math.inf))
        assert fraction == 1.0 and math.isinf(value)


class TestSweepBandwidth:
    def test_result_shape_and_best_point(self):
        scenario = tiny_scenario()
        sweeps = sweep_bandwidth(scenario, fractions=(0.6, 0.8, 1.0))
        assert sweeps == sweep_bandwidth(scenario, (0.6, 0.8, 1.0), spans=(scenario.fiber.span_km,))
        (result,) = sweeps
        assert result.fractions == (0.6, 0.8, 1.0)
        assert len(result.nsd_values) == 3
        assert all(v >= 0.0 for v in result.nsd_values)
        assert result.best_nsd == min(result.nsd_values)
        assert result.best_fraction in result.fractions
        assert result.value_at(1.0) == result.nsd_values[-1]

    def test_deterministic(self):
        scenario = tiny_scenario()
        a = sweep_bandwidth(scenario, fractions=(0.7, 1.0))
        b = sweep_bandwidth(scenario, fractions=(0.7, 1.0))
        assert a == b

    def test_subset_grid_reproduces_full_grid_values(self):
        """Each fraction is scored independently from cached inputs, so a
        sweep over a sub-grid returns exactly the values of the full grid."""
        scenario = tiny_scenario()
        (full,) = sweep_bandwidth(scenario, fractions=(0.5, 0.7, 0.9, 1.0))
        (subset,) = sweep_bandwidth(scenario, fractions=(0.7, 1.0))
        assert subset.value_at(0.7) == full.value_at(0.7)
        assert subset.value_at(1.0) == full.value_at(1.0)

    def test_precomputed_fields_change_nothing(self):
        from ssfmlab import runner

        scenario = tiny_scenario()
        launch_fields = runner.shaped_fields(scenario)
        bench_fields = runner.benchmark_fields(scenario)
        direct = sweep_bandwidth(scenario, fractions=(0.7, 1.0))
        cached = sweep_bandwidth(
            scenario,
            fractions=(0.7, 1.0),
            launch_fields=launch_fields,
            bench_fields=bench_fields,
        )
        assert direct == cached

    def test_thread_count_does_not_change_results(self):
        scenario = tiny_scenario()
        serial = sweep_bandwidth(scenario, fractions=(0.5, 0.7, 0.9, 1.0), threads=1)
        threaded = sweep_bandwidth(scenario, fractions=(0.5, 0.7, 0.9, 1.0), threads=3)
        assert serial == threaded

    def test_divergent_scenario_scores_inf_instead_of_failing(self):
        # a 400 km gain fiber overflows every run within the segment budget
        scenario = tiny_scenario(
            fiber=FiberParams(beta2=-21.7, gamma=1.27, span_km=400.0, alpha=-2.0),
            candidate_dz_km=10.0,
            benchmark_dz_km=10.0,
        )
        (result,) = sweep_bandwidth(scenario, fractions=(0.7, 1.0))
        assert all(math.isinf(v) for v in result.nsd_values)

    @pytest.mark.parametrize(
        "fractions",
        [(), (0.8, 0.6, 1.0), (0.6, 0.8), (0.0, 1.0), (0.5, 1.5)],
    )
    def test_rejects_bad_fraction_grids(self, fractions):
        with pytest.raises(ValueError):
            sweep_bandwidth(tiny_scenario(), fractions=fractions)

    def test_filtering_helps_an_undersampled_scenario(self):
        """With a deliberately coarse candidate grid the optimum sits below
        1.0: cutting aliased spectral content beats keeping it."""
        scenario = replace(
            tiny_scenario(),
            fiber=FiberParams(beta2=-21.7, gamma=1.27, span_km=100.0),
            launch=tiny_scenario().launch,
            candidate_spp=4,
            candidate_dz_km=1.0,
            benchmark_dz_km=0.5,
        )
        (result,) = sweep_bandwidth(scenario, fractions=default_fractions(0.05))
        assert result.best_fraction < 1.0
        assert result.best_nsd < result.value_at(1.0)
