import math

import numpy as np
import pytest

from ssfmlab import runner
from ssfmlab.engine import FiberParams
from ssfmlab.harness import ScenarioError, _preset_scenario, _select_best, parse_fraction_spec

from conftest import replace, search, tiny_scenario


class TestDefaultFractions:
    """The fraction grids a scenario searches unless it names its own: the
    ``Scenario`` default and the full-scale presets step by 0.01, the desk
    presets by 0.05, each spelled as a ``parse_fraction_spec`` range."""

    def test_standard_grid(self):
        for grid in (
            tiny_scenario().optimize_fractions,
            _preset_scenario(16, 10.0, False, 3, 100.0, 0.1).optimize_fractions,
        ):
            assert len(grid) == 51
            assert grid[0] == 0.5
            assert grid[-1] == 1.0
            np.testing.assert_allclose(np.diff(grid), 0.01, rtol=1e-9)

    def test_coarse_grid(self):
        grid = _preset_scenario(16, 10.0, True, 3, 100.0, 0.1).optimize_fractions
        assert len(grid) == 11
        assert grid[0] == 0.5 and grid[-1] == 1.0
        np.testing.assert_allclose(np.diff(grid), 0.05, rtol=1e-9)

    def test_rejects_non_dividing_step(self):
        for step, message in (
            ("0.03", "step does not divide"),
            ("0", "cannot parse"),
            ("-0.01", "does not lead from start to stop"),
            ("nan", "does not lead from start to stop"),
        ):
            with pytest.raises(ScenarioError, match=message):
                parse_fraction_spec(f"0.5:{step}:1.0")


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
        grid = (0.6, 0.8, 1.0)
        assert search(scenario, grid) == search(scenario, grid, spans=(scenario.fiber.span_km,))
        launch_fields = runner.shaped_fields(scenario)
        for spans in (None, (10.0, 20.0)):
            curves = search(scenario, grid, spans=spans)
            # one curve per span, each entry the seed mean of runner.fraction_nsds'
            # row for that fraction, bit for bit
            bench_fields = runner.benchmark_fields(scenario, spans)
            per_seed = runner.fraction_nsds(scenario, grid, launch_fields, bench_fields, spans)
            assert len(curves) == len(spans or (scenario.fiber.span_km,))
            for curve, at_span in zip(curves, per_seed):
                assert [v.hex() for v in curve] == [float(np.mean(row)).hex() for row in at_span]
                assert len(curve) == 3
                assert all(type(v) is float and v >= 0.0 for v in curve)
                best_fraction, best_nsd = _select_best(grid, curve)
                assert best_nsd == min(curve)
                assert best_fraction in grid
                assert curve[grid.index(1.0)] == curve[-1]

    def test_deterministic(self):
        scenario = tiny_scenario()
        a = search(scenario, (0.7, 1.0))
        b = search(scenario, (0.7, 1.0))
        assert a == b

    def test_subset_grid_reproduces_full_grid_values(self):
        """Each fraction is scored independently from cached inputs, so a
        sweep over a sub-grid returns exactly the values of the full grid."""
        scenario = tiny_scenario()
        full_grid, subset_grid = (0.5, 0.7, 0.9, 1.0), (0.7, 1.0)
        (full,) = search(scenario, full_grid)
        (subset,) = search(scenario, subset_grid)
        for fraction in (0.7, 1.0):
            assert subset[subset_grid.index(fraction)] == full[full_grid.index(fraction)]

    def test_thread_count_does_not_change_results(self):
        scenario = tiny_scenario()
        serial = search(scenario, (0.5, 0.7, 0.9, 1.0), threads=1)
        threaded = search(scenario, (0.5, 0.7, 0.9, 1.0), threads=3)
        assert serial == threaded

    def test_divergent_scenario_scores_inf_instead_of_failing(self):
        # a 400 km gain fiber overflows every run within the segment budget
        scenario = tiny_scenario(
            fiber=FiberParams(beta2=-21.7, gamma=1.27, span_km=400.0, alpha=-2.0),
            candidate_dz_km=10.0,
            benchmark_dz_km=10.0,
        )
        (curve,) = search(scenario, (0.7, 1.0))
        assert len(curve) == 2 and all(math.isinf(v) for v in curve)

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
        grid = parse_fraction_spec("0.5:0.05:1.0")
        (curve,) = search(scenario, grid)
        best_fraction, best_nsd = _select_best(grid, curve)
        assert best_fraction < 1.0
        assert best_nsd < curve[grid.index(1.0)]
