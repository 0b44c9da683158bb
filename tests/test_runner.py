import numpy as np
import pytest

from ssfmlab import FiberParams, engine, runner

from conftest import tiny_scenario


def five_seeds(large):
    """Five seeds whose benchmark batch is below BLOCK_BYTES, or above it
    (128 symbols at 30 spp: 60 KiB a row, 300 KiB in all)."""
    grid = dict(n_symbols=128, benchmark_spp=30) if large else {}
    return tiny_scenario(
        fiber=FiberParams(beta2=-21.7, gamma=1.27, span_km=8.0),
        seeds=(0, 1, 2, 3, 4),
        **grid,
    )


class TestBenchmarkFields:
    @pytest.mark.parametrize("spans", [None, (2.0, 4.0, 8.0)])
    @pytest.mark.parametrize("large", [False, True])
    def test_thread_count_changes_no_bit(self, large, spans):
        scenario = five_seeds(large)
        grid = runner.benchmark_grid(scenario)
        assert (5 * grid.n_samples * 16 >= engine.BLOCK_BYTES) == large
        results = [runner.benchmark_fields(scenario, spans, threads) for threads in (1, 2, 3)]
        n_spans = 1 if spans is None else len(spans)
        assert results[0].shape == (n_spans, 5, grid.n_samples)
        for threads, result in zip((2, 3), results[1:]):
            assert np.array_equal(result, results[0]), f"{threads} threads"
        # one unsplit run of the whole batch, in the order its size gives
        launch = runner._shaped_batch(scenario, grid)
        cfg = engine.SsfmConfig.from_step(8.0, scenario.benchmark_dz_km)
        h = engine.linear_multiplier(grid, scenario.fiber, cfg)
        stops = [round(span / scenario.benchmark_dz_km) for span in spans or (8.0,)]
        whole = list(engine.run_segments(launch, h, scenario.fiber.gamma * cfg.dz_km, stops))
        assert np.array_equal(results[0], np.array(whole))


class TestFractionNsds:
    @pytest.mark.parametrize("spans", [None, (4.0, 8.0)])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_grid_equals_one_fraction_calls(self, threads, spans):
        scenario = five_seeds(large=False)
        fractions = (0.6, 0.8, 1.0)
        launch = runner.shaped_fields(scenario)
        bench = runner.benchmark_fields(scenario, spans)
        grid = runner.fraction_nsds(scenario, fractions, launch, bench, spans, threads)
        assert grid.shape == (1 if spans is None else len(spans), len(fractions), 5)
        for k, fraction in enumerate(fractions):
            alone = runner.fraction_nsds(scenario, (fraction,), launch, bench, spans)
            for j in range(grid.shape[0]):
                for seed in range(5):
                    assert grid[j, k, seed] == alone[j, 0, seed], (j, fraction, seed)
