import threading
import tracemalloc

import numpy as np
import pytest

from ssfmlab import engine, runner
from ssfmlab.engine import FiberParams

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
    def test_thread_count_changes_no_bit(self, large, spans, monkeypatch):
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 3)  # 3 workers split the rows
        scenario = five_seeds(large)
        grid = scenario.benchmark_grid
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
    def test_grid_equals_one_fraction_calls(self, threads, spans, monkeypatch):
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 3)  # 3 workers split the rows
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

    def test_holds_no_response_per_fraction(self):
        """Each row block builds its own rows' responses, so a 501-fraction
        grid never holds the 12.3 MB that one response per fraction takes."""
        scenario = tiny_scenario(  # 1,536 candidate samples, one 2 km segment
            fiber=FiberParams(beta2=-21.7, gamma=1.27, span_km=2.0), n_symbols=256, seeds=(0,)
        )
        fractions = tuple(round(0.5 + i * 0.001, 12) for i in range(501))
        launch = runner.shaped_fields(scenario)
        bench = runner.benchmark_fields(scenario)
        stack_bytes = len(fractions) * scenario.candidate_grid.n_samples * 16
        tracemalloc.start()
        try:
            values = runner.fraction_nsds(scenario, fractions, launch, bench, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (1, 501, 1) and np.all(np.isfinite(values))
        assert peak < stack_bytes, f"peak {peak / 1e6:.1f} MB"


@pytest.fixture
def recording_pool(monkeypatch):
    """Stand in for ``ThreadPoolExecutor`` with a pool that records its size
    and blocks and runs every block inline, so no thread is started."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append({"max_workers": max_workers, "blocks": []})

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, blocks):
            pools[-1]["blocks"].extend(blocks)
            return [fn(block) for block in pools[-1]["blocks"]]

    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(runner, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    return pools


class TestRunBlocks:
    def test_pool_is_capped_at_one_thread_per_cpu(self, recording_pool, monkeypatch):
        """``threads`` above the CPU count opens a pool of one worker per CPU,
        and the rows are split into whole rounds of that pool, not finer."""
        scenario = five_seeds(large=False)
        fractions = (0.6, 0.8, 1.0)
        launch = runner.shaped_fields(scenario)
        bench = runner.benchmark_fields(scenario, threads=1)
        serial = runner.fraction_nsds(scenario, fractions, launch, bench, threads=1)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
        recording_pool.clear()
        capped = runner.fraction_nsds(scenario, fractions, launch, bench, threads=5000)
        assert [pool["max_workers"] for pool in recording_pool] == [2]
        assert recording_pool[0]["blocks"] == [range(0, 7), range(7, 15)]
        assert np.array_equal(capped, serial)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("threads", [0, 1, 2, 5])
    @pytest.mark.parametrize(
        "rows, row_bytes",
        [(1, 1024), (3, 96 * 1024), (5, 300 * 1024), (15, 1024), (66, 16 * 1024),
         (40, 30 * 1024), (510, 16 * 1024), (7, 256 * 1024)],
    )
    def test_blocks_are_whole_rounds_of_one_pool(
        self, recording_pool, monkeypatch, rows, row_bytes, threads, cpus
    ):
        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        seen = []
        runner._run_blocks(seen.append, rows, row_bytes, threads)
        (pool,) = recording_pool
        workers, blocks = pool["max_workers"], pool["blocks"]
        assert workers == min(threads or cpus, cpus, rows)
        assert seen == blocks
        assert [row for block in blocks for row in block] == list(range(rows))
        assert all(len(block) > 0 for block in blocks)
        assert len(blocks) % workers == 0 or len(blocks) == rows
        for block in blocks:
            assert len(block) * row_bytes <= engine.BLOCK_BYTES or len(block) == 1
        # one round fewer would need a block beyond BLOCK_BYTES
        per_block = max(1, engine.BLOCK_BYTES // row_bytes)
        assert len(blocks) <= workers or (len(blocks) - workers) * per_block < rows
