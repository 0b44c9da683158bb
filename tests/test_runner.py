import concurrent.futures
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ssfmlab import engine, runner
from ssfmlab.cli import main
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

    def test_holds_no_copy_of_the_snapshot_stack(self, recording_pool, monkeypatch):
        """Each block writes its snapshots into the shared result, so the
        caller's heap never holds the (spans, seeds, samples) stack: with 8
        spans in two blocks, its peak stays below that one stack.  The blocks
        run inline, where ``tracemalloc`` sees them, and the peak holds at
        least the launch batch the caller shapes."""
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
        scenario = five_seeds(large=True)
        spans = tuple(float(km) for km in range(1, 9))
        tracemalloc.start()
        try:
            out = runner.benchmark_fields(scenario, spans, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(recording_pool[0]["blocks"]) == 2
        assert out[0].nbytes <= peak < out.nbytes, f"peak {peak / out[0].nbytes:.1f} batches"


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

    def test_holds_no_response_per_fraction(self, recording_pool):
        """Each row block builds its own rows' responses, so a 501-fraction
        grid never holds the 12.3 MB that one response per fraction takes.
        The blocks run inline, where ``tracemalloc`` sees them, and the
        peak holds at least one 10-row block's responses."""
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
        assert 10 * scenario.candidate_grid.n_samples * 16 <= peak < stack_bytes, (
            f"peak {peak / 1e6:.1f} MB"
        )


@pytest.fixture
def recording_pool(monkeypatch):
    """Stand in for the forked ``ProcessPoolExecutor`` with a pool that
    records its size and blocks and runs every block inline through the task
    it installs in its workers, so no thread or process is started."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            assert mp_context.get_start_method() == "fork"
            assert initializer is runner._install
            (self.task,) = initargs
            pools.append({"max_workers": max_workers, "blocks": []})

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, blocks):
            assert fn is runner._call
            pools[-1]["blocks"].extend(blocks)
            return [self.task(block) for block in pools[-1]["blocks"]]

    def refuse(*args, **kwargs):
        raise AssertionError("a thread or process was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
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

    @pytest.mark.parametrize("fault, message", [("raise", "block"), ("kill", "a worker process was killed")])
    def test_block_error_reraises_in_the_parent(self, fault, message, tmp_path, monkeypatch, capsys):
        """A worker's exception comes back with its type and message, a
        worker killed while it runs (as the kernel kills one when memory runs
        out) raises ``MemoryError``, and ``main`` reports either as it would
        an error in its own process: exit 2 and one ``error:`` line."""
        config = tmp_path / "scenario.txt"
        config.write_text("span_km = 8\npower_dbm = 6\ncandidate_spp = 6\ncandidate_dz_km = 2\n"
                          "benchmark_spp = 12\nbenchmark_dz_km = 0.5\nn_symbols = 16\nseeds = 2\n",
                          encoding="utf-8")
        monkeypatch.chdir(tmp_path)

        caller = os.getpid()

        def exhausted(*args):
            assert os.getpid() != caller, "a block ran in the calling process"
            if fault == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise MemoryError("block")

        monkeypatch.setattr(engine, "run_segments", exhausted)
        with pytest.raises(MemoryError) as exc:
            runner.benchmark_fields(five_seeds(large=False), threads=2)
        assert type(exc.value) is MemoryError and str(exc.value) == message
        assert main(["sweep", "--axis", "distance", "--values", "8", "--config", str(config)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: out of memory: {message}"]

    def test_no_worker_outlives_its_call(self):
        scenario = five_seeds(large=False)
        launch = runner.shaped_fields(scenario)
        bench = runner.benchmark_fields(scenario, threads=2)
        runner.fraction_nsds(scenario, (0.6, 1.0), launch, bench, threads=2)
        assert multiprocessing.active_children() == []

    def test_workers_leave_ctrl_c_to_the_parent(self, monkeypatch):
        """Workers ignore SIGINT, so Ctrl-C raises one ``KeyboardInterrupt``
        in the parent and no worker prints a traceback."""
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
        ignored = runner._shared((2,), np.bool_)

        def probe(block):
            ignored[block.start] = signal.getsignal(signal.SIGINT) is signal.SIG_IGN

        runner._run_blocks(probe, 2, engine.BLOCK_BYTES, 2)
        assert ignored.tolist() == [True, True]
        assert signal.getsignal(signal.SIGINT) is not signal.SIG_IGN

    def test_cli_import_leaves_the_pool_machinery_out(self):
        """The pool's modules are imported when a pool opens, so a command's
        start-up does not pay for them."""
        probe = "import sys, ssfmlab.cli; print('multiprocessing' in sys.modules)"
        src = os.path.dirname(os.path.dirname(runner.__file__))
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.strip() == "False"
