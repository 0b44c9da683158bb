import contextlib
import dataclasses
import io
import logging
import math
import multiprocessing.process
import os
import re
import threading
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ssfmlab import engine, harness, runner
from ssfmlab.cli import main

TINY = """
span_km = 20
power_dbm = 6
candidate_spp = 6
candidate_dz_km = 2
benchmark_spp = 12
benchmark_dz_km = 0.5
n_symbols = 16
seeds = 2
filter_fraction = {fraction}
"""
# Just above three benchmark batches of TINY (2 seeds x 16 symbols x 12 samples x 16 B).
THREE_BATCHES = 3 * 2 * 16 * 12 * 16 + 1


def refuse_process(*args, **kwargs):
    raise AssertionError("a worker process was started")


@pytest.fixture
def config(tmp_path):
    def write(name="scenario.txt", fraction="0.8", extra=""):
        path = tmp_path / name
        path.write_text(TINY.format(fraction=fraction) + extra, encoding="utf-8")
        return str(path)

    return write


@pytest.fixture(autouse=True)
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


class TestPropagate:
    def test_writes_default_trace(self, config, tmp_path, capsys):
        assert main(["propagate", "--config", config()]) == 0
        out = tmp_path / "propagate.csv"
        assert out.exists()
        assert out.read_text(encoding="utf-8").startswith("t_ps,re,im\n")
        assert "wrote" in capsys.readouterr().out

    def test_honors_out_path(self, config, tmp_path):
        target = tmp_path / "wave.csv"
        assert main(["propagate", "--config", config(), "--out", str(target)]) == 0
        assert target.exists()

    def test_needs_numeric_fraction(self, config):
        assert main(["propagate", "--config", config(fraction="optimize")]) == 2

    def test_seed_override(self, config, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["propagate", "--config", config(), "--seeds", "3,4", "--out", str(a)]) == 0
        assert main(["propagate", "--config", config(), "--seeds", "4,3", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()  # first listed seed is propagated

    def test_unallocatable_symbol_count_exits_2(self, tmp_path, capsys):
        """numpy refuses a 1e12-symbol draw at once, so nothing is allocated."""
        path = tmp_path / "huge.txt"
        path.write_text(
            TINY.format(fraction="0.8").replace("n_symbols = 16", "n_symbols = 1e12"),
            encoding="utf-8",
        )
        assert main(["propagate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: out of memory: ")
        assert not (tmp_path / "propagate.csv").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["propagate", "--config", str(tmp_path / "nope.txt")]) == 2

    def test_malformed_config_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("span_km == 3\n", encoding="utf-8")
        assert main(["propagate", "--config", str(bad)]) == 2


class TestNsd:
    def test_compares_two_run_specs(self, config, capsys):
        reference = config("ref.txt", fraction="1.0")
        candidate = config("cand.txt", fraction="0.8")
        assert main(["nsd", reference, candidate]) == 0
        out = capsys.readouterr().out
        assert out.startswith("nsd = ")
        assert "over 2 seed(s)" in out

    def test_writes_value_file(self, config, tmp_path):
        reference = config("ref.txt", fraction="1.0")
        out = tmp_path / "value.csv"
        assert main(["nsd", reference, reference, "--out", str(out)]) == 0
        assert out.read_bytes() == b"nsd\n0.000000000000e+00\n"  # identical specs

    def test_value_file_holds_the_printed_value(self, config, tmp_path, capsys):
        """The file is a header line and the printed mean, 13 significant digits, LF-terminated."""
        reference, candidate = config("ref.txt", fraction="1.0"), config("cand.txt")
        out = tmp_path / "value.csv"
        assert main(["nsd", reference, candidate, "--out", str(out)]) == 0
        value = capsys.readouterr().out.split()[2]
        assert re.fullmatch(r"[1-9]\.\d{12}e[+-]\d{2}", value)
        assert out.read_bytes() == b"nsd\n" + value.encode() + b"\n"

    def test_rejects_mismatched_spans(self, config, tmp_path):
        reference = config("ref.txt", fraction="1.0")
        other = tmp_path / "far.txt"
        other.write_text(
            TINY.format(fraction="1.0").replace("span_km = 20", "span_km = 40"),
            encoding="utf-8",
        )
        assert main(["nsd", reference, str(other)]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("span_km", "40"),
            ("beta2_ps2_per_km", "-20"),
            ("gamma_per_w_km", "1.3"),
            ("alpha_per_km", "0.2"),
            ("power_dbm", "7"),
            ("rolloff", "0.2"),
            ("baud_gbaud", "20"),
            ("n_symbols", "32"),
            ("seeds", "1,2"),
        ],
    )
    def test_rejects_specs_with_another_transmitter_or_channel(
        self, config, tmp_path, capsys, key, value
    ):
        reference = config("ref.txt", fraction="1.0")
        text = TINY.format(fraction="1.0")
        lines = [line for line in text.splitlines() if not line.startswith(key)]
        other = tmp_path / "other.txt"
        other.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n", encoding="utf-8")
        assert main(["nsd", reference, str(other)]) == 2
        assert capsys.readouterr().err == f"error: run specs disagree on {key}\n"

    def test_candidate_samples_step_and_fraction_may_differ(self, tmp_path):
        reference = tmp_path / "ref.txt"
        reference.write_text(TINY.format(fraction="1.0"), encoding="utf-8")
        candidate = tmp_path / "cand.txt"
        candidate.write_text(
            TINY.format(fraction="0.7")
            .replace("candidate_spp = 6", "candidate_spp = 4")
            .replace("candidate_dz_km = 2", "candidate_dz_km = 4"),
            encoding="utf-8",
        )
        assert main(["nsd", str(reference), str(candidate)]) == 0

    def test_overflow_everywhere_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "gain.txt"
        spec.write_text(
            "span_km = 400\npower_dbm = 6\ncandidate_spp = 6\ncandidate_dz_km = 10\n"
            "benchmark_spp = 12\nbenchmark_dz_km = 10\nn_symbols = 16\nseeds = 1\n"
            "filter_fraction = 1.0\nalpha_per_km = -2\n",
            encoding="utf-8",
        )
        assert main(["nsd", str(spec), str(spec)]) == 3
        assert capsys.readouterr().err == "error: numerical overflow left no finite NSD\n"


class TestSweep:
    def test_writes_axis_csv(self, config, tmp_path):
        assert main(["sweep", "--axis", "distance", "--values", "10,20", "--config", config()]) == 0
        lines = (tmp_path / "sweep_distance.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("distance_km,")
        assert len(lines) == 3

    def test_bandwidth_axis(self, config, tmp_path):
        out = tmp_path / "bw.csv"
        code = main(
            ["sweep", "--axis", "bandwidth", "--values", "0.7,1.0", "--config", config(), "--out", str(out)]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("filter_fraction,")

    def test_bandwidth_points_share_one_run(self, config, tmp_path):
        """Bandwidth values pin the fraction of their point, and the points
        share one benchmark and one candidate run of the values plus 1.0;
        the rows come back in the given order."""
        out = tmp_path / "bw.csv"
        argv = ["sweep", "--axis", "bandwidth", "--values", "0.9,0.6,0.9", "--config", config()]
        bench = mock.patch.object(runner, "benchmark_fields", wraps=runner.benchmark_fields)
        candidates = mock.patch.object(runner, "fraction_nsds", wraps=runner.fraction_nsds)
        with bench as bench_calls, candidates as candidate_calls:
            assert main(argv + ["--out", str(out)]) == 0
        assert bench_calls.call_count == 1
        assert candidate_calls.call_count == 1
        assert tuple(candidate_calls.call_args.args[1]) == (0.6, 0.9, 1.0)
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert [(row[0], row[3]) for row in rows] == [("0.9", "0.9"), ("0.6", "0.6"), ("0.9", "0.9")]
        assert rows[0] == rows[2]

    def test_bad_values_exit_2(self, config):
        assert main(["sweep", "--axis", "power", "--values", "3,x", "--config", config()]) == 2

    @pytest.mark.parametrize(
        "values, message",
        [
            ("10,15", "error: 8 segments of 2.0 km do not cover a 15.0 km span"),
            ("10,-5", "error: span_km must be positive, got -5.0"),
            ("10,0", "error: span_km must be positive, got 0.0"),
        ],
    )
    def test_bad_distance_fails_before_any_propagation(
        self, config, tmp_path, capsys, monkeypatch, values, message
    ):
        runs = []
        monkeypatch.setattr(engine, "run_segments", lambda *args: runs.append(args) or iter(()))
        # a forked worker's call would not reach ``runs``
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse_process)
        code = main(["sweep", "--axis", "distance", "--values", values, "--config", config()])
        assert code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == message
        assert not (tmp_path / "sweep_distance.csv").exists()
        assert runs == []

    def test_one_span_group_fits_three_batches(self, config, tmp_path, monkeypatch):
        """The 3 batches a Scenario is bounded by are enough for a 1-span sweep."""
        monkeypatch.setattr(harness, "_physical_bytes", lambda: THREE_BATCHES)
        assert main(["sweep", "--axis", "distance", "--values", "20", "--config", config()]) == 0
        assert len((tmp_path / "sweep_distance.csv").read_text(encoding="utf-8").splitlines()) == 2

    def test_unwritable_output_exits_4(self, config, tmp_path):
        out = tmp_path / "no_dir" / "out.csv"
        code = main(["sweep", "--axis", "distance", "--values", "10", "--config", config(), "--out", str(out)])
        assert code == 4


class TestOptimizeBandwidth:
    def test_prints_best_fraction(self, config, capsys):
        code = main(
            ["optimize-bandwidth", "--config", config(fraction="optimize"), "--fractions", "0.7:0.1:1.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best filter_fraction = " in out
        assert "unfiltered nsd = " in out

    def test_writes_table(self, config, tmp_path):
        out = tmp_path / "table.csv"
        code = main(
            [
                "optimize-bandwidth",
                "--config",
                config(fraction="optimize"),
                "--fractions",
                "0.8,1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "filter_fraction,nsd_without_lpf,nsd_with_lpf,chosen_fraction"
        assert len(lines) == 3

    def test_table_equals_bandwidth_sweep_bytes(self, config, tmp_path):
        """Both commands write the fraction table through one helper."""
        path = config(fraction="optimize")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        grid = "0.6,0.75,0.9,1.0"
        optimize = ["optimize-bandwidth", "--config", path, "--fractions", grid]
        assert main(optimize + ["--out", str(a)]) == 0
        assert main(["sweep", "--axis", "bandwidth", "--values", grid, "--config", path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_uses_grid_from_scenario_file(self, config, capsys):
        path = config(fraction="optimize", extra="optimize_fractions = 0.9,1.0\n")
        assert main(["optimize-bandwidth", "--config", path]) == 0
        assert "best filter_fraction" in capsys.readouterr().out

    def test_pinned_file_searches_its_whole_grid(self, config, tmp_path, capsys):
        """A file's pinned fraction does not narrow the search: the best line
        and the table are those of the same file set to optimize."""
        outputs = []
        for fraction in ("optimize", "0.8"):
            path = config(f"{fraction}.txt", fraction, "optimize_fractions = 0.6,0.7,0.9,1.0\n")
            out = tmp_path / f"{fraction}.csv"
            assert main(["optimize-bandwidth", "--config", path, "--out", str(out)]) == 0
            outputs.append((capsys.readouterr().out.splitlines()[0], out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].count(b"\n") == 5

    def test_summed_power_beyond_float_range_scores_a_number(self, tmp_path, capsys, caplog):
        """At 3082 dBm each sample carries about 1.6e305 W, so the sums of
        squares in the NSD pass float range; the search still reports a
        finite NSD, with no numpy warning and no overflow warning."""
        (tmp_path / "loud.txt").write_text(
            "span_km = 20\npower_dbm = 3082\ncandidate_spp = 8\ncandidate_dz_km = 1\n"
            "benchmark_dz_km = 1\nn_symbols = 256\nseeds = 3\n",
            encoding="utf-8",
        )
        argv = ["optimize-bandwidth", "--config", "loud.txt", "--fractions", "0.5:0.25:1.0"]
        with warnings.catch_warnings(record=True) as caught, caplog.at_level(logging.WARNING):
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert caught == [] and caplog.records == []
        out, err = capsys.readouterr()
        best_nsd = float(re.search(r"with nsd = (\S+)", out).group(1))
        assert math.isfinite(best_nsd) and "nan" not in out
        assert err == ""

    def test_warns_of_overflowed_fractions(self, tmp_path, capsys, caplog):
        """A 400 km gain fiber overflows every fraction; the search says so
        once, as the bandwidth axis of ``sweep`` does."""
        text = TINY.format(fraction="optimize").replace("span_km = 20", "span_km = 400")
        text = text.replace("candidate_dz_km = 2", "candidate_dz_km = 10")
        text = text.replace("benchmark_dz_km = 0.5", "benchmark_dz_km = 10")
        (tmp_path / "gain.txt").write_text(text + "alpha_per_km = -2\n", encoding="utf-8")
        argv = ["optimize-bandwidth", "--config", "gain.txt", "--fractions", "0.6,0.8,1.0"]
        with caplog.at_level(logging.WARNING, logger="ssfmlab.bandwidth"):
            assert main(argv) == 3
        warnings = [record.getMessage() for record in caplog.records]
        assert warnings == ["3 of 3 fractions overflowed (reported as inf)"]
        assert capsys.readouterr().err.endswith("error: numerical overflow left no finite NSD\n")


class TestMalformedGrids:
    """Inputs that once escaped as tracebacks end with exit 2 and an error line."""

    @pytest.mark.parametrize(
        "extra, argv",
        [
            ("optimize_fractions = 1.0:0.1:0.5\n", []),
            ("optimize_fractions = 0.5:0.1:inf\n", []),
            ("", ["--fractions", "0.5:0.1:inf"]),
            ("", ["--fractions", "1.0:0.1:0.5"]),
        ],
        ids=["reversed-range", "infinite-range", "infinite-range-flag", "reversed-range-flag"],
    )
    def test_bad_fraction_range_exits_2(self, config, capsys, extra, argv):
        path = config(fraction="optimize", extra=extra)
        assert main(["optimize-bandwidth", "--config", path] + argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_infinite_sample_count_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inf.txt"
        text = TINY.format(fraction="0.8").replace("candidate_spp = 6", "candidate_spp = inf")
        path.write_text(text, encoding="utf-8")
        assert main(["propagate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: key 'candidate_spp'")


    def test_infinite_dt_value_exits_2(self, config, capsys):
        assert main(["sweep", "--axis", "dt", "--values", "6,inf", "--config", config()]) == 2
        assert capsys.readouterr().err.startswith("error: dt axis values")

    @pytest.mark.parametrize(
        "argv",
        [
            ["nsd", "lossy.txt", "lossy.txt"],
            ["optimize-bandwidth", "--config", "lossy.txt"],
            ["sweep", "--axis", "bandwidth", "--values", "0.6", "--config", "lossy.txt"],
        ],
        ids=["nsd", "optimize", "bandwidth-axis"],
    )
    def test_reference_that_fades_below_float_range_exits_2(self, tmp_path, capsys, argv):
        """71 /km of loss over 20 km leaves a benchmark peak near 2e-310, whose
        squares all underflow to 0: the reference carries no energy."""
        with open("lossy.txt", "w", encoding="utf-8") as fh:
            fh.write(TINY.format(fraction="0.8").replace("power_dbm = 6", "power_dbm = 0")
                     + "alpha_per_km = 71\n")
        assert main(argv + ["--out", "out.csv"]) == 2
        assert capsys.readouterr().err == "error: reference waveform has zero energy\n"
        assert not (tmp_path / "out.csv").exists()


class TestRefusedBeforeAnyWork:
    """Requests the machine cannot serve end with exit 2 and one error line
    before any batch is shaped, any segment runs or any thread or worker process starts."""

    @pytest.fixture(autouse=True)
    def nothing_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(runner, "_shaped_batch", refuse)
        monkeypatch.setattr(harness, "shape_pulse", refuse)
        monkeypatch.setattr(engine, "run_segments", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--axis", "dt", "--values", "4", "--config", "missing.txt"],
            ["optimize-bandwidth", "--config", "missing.txt"],
            ["reproduce", "fig2", "--desk-scale"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_thread_count_exits_2(self, capsys, argv):
        assert main(argv + ["--threads", "-5"]) == 2
        assert capsys.readouterr().err == "error: --threads must be 0 (auto) or positive, got -5\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["propagate", "--config", "missing.txt", "--threads", "2"], "--threads"),
            (["nsd", "missing.txt", "missing.txt", "--threads", "2"], "--threads"),
            (["propagate", "--config", "missing.txt", "--desk-scale"], "--desk-scale"),
            (["nsd", "missing.txt", "missing.txt", "--desk-scale"], "--desk-scale"),
            (["sweep", "--axis", "dt", "--values", "4", "--config", "missing.txt",
              "--desk-scale"], "--desk-scale"),
            (["optimize-bandwidth", "--config", "missing.txt", "--desk-scale"], "--desk-scale"),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else value,
    )
    def test_flag_the_command_does_not_read_is_refused(self, capsys, argv, flag):
        """Each command offers only the flags it reads; argparse refuses the rest."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_distance_group_beyond_physical_memory_exits_2(
        self, config, tmp_path, capsys, monkeypatch
    ):
        """A 2-span group holds a snapshot per span besides the launch rows and
        the run's buffers: 4 batches, refused before anything is shaped."""
        monkeypatch.setattr(harness, "_physical_bytes", lambda: THREE_BATCHES)
        argv = ["sweep", "--axis", "distance", "--values", "10,20", "--config", config()]
        assert main(argv + ["--out", "out.csv"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: out of memory: ")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "n_symbols, argv",
        [
            ("1e12", ["sweep", "--axis", "dt", "--values", "4"]),
            ("1e12", ["optimize-bandwidth"]),
            ("1e10", ["sweep", "--axis", "power", "--values", "6", "--seeds", "1000"]),
        ],
        ids=["sweep", "optimize", "seed-override"],
    )
    def test_batch_beyond_physical_memory_exits_2(self, tmp_path, capsys, n_symbols, argv):
        """Terabytes of estimated batch, refused from the estimate alone."""
        path = tmp_path / "huge.txt"
        text = TINY.format(fraction="optimize").replace("n_symbols = 16", f"n_symbols = {n_symbols}")
        path.write_text(text, encoding="utf-8")
        assert main(argv + ["--config", str(path), "--out", "out.csv"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: out of memory: ")
        assert "GiB of physical memory" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "extra, n_symbols, values, message",
        [
            ("optimize_fractions = 0.5,0.9\n", 16, "16,8", "fraction grid must contain 1.0"),
            ("", 65, "16,3", "n_samples must be even, got 195"),
            ("", 16, "16,1", "samples_per_symbol must be at least 2, got 1"),
        ],
        ids=["grid-without-1.0", "odd-sample-count", "one-sample-per-symbol"],
    )
    def test_malformed_grid_exits_2(self, tmp_path, capsys, extra, n_symbols, values, message):
        """A grid that some point's run would reject is refused up front."""
        path = tmp_path / "grid.txt"
        text = TINY.format(fraction="optimize").replace("benchmark_spp = 12", "benchmark_spp = 30")
        text = text.replace("n_symbols = 16", f"n_symbols = {n_symbols}") + extra
        path.write_text(text, encoding="utf-8")
        argv = ["sweep", "--axis", "dt", "--values", values, "--config", str(path)]
        assert main(argv + ["--out", "out.csv"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.csv").exists()


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["optimize-bandwidth", "--fractions", "0.5,0.9"], "fraction grid must contain 1.0"),
            (["sweep", "--axis", "bandwidth", "--values", "0,0.5"], "filter fraction 0.0 outside (0, 1]"),
            (["sweep", "--axis", "bandwidth", "--values", "2,0"], "filter fraction 2.0 outside (0, 1]"),
        ],
        ids=["fractions-flag", "bandwidth-axis", "bandwidth-axis-first-given"],
    )
    def test_bad_search_grid_exits_2(self, config, tmp_path, capsys, argv, message):
        """The grid a search is handed is checked before its benchmark is shaped."""
        assert main(argv + ["--config", config(), "--out", "out.csv"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("fraction", ["0", "1.5", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["propagate", "--config", "fraction.txt"],
            ["nsd", "fraction.txt", "fraction.txt"],
            ["sweep", "--axis", "power", "--values", "6", "--config", "fraction.txt"],
            ["optimize-bandwidth", "--config", "fraction.txt"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_pinned_fraction_outside_range_exits_2(self, tmp_path, capsys, argv, fraction):
        """A file's ``filter_fraction`` is refused by the rule, and in the
        words, of a bandwidth ``--values`` entry."""
        with open("fraction.txt", "w", encoding="utf-8") as fh:
            fh.write(TINY.format(fraction=fraction))
        assert main(argv + ["--out", "out.csv"]) == 2
        assert capsys.readouterr().err == f"error: filter fraction {float(fraction)} outside (0, 1]\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("step", ["0", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["propagate", "--config", "steps.txt"],
            ["nsd", "steps.txt", "steps.txt"],
            ["sweep", "--axis", "power", "--values", "6", "--config", "steps.txt"],
            ["optimize-bandwidth", "--config", "steps.txt"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_step_that_is_not_positive_exits_2(self, capsys, argv, step):
        text = TINY.format(fraction="0.8")
        text = text.replace("candidate_dz_km = 2", f"candidate_dz_km = {step}")
        text = text.replace("benchmark_dz_km = 0.5", f"benchmark_dz_km = {step}")
        with open("steps.txt", "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(argv + ["--out", "out.csv"]) == 2
        assert capsys.readouterr().err == f"error: dz_km must be positive, got {float(step)}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize-bandwidth", "--config", "span.txt"],
            ["sweep", "--axis", "bandwidth", "--values", "0.8", "--config", "span.txt"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_span_that_is_not_whole_steps_exits_2(self, capsys, argv):
        with open("span.txt", "w", encoding="utf-8") as fh:
            fh.write(TINY.format(fraction="0.8").replace("span_km = 20", "span_km = 15"))
        assert main(argv + ["--out", "out.csv"]) == 2
        err = capsys.readouterr().err
        assert err == "error: 8 segments of 2.0 km do not cover a 15.0 km span\n"

    @pytest.mark.parametrize(
        "power, argv",
        [
            ("1e5", ["sweep", "--axis", "dt", "--values", "6"]),
            ("6", ["sweep", "--axis", "power", "--values", "6,1e5"]),
        ],
        ids=["file", "power-axis"],
    )
    def test_power_beyond_float_range_in_watts_exits_2(self, capsys, power, argv):
        """10 ** (1e5 / 10) W overflows a float; the launch refuses it."""
        with open("power.txt", "w", encoding="utf-8") as fh:
            fh.write(TINY.format(fraction="0.8").replace("power_dbm = 6", f"power_dbm = {power}"))
        assert main(argv + ["--config", "power.txt", "--out", "out.csv"]) == 2
        err = capsys.readouterr().err
        assert err == "error: power_dbm 100000.0 is too large to express in watts\n"

    @pytest.mark.parametrize(
        "seeds, argv",
        [
            ("99999999999999999999999", ["optimize-bandwidth", "--config", "seeds.txt"]),
            ("2", ["optimize-bandwidth", "--config", "seeds.txt",
                   "--seeds", "99999999999999999999999"]),
            ("2", ["reproduce", "fig3a", "--desk-scale", "--seeds", "99999999999999999999999"]),
        ],
        ids=["file", "optimize-override", "reproduce-override"],
    )
    def test_seed_count_beyond_sys_maxsize_exits_2(self, capsys, seeds, argv):
        """A seed count too large for ``len()`` is still bounded, from the range itself."""
        with open("seeds.txt", "w", encoding="utf-8") as fh:
            fh.write(TINY.format(fraction="optimize").replace("seeds = 2", f"seeds = {seeds}"))
        assert main(argv + ["--out", "out.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: 99999999999999999999999 seeds of ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "power, argv",
        [
            ("-1e308", ["propagate"]),
            ("-1e308", ["optimize-bandwidth"]),
            ("-1e308", ["sweep", "--axis", "dt", "--values", "6"]),
            ("6", ["sweep", "--axis", "power", "--values", "6,-1e308"]),
        ],
        ids=["propagate", "optimize", "dt-axis", "power-axis"],
    )
    def test_power_that_underflows_to_0_w_exits_2(self, tmp_path, capsys, power, argv):
        """10 ** (-1e308 / 10) W is 0 W, a launch with no signal; the launch refuses it."""
        with open("power.txt", "w", encoding="utf-8") as fh:
            fh.write(TINY.format(fraction="0.8").replace("power_dbm = 6", f"power_dbm = {power}"))
        assert main(argv + ["--config", "power.txt", "--out", "out.csv"]) == 2
        err = capsys.readouterr().err
        assert err == "error: power_dbm -1e+308 is too small to express in watts\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("axis", harness.AXES)
    def test_empty_values_exit_2(self, config, tmp_path, capsys, axis):
        """``--values ,`` names no point on any axis; it is refused, not swept to a bare header."""
        assert main(["sweep", "--axis", axis, "--values", ",", "--config", config()]) == 2
        assert capsys.readouterr().err == f"error: no values to sweep on axis '{axis}'\n"
        assert not (tmp_path / f"sweep_{axis}.csv").exists()

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["propagate", "--config", "scenario.txt", "--out", "missing/trace.csv"],
             "missing/trace.csv"),
            (["nsd", "scenario.txt", "scenario.txt", "--out", "missing/nsd.csv"], "missing/nsd.csv"),
            (["sweep", "--axis", "dt", "--values", "4", "--config", "scenario.txt"], "sweep_dt.csv"),
            (["optimize-bandwidth", "--config", "scenario.txt", "--out", "d"], "d"),
            (["reproduce", "fig2", "--desk-scale", "--out", "missing/"], "missing/_summary.csv"),
            (["reproduce", "fig3b", "--desk-scale", "--out", "missing/x.csv"], "missing/x.csv"),
        ],
        ids=["propagate", "nsd", "sweep", "optimize", "reproduce-fig2", "reproduce-fig3b"],
    )
    def test_unwritable_output_exits_4(self, config, capsys, argv, path):
        """An output path whose folder is missing, or that is itself a folder,
        is refused before the run that would fill it."""
        config()
        os.mkdir("d")
        os.mkdir("sweep_dt.csv")
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err == f"error: cannot write {path}: it is a folder or its folder does not exist\n"

    def test_bad_input_wins_over_unwritable_output(self, config, capsys):
        """Input checks come first: a propagate spec without a numeric
        fraction exits 2 even when its output folder is missing."""
        argv = ["propagate", "--config", config(fraction="optimize"), "--out", "missing/trace.csv"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: 'propagate' needs a numeric filter_fraction")

    @pytest.mark.parametrize(
        "size, bad, message",
        [
            ("n_symbols = 16", "n_symbols = 0", "n_symbols must be positive, got 0"),
            ("n_symbols = 16", "n_symbols = -4", "n_symbols must be positive, got -4"),
            ("benchmark_spp = 12", "benchmark_spp = 0", "candidate_spp 6 exceeds benchmark_spp 0"),
        ],
        ids=["zero-symbols", "negative-symbols", "zero-benchmark-spp"],
    )
    def test_bad_size_is_refused_before_the_memory_bound(
        self, capsys, monkeypatch, size, bad, message
    ):
        """A size of 0 or less makes the memory estimate 0 or less, which
        would let any seed count past the bound into a tuple; the size is
        refused before the bound reads it."""

        def unchecked(*args, **kwargs):
            raise AssertionError("the memory bound read an unchecked size")

        monkeypatch.setattr(harness, "_check_memory", unchecked)
        text = TINY.format(fraction="optimize").replace(size, bad)
        with open("sizes.txt", "w", encoding="utf-8") as fh:
            fh.write(text.replace("seeds = 2", "seeds = 99999999999999999999999"))
        assert main(["optimize-bandwidth", "--config", "sizes.txt", "--out", "out.csv"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists("out.csv")

    @pytest.mark.parametrize("preset", ["fig2", "fig3a"])
    def test_empty_seed_override_exits_2(self, capsys, preset):
        """``--seeds 0`` asks for no seeds, not for the preset's default ones."""
        assert main(["reproduce", preset, "--desk-scale", "--seeds", "0"]) == 2
        assert capsys.readouterr().err == "error: seed list is empty\n"

    @pytest.mark.parametrize(
        "seeds, argv",
        [
            ("2,-1", ["propagate", "--config", "seeds.txt"]),
            ("-1,2", ["propagate", "--config", "seeds.txt"]),
            ("2,-1", ["nsd", "seeds.txt", "seeds.txt"]),
            ("2,-1", ["sweep", "--axis", "dt", "--values", "6", "--config", "seeds.txt"]),
            ("2,-1", ["optimize-bandwidth", "--config", "seeds.txt"]),
            ("2", ["optimize-bandwidth", "--config", "seeds.txt", "--seeds", "0,-1"]),
        ]
        + [("2", ["reproduce", p, "--desk-scale", "--seeds", "0,-1"]) for p in harness.PRESETS],
        ids=["propagate", "propagate-first-seed", "nsd", "sweep", "optimize", "optimize-override"]
        + [f"reproduce-{p}" for p in harness.PRESETS],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, seeds, argv):
        """A negative seed is refused by the scenario, with its key named."""
        with open("seeds.txt", "w", encoding="utf-8") as fh:
            fh.write(TINY.format(fraction="0.8").replace("seeds = 2", f"seeds = {seeds}"))
        assert main(argv + ["--out", "out.csv"]) == 2
        assert capsys.readouterr().err == "error: seeds must be non-negative, got -1\n"
        assert not (tmp_path / "out.csv").exists()


class TestReproduce:
    def test_fig2_writes_summary_and_traces(self, tmp_path, capsys):
        code = main(["reproduce", "fig2", "--desk-scale", "--seeds", "1", "--out", "fig2"])
        assert code == 0
        traces = ["benchmark"] + [f"spp{spp}_{kind}" for spp in (30, 10, 8, 6, 4)
                                  for kind in ("unfiltered", "filtered")]
        assert capsys.readouterr().out.splitlines() == ["wrote fig2_summary.csv"] + [
            f"wrote fig2_trace_{label}.csv" for label in traces
        ]
        assert (tmp_path / "fig2_summary.csv").exists()
        assert (tmp_path / "fig2_trace_benchmark.csv").exists()
        for spp in (30, 10, 8, 6, 4):
            assert (tmp_path / f"fig2_trace_spp{spp}_unfiltered.csv").exists()
            assert (tmp_path / f"fig2_trace_spp{spp}_filtered.csv").exists()
        header = (tmp_path / "fig2_summary.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "samples_per_symbol,nsd_without_lpf,nsd_with_lpf,chosen_fraction"

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig7"])

    @pytest.mark.parametrize("preset", harness.PRESETS)
    def test_seed_override_reaches_every_job(self, monkeypatch, preset):
        """``--seeds`` reaches every job of a preset, as it reaches any other command's scenario."""
        seen = []
        result = harness.SweepResult("axis", (1.0,), (0.5,), (0.25,), (1.0,))

        def record_sweep(axis, base, values, threads=0):
            seen.append(base.seeds)
            return result

        def record_fig2(job, threads=0):
            seen.append(job.base.seeds)
            return result, {}

        monkeypatch.setattr(harness, "sweep", record_sweep)
        monkeypatch.setattr(harness, "reproduce_fig2", record_fig2)
        assert main(["reproduce", preset, "--desk-scale", "--seeds", "3,5"]) == 0
        assert seen == [(3, 5)] * len(harness.preset_jobs(preset, desk_scale=True))
        assert len(seen) == (2 if preset == "fig3d" else 1)


# --------------------------------------------------------------------------
# every command line ends in an exit code and at most one error line

# 8 symbols, 2 seeds, 2 km: a run that is not refused takes milliseconds.
_TINY_KEYS = {
    "span_km": "2", "power_dbm": "6", "candidate_spp": "4", "candidate_dz_km": "1",
    "beta2_ps2_per_km": "-21.7", "gamma_per_w_km": "1.27", "alpha_per_km": "0",
    "rolloff": "0.1", "baud_gbaud": "10", "n_symbols": "8", "seeds": "2",
    "filter_fraction": "0.75", "benchmark_spp": "8", "benchmark_dz_km": "0.5",
    "optimize_fractions": "0.5:0.25:1",
}
_VALID_VALUES = {"distance": "1,2", "power": "0,6", "dt": "4,6", "bandwidth": "0.5,0.75"}
# Huge (beyond float range once scaled, or beyond memory), negative, NaN, inf,
# empty and malformed.  Spans of 1e5 or 1e23 km are valid and ask for 2e5 or
# 2e23 segments, so span values draw 1e308 as their huge value.
_BAD = ["1e308", "-1e308", "99999999999999999999999", "1e5", "-1e5", "-1", "0",
        "nan", "inf", "-inf", "", "x", "1,2", "1,1", "0.5:1e-300:1", "1:0:1"]
_BAD_SPAN = [value for value in _BAD if value not in ("99999999999999999999999", "1e5")]
_OUTS = ["out.csv", "", ".", "missing/out.csv"]
_preset_scenario = harness._preset_scenario


def _tiny_preset(spp, power_dbm, desk_scale, desk_seeds, span_km, dz_km):
    """A preset point at 8 symbols, 2 seeds and 100-fold steps."""
    base = _preset_scenario(spp, power_dbm, desk_scale, desk_seeds, span_km, dz_km)
    return dataclasses.replace(
        base, n_symbols=8, seeds=range(2), candidate_dz_km=100 * dz_km, benchmark_dz_km=100 * dz_km
    )


@st.composite
def command_lines(draw):
    """A scenario text and the argv of one command, with up to two slots
    (scenario keys and flags) drawn from the bad values."""
    slots = list(_TINY_KEYS) + ["--seeds", "--out", "--threads", "--values", "--fractions"]
    bad = draw(st.sets(st.sampled_from(slots), max_size=2))

    def value(slot, valid, spans=False):
        if slot not in bad:
            return valid
        return draw(st.sampled_from(_BAD_SPAN if spans or slot == "span_km" else _BAD))

    text = "".join(f"{key} = {value(key, valid)}\n" for key, valid in _TINY_KEYS.items())
    command = draw(st.sampled_from(("propagate", "nsd", "sweep", "optimize-bandwidth", "reproduce")))
    if command == "propagate":
        argv = ["propagate", "--config", "tiny.txt"]
    elif command == "nsd":
        argv = ["nsd", "tiny.txt", "tiny.txt"]
    elif command == "sweep":
        axis = draw(st.sampled_from(harness.AXES))
        values = value("--values", _VALID_VALUES[axis], spans=axis == "distance")
        argv = ["sweep", "--axis", axis, "--values", values, "--config", "tiny.txt"]
    elif command == "optimize-bandwidth":
        argv = ["optimize-bandwidth", "--config", "tiny.txt"]
        if draw(st.booleans()):
            argv += ["--fractions", value("--fractions", "0.5:0.25:1")]
    else:
        argv = ["reproduce", draw(st.sampled_from(harness.PRESETS))]
        if draw(st.booleans()):
            argv.append("--desk-scale")
    if draw(st.booleans()):
        argv += ["--seeds", value("--seeds", "1,2")]
    if draw(st.booleans()):
        argv += ["--out", value("--out", draw(st.sampled_from(_OUTS)))]
    if command in ("sweep", "optimize-bandwidth", "reproduce") and draw(st.booleans()):
        argv += ["--threads", value("--threads", draw(st.sampled_from(["0", "1", "3"])))]
    return text, argv


@settings(max_examples=200)
@given(command_lines())
def test_every_command_line_ends_in_an_exit_code(tmp_path_factory, drawn):
    """Each argv of the five commands exits 0, 2, 3 or 4; a non-zero exit
    prints exactly one error line, no exception escapes ``main``, and no
    printed NSD is NaN."""
    text, argv = drawn
    os.chdir(tmp_path_factory.mktemp("argv"))
    with open("tiny.txt", "w", encoding="utf-8") as fh:
        fh.write(text)
    err, out = io.StringIO(), io.StringIO()
    with mock.patch.object(harness, "_preset_scenario", _tiny_preset), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exited:  # argparse refuses the argv
            code = exited.code
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert len(errors) == (code != 0), err.getvalue()
    assert "nan" not in out.getvalue(), out.getvalue()
