import threading

import pytest

from ssfmlab import engine, runner
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
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "nsd"
        assert float(lines[1]) == 0.0  # identical specs

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

    def test_overflow_everywhere_exits_3(self, tmp_path):
        spec = tmp_path / "gain.txt"
        spec.write_text(
            "span_km = 400\npower_dbm = 6\ncandidate_spp = 6\ncandidate_dz_km = 10\n"
            "benchmark_spp = 12\nbenchmark_dz_km = 10\nn_symbols = 16\nseeds = 1\n"
            "filter_fraction = 1.0\nalpha_per_km = -2\n",
            encoding="utf-8",
        )
        assert main(["nsd", str(spec), str(spec)]) == 3


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
        code = main(["sweep", "--axis", "distance", "--values", values, "--config", config()])
        assert code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == message
        assert not (tmp_path / "sweep_distance.csv").exists()
        assert runs == []

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


class TestRefusedBeforeAnyWork:
    """Requests the machine cannot serve end with exit 2 and one error line
    before any batch is shaped, any segment runs or any thread starts."""

    @pytest.fixture(autouse=True)
    def nothing_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(runner, "_shaped_batch", refuse)
        monkeypatch.setattr(engine, "run_segments", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["propagate", "--config", "missing.txt"],
            ["nsd", "missing.txt", "missing.txt"],
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


class TestReproduce:
    def test_fig2_writes_summary_and_traces(self, tmp_path):
        code = main(["reproduce", "fig2", "--desk-scale", "--seeds", "1", "--out", "fig2"])
        assert code == 0
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
