import dataclasses
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ssfmlab import runner
from ssfmlab.engine import FiberParams
from ssfmlab.harness import (
    _KEYS,
    _REQUIRED_KEYS,
    _select_best,
    AXES,
    PRESETS,
    Scenario,
    ScenarioError,
    SweepResult,
    emit_csv,
    load_scenario,
    parse_fraction_spec,
    parse_scenario,
    parse_seed_spec,
    preset_jobs,
    reproduce_fig2,
    sweep,
    write_trace_csv,
)

from conftest import replace, search, tiny_scenario

MINIMAL = """
span_km = 1000
power_dbm = 10
candidate_spp = 16
candidate_dz_km = 0.1
"""


class TestParseScenario:
    def test_minimal_file_fills_defaults(self):
        s = parse_scenario(MINIMAL)
        assert s.fiber == FiberParams(beta2=-21.7, gamma=1.27, span_km=1000.0, alpha=0.0)
        assert s.launch.power_dbm == 10.0
        assert s.launch.rolloff == 0.1
        assert s.launch.symbol_time == 100.0
        assert s.candidate_spp == 16
        assert s.candidate_dz_km == 0.1
        assert s.filter_fraction == "optimize"
        assert s.n_symbols == 256
        assert s.seeds == tuple(range(20))
        assert s.benchmark_spp == 30
        assert s.benchmark_dz_km == 0.1
        assert s.optimize_fractions == parse_fraction_spec("0.5:0.01:1.0")

    def test_full_file_with_comments(self):
        text = """
        # channel
        span_km = 80            # one span
        beta2_ps2_per_km = -20
        gamma_per_w_km = 1.3
        alpha_per_km = 0.2
        # transmitter
        power_dbm = 6.5
        rolloff = 0.25
        baud_gbaud = 20
        n_symbols = 32
        seeds = 4
        # discretization
        candidate_spp = 8
        candidate_dz_km = 1.0
        benchmark_spp = 24
        benchmark_dz_km = 0.25
        filter_fraction = 0.8
        """
        s = parse_scenario(text)
        assert s.fiber == FiberParams(beta2=-20.0, gamma=1.3, span_km=80.0, alpha=0.2)
        assert s.launch.rolloff == 0.25
        assert s.launch.symbol_time == 50.0  # 20 Gbaud
        assert s.n_symbols == 32
        assert s.seeds == (0, 1, 2, 3)
        assert s.filter_fraction == 0.8
        assert s.benchmark_spp == 24

    def test_readme_example_states_the_defaults(self):
        """The README's scenario example names every key, and every optional
        key shows its default, so the example parses like its required keys
        alone (plus its non-default fraction grid)."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        keys = [line.split("#", 1)[0].partition("=")[0].strip() for line in example.splitlines()]
        assert set(_KEYS) <= set(keys)
        kept = _REQUIRED_KEYS + ("optimize_fractions",)
        lines = [line for line, key in zip(example.splitlines(), keys) if key in kept]
        assert len(lines) == len(kept)
        assert parse_scenario(example) == parse_scenario("\n".join(lines))

    def test_optimize_fraction_grid(self):
        s = parse_scenario(MINIMAL + "optimize_fractions = 0.5:0.25:1.0\n")
        assert s.optimize_fractions == (0.5, 0.75, 1.0)
        s = parse_scenario(MINIMAL + "optimize_fractions = 0.7, 0.9, 1.0\n")
        assert s.optimize_fractions == (0.7, 0.9, 1.0)

    @pytest.mark.parametrize(
        "line",
        [
            "unknown_key = 3",
            "span_km = 50",  # duplicate
            "power_dbm",  # no assignment
            "candidate_spp = eight",
            "candidate_spp = 8.5",
            "filter_fraction = 1.2",
            "filter_fraction = best",
            "seeds = 1,1",
            "seeds = 0",
            "benchmark_dz_km = 0.3",  # candidate step finer than benchmark
            "benchmark_spp = 8",  # candidate grid denser than benchmark
            "rolloff = 2",
        ],
    )
    def test_rejects_malformed_input(self, line):
        with pytest.raises(ScenarioError):
            parse_scenario(MINIMAL + line + "\n")

    def test_rejects_missing_required_key(self):
        with pytest.raises(ScenarioError):
            parse_scenario("span_km = 100\npower_dbm = 3\ncandidate_spp = 8\n")

    def test_seed_specs(self):
        assert tuple(parse_seed_spec("5")) == (0, 1, 2, 3, 4)
        assert parse_seed_spec("3, 5, 9") == (3, 5, 9)
        with pytest.raises(ScenarioError):
            parse_seed_spec("five")

    def test_fraction_specs(self):
        assert parse_fraction_spec("0.5:0.1:0.7") == (0.5, 0.6, 0.7)
        assert parse_fraction_spec("0.8,1.0") == (0.8, 1.0)
        with pytest.raises(ScenarioError):
            parse_fraction_spec("0.5:0.3:1.0")

    def test_load_scenario_round_trip(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text(MINIMAL, encoding="utf-8")
        assert load_scenario(str(path)) == parse_scenario(MINIMAL)

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(str(tmp_path / "absent.txt"))


# Counts and steps stay small, so no example asks for a huge seed tuple or
# fraction grid; the trailing comma keeps a seed list a list.
_NUMBERS = st.one_of(
    st.integers(-64, 64).map(str),
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e999", "0", "-0.5", "0.1", "1.5", "abc"]),
)
_RANGES = st.builds(
    "{}:{}:{}".format,
    _NUMBERS,
    st.sampled_from(["0.05", "0.1", "-0.1", "0.25", "0", "inf", "nan"]),
    _NUMBERS,
)
_VALUES = {
    "seeds": st.one_of(
        st.integers(-64, 64).map(str),
        st.lists(st.integers(-64, 64), max_size=5).map(lambda s: ",".join(map(str, s)) + ","),
    ),
    "filter_fraction": st.one_of(_NUMBERS, st.just("optimize")),
    "optimize_fractions": st.one_of(
        _RANGES, st.lists(_NUMBERS, min_size=1, max_size=4).map(",".join)
    ),
}


@st.composite
def scenario_texts(draw):
    optional = [key for key in _KEYS if key not in _REQUIRED_KEYS]
    keys = _REQUIRED_KEYS + tuple(draw(st.lists(st.sampled_from(optional), unique=True)))
    return "\n".join(f"{key} = {draw(_VALUES.get(key, _NUMBERS))}" for key in keys)


@given(scenario_texts())
def test_any_scenario_text_parses_or_raises_scenario_error(text):
    """Numbers, infinities, NaN, negatives and reversed ranges in any key end
    in a Scenario or a ScenarioError, never in another exception."""
    try:
        assert isinstance(parse_scenario(text), Scenario)
    except ScenarioError:
        pass


class TestScenarioValidation:
    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ScenarioError):
            tiny_scenario(seeds=(1, 1))

    def test_rejects_candidate_finer_than_benchmark(self):
        with pytest.raises(ScenarioError):
            tiny_scenario(candidate_spp=16)  # benchmark_spp is 12
        with pytest.raises(ScenarioError):
            tiny_scenario(candidate_dz_km=0.1)  # benchmark_dz_km is 0.5

    @pytest.mark.parametrize(
        "fractions, message",
        [
            ((), "fraction grid is empty"),
            ((0.8, 0.6, 1.0), "fraction grid must be strictly ascending"),
            ((0.6, 0.8), "fraction grid must contain 1.0"),
            ((0.0, 1.0), "filter fraction 0.0 outside (0, 1]"),
            ((0, 1), "filter fraction 0.0 outside (0, 1]"),
            ((0.5, 1.5), "filter fraction 1.5 outside (0, 1]"),
        ],
        ids=["empty", "descending", "without-1", "zero", "int-zero", "above-1"],
    )
    def test_rejects_bad_fraction_grids(self, fractions, message):
        with pytest.raises(ScenarioError) as exc:
            tiny_scenario(optimize_fractions=fractions)
        assert str(exc.value) == message

    @pytest.mark.parametrize("fractions", [[0.5, 1.0], (0.5, 1)], ids=["list", "int"])
    def test_fraction_grid_is_stored_as_float_tuple(self, fractions):
        """A list or an int grid sweeps like the float tuple a scenario file gives."""
        result = sweep("distance", tiny_scenario(optimize_fractions=fractions), (20.0,))
        expected = sweep("distance", tiny_scenario(optimize_fractions=(0.5, 1.0)), (20.0,))
        assert result == expected
        assert all(type(f) is float for f in result.chosen_fractions)

    def test_memory_bound_reads_no_fraction_grid(self, monkeypatch):
        """Candidate responses are built a row block at a time, so 50,001
        fractions of 4,096 candidate samples (3.3 GB as one stack) weigh
        nothing in the bound: the scenario builds under 1 GiB of memory."""
        monkeypatch.setattr("ssfmlab.harness._physical_bytes", lambda: 2**30)
        grid = parse_fraction_spec("0.5:0.00001:1.0")
        scenario = tiny_scenario(n_symbols=512, candidate_spp=8, optimize_fractions=grid)
        assert len(scenario.optimize_fractions) == 50001


class TestRunScenario:
    """One scenario evaluated as a one-point sweep at its own span."""

    @staticmethod
    def run(scenario, threads=1):
        return sweep("distance", scenario, (scenario.fiber.span_km,), threads)

    def test_candidate_identical_to_benchmark_scores_zero(self):
        scenario = tiny_scenario(
            candidate_spp=12, candidate_dz_km=0.5, filter_fraction=1.0
        )
        result = self.run(scenario)
        assert result.nsd_with_lpf[0] < 1e-10
        assert result.chosen_fractions == (1.0,)

    def test_fixed_fraction_reports_mean_over_seeds(self):
        scenario = tiny_scenario(filter_fraction=0.8)
        result = self.run(scenario)
        per_seed = [self.run(replace(scenario, seeds=(seed,))) for seed in scenario.seeds]
        assert result.chosen_fractions == (0.8,)
        assert result.nsd_with_lpf[0] > 0.0
        assert result.nsd_with_lpf[0] == np.mean([r.nsd_with_lpf[0] for r in per_seed])

    def test_optimize_returns_sweep_and_unfiltered_report(self):
        scenario = tiny_scenario(optimize_fractions=(0.7, 0.9, 1.0))
        grid = (0.7, 0.9, 1.0)
        (curve,) = search(scenario, grid)
        best_fraction, best_nsd = _select_best(grid, curve)
        result = self.run(scenario)
        assert result.nsd_without_lpf[0] == curve[grid.index(1.0)]
        assert result.nsd_with_lpf[0] == best_nsd == min(curve)
        assert result.chosen_fractions[0] == best_fraction

    def test_thread_count_does_not_change_results(self):
        scenario = tiny_scenario(optimize_fractions=(0.7, 0.9, 1.0))
        assert self.run(scenario, threads=1) == self.run(scenario, threads=2)

    def test_overflow_reported_as_inf_with_warning(self, caplog):
        scenario = tiny_scenario(
            fiber=FiberParams(beta2=-21.7, gamma=1.27, span_km=400.0, alpha=-2.0),
            candidate_dz_km=10.0,
            benchmark_dz_km=10.0,
            filter_fraction=1.0,
        )
        with caplog.at_level(logging.WARNING, logger="ssfmlab.bandwidth"):
            result = self.run(scenario)
        assert math.isinf(result.nsd_with_lpf[0])
        assert any("overflowed" in record.message for record in caplog.records)


class TestSweep:
    def test_distance_axis(self):
        base = tiny_scenario(filter_fraction=1.0)
        result = sweep("distance", base, (10.0, 20.0))
        assert result.axis_name == "distance_km"
        assert result.axis_values == (10.0, 20.0)
        assert result.nsd_with_lpf == result.nsd_without_lpf  # fraction pinned at 1
        assert result.chosen_fractions == (1.0, 1.0)
        assert all(v > 0.0 for v in result.nsd_without_lpf)

    def test_power_axis_with_fixed_fraction(self):
        base = tiny_scenario(filter_fraction=0.8)
        result = sweep("power", base, (3.0, 9.0))
        assert result.axis_name == "power_dbm"
        assert result.chosen_fractions == (0.8, 0.8)
        # stronger nonlinearity at higher launch power degrades both schemes
        assert result.nsd_without_lpf[1] > result.nsd_without_lpf[0]
        assert result.nsd_with_lpf[1] > result.nsd_with_lpf[0]

    def test_dt_axis_reports_percent_of_symbol_time(self):
        base = tiny_scenario(optimize_fractions=(0.7, 1.0))
        result = sweep("dt", base, (6.0, 4.0))
        assert result.axis_name == "dt_over_ts_percent"
        np.testing.assert_allclose(result.axis_values, (100.0 / 6.0, 25.0))

    def test_dt_axis_rejects_fractional_samples(self):
        with pytest.raises(ScenarioError):
            sweep("dt", tiny_scenario(), (6.5,))

    def test_bandwidth_axis_shares_one_unfiltered_reference(self):
        base = tiny_scenario()
        result = sweep("bandwidth", base, (0.6, 0.8))
        assert result.axis_name == "filter_fraction"
        assert result.axis_values == (0.6, 0.8)
        assert result.chosen_fractions == (0.6, 0.8)
        assert result.nsd_without_lpf[0] == result.nsd_without_lpf[1]

    def test_bandwidth_axis_at_unity_matches_reference_exactly(self):
        result = sweep("bandwidth", tiny_scenario(), (0.8, 1.0))
        assert result.nsd_with_lpf[1] == result.nsd_without_lpf[1]

    def test_empty_axis(self):
        for axis in AXES:
            with pytest.raises(ScenarioError, match=f"no values to sweep on axis '{axis}'"):
                sweep(axis, tiny_scenario(), ())

    def test_unknown_axis(self):
        with pytest.raises(ScenarioError):
            sweep("phase", tiny_scenario(), (1.0,))

    def test_deterministic(self):
        base = tiny_scenario(optimize_fractions=(0.7, 1.0))
        assert sweep("distance", base, (10.0, 20.0)) == sweep("distance", base, (10.0, 20.0))

    @pytest.mark.parametrize("fraction", ["optimize", 0.8, 1.0])
    def test_distance_points_read_off_one_run_equal_separate_sweeps(self, fraction):
        """Unsorted and repeated spans, read off one run to the farthest,
        give exactly the numbers of one-value sweeps."""
        base = tiny_scenario(filter_fraction=fraction, optimize_fractions=(0.7, 0.9, 1.0))
        shared = sweep("distance", base, (20.0, 10.0, 20.0))
        alone = {v: sweep("distance", base, (v,)) for v in (10.0, 20.0)}
        for i, value in enumerate((20.0, 10.0, 20.0)):
            assert shared.nsd_without_lpf[i] == alone[value].nsd_without_lpf[0]
            assert shared.nsd_with_lpf[i] == alone[value].nsd_with_lpf[0]
            assert shared.chosen_fractions[i] == alone[value].chosen_fractions[0]
        assert shared.axis_values == (20.0, 10.0, 20.0)

    @staticmethod
    def _count_benchmark_runs(monkeypatch):
        calls = []
        real = runner.benchmark_fields

        def counting(scenario, *args, **kwargs):
            calls.append(scenario)
            return real(scenario, *args, **kwargs)

        monkeypatch.setattr(runner, "benchmark_fields", counting)
        return calls

    def test_dt_points_share_one_benchmark_run(self, monkeypatch):
        """The benchmark does not depend on the candidate grid, so a dt sweep
        runs it once, and its rows equal those of one-value sweeps."""
        base = tiny_scenario(optimize_fractions=(0.7, 0.9, 1.0))
        values = (6.0, 4.0, 3.0)
        alone = [sweep("dt", base, (v,)) for v in values]
        calls = self._count_benchmark_runs(monkeypatch)
        shared = sweep("dt", base, values, threads=2)
        assert len(calls) == 1
        for i, one in enumerate(alone):
            assert shared.axis_values[i] == one.axis_values[0]
            assert shared.nsd_without_lpf[i] == one.nsd_without_lpf[0]
            assert shared.nsd_with_lpf[i] == one.nsd_with_lpf[0]
            assert shared.chosen_fractions[i] == one.chosen_fractions[0]

    def test_power_points_each_run_their_benchmark(self, monkeypatch):
        calls = self._count_benchmark_runs(monkeypatch)
        sweep("power", tiny_scenario(filter_fraction=0.8), (3.0, 9.0))
        assert [c.launch.power_dbm for c in calls] == [3.0, 9.0]

    def test_optimizing_point_agrees_with_pinned_point_exactly(self):
        """The unfiltered column of an optimizing sweep and a sweep pinned at
        fraction 1.0 are the same numbers, not merely close."""
        base = tiny_scenario(optimize_fractions=(0.7, 1.0))
        result = sweep("distance", base, (base.fiber.span_km,))
        pinned = sweep("distance", replace(base, filter_fraction=1.0), (base.fiber.span_km,))
        assert result.nsd_without_lpf[0] == pinned.nsd_with_lpf[0]


class TestCsvOutput:
    def test_sweep_file_layout(self, tmp_path):
        base = tiny_scenario(filter_fraction=1.0)
        result = sweep("distance", base, (10.0, 20.0))
        path = tmp_path / "sweep.csv"
        emit_csv(result, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "distance_km,nsd_without_lpf,nsd_with_lpf,chosen_fraction"
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert cells[0] == "10"
        assert float(cells[1]) == pytest.approx(result.nsd_without_lpf[0], rel=1e-11)
        # 12 fractional digits in scientific notation
        assert "e" in cells[1] and len(cells[1].split("e")[0].split(".")[1]) == 12

    def test_empty_sweep_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(SweepResult("power_dbm", (), (), (), ()), str(path))
        assert path.read_text(encoding="utf-8") == "power_dbm,nsd_without_lpf,nsd_with_lpf,chosen_fraction\n"

    def test_bytes_are_reproducible(self, tmp_path):
        base = tiny_scenario(optimize_fractions=(0.7, 1.0))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(sweep("distance", base, (10.0, 20.0)), str(a))
        emit_csv(sweep("distance", base, (10.0, 20.0)), str(b))
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_unwritable_path_raises_oserror(self, tmp_path):
        result = SweepResult("power_dbm", (), (), (), ())
        with pytest.raises(OSError):
            emit_csv(result, str(tmp_path / "missing_dir" / "out.csv"))

    def test_trace_file_layout(self, tmp_path, small_waveform):
        path = tmp_path / "trace.csv"
        write_trace_csv(small_waveform, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t_ps,re,im"
        assert len(lines) == small_waveform.grid.n_samples + 1
        t, re, im = lines[1].split(",")
        assert float(t) == 0.0
        assert float(re) == pytest.approx(small_waveform.samples[0].real, rel=1e-11)
        assert float(im) == pytest.approx(small_waveform.samples[0].imag, rel=1e-11)


class TestPresets:
    def test_preset_names(self):
        assert PRESETS == ("fig2", "fig3a", "fig3b", "fig3c", "fig3d")
        for name in PRESETS:
            assert preset_jobs(name, desk_scale=True)
            assert preset_jobs(name)

    def test_time_discretization_study(self):
        for desk_scale, n_seeds in ((True, 6), (False, 20)):
            (job,) = preset_jobs("fig2", desk_scale=desk_scale)
            assert (job.label, job.axis) == ("fig2", "dt")
            assert job.values == (30.0, 10.0, 8.0, 6.0, 4.0)
            assert job.base.candidate_spp == 30
            assert job.base.launch.power_dbm == 9.6
            assert job.base.fiber.span_km == 600.0
            assert job.base.candidate_dz_km == 1.5
            assert job.base.seeds == tuple(range(n_seeds))

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError):
            preset_jobs("fig9")

    def test_distance_study_desk_scale(self):
        (job,) = preset_jobs("fig3a", desk_scale=True)
        assert job.axis == "distance"
        assert job.values == (200.0, 600.0, 1000.0)
        assert job.base.candidate_spp == 16
        assert job.base.launch.power_dbm == 10.0
        assert job.base.n_symbols == 64
        assert job.base.seeds == tuple(range(10))
        assert job.base.filter_fraction == "optimize"
        assert job.base.optimize_fractions[-1] == 1.0

    def test_distance_study_full_scale(self):
        (job,) = preset_jobs("fig3a")
        assert job.values == tuple(float(z) for z in range(100, 1001, 100))
        assert job.base.n_symbols == 256
        assert job.base.seeds == tuple(range(20))
        assert len(job.base.optimize_fractions) == 51

    def test_power_study(self):
        (job,) = preset_jobs("fig3b", desk_scale=True)
        assert job.axis == "power"
        assert job.base.candidate_spp == 8
        assert job.values == (5.4, 6.6, 7.8)

    def test_resolution_study(self):
        (job,) = preset_jobs("fig3c", desk_scale=True)
        assert job.axis == "dt"
        assert 16.0 in job.values

    def test_bandwidth_study_has_two_curves(self):
        jobs = preset_jobs("fig3d", desk_scale=True)
        assert [(j.base.candidate_spp, j.base.launch.power_dbm) for j in jobs] == [
            (16, 10.0),
            (8, 6.3),
        ]
        assert all(j.axis == "bandwidth" for j in jobs)
        assert all(j.values[-1] == 1.0 for j in jobs)

    def test_fiber_parameters_shared_by_all_presets(self):
        for name in PRESETS:
            for job in preset_jobs(name, desk_scale=True):
                assert job.base.fiber.beta2 == -21.7
                assert job.base.fiber.gamma == 1.27
                assert job.base.fiber.alpha == 0.0


@pytest.fixture(scope="module")
def fig2_job():
    """The desk-scale ``fig2`` job on seed 0 alone."""
    (job,) = preset_jobs("fig2", desk_scale=True)
    return dataclasses.replace(job, base=replace(job.base, seeds=(0,)))


@pytest.fixture(scope="module")
def fig2_run(fig2_job):
    """``reproduce_fig2`` of :func:`fig2_job`, with the benchmark runs it made."""
    with pytest.MonkeyPatch.context() as patch:
        calls = TestSweep._count_benchmark_runs(patch)
        result = reproduce_fig2(fig2_job)
    return result, calls


@pytest.fixture(scope="module")
def fig2(fig2_run):
    return fig2_run[0]


class TestReproduceFig2:
    def test_summary_covers_all_resolutions(self, fig2):
        summary, _ = fig2
        assert summary.axis_name == "samples_per_symbol"
        assert summary.axis_values == (30.0, 10.0, 8.0, 6.0, 4.0)
        assert all(0.0 < f <= 1.0 for f in summary.chosen_fractions)

    def test_traces_present_for_every_resolution(self, fig2):
        _, traces = fig2
        expected = {"benchmark"}
        for spp in (30, 10, 8, 6, 4):
            expected |= {f"spp{spp}_unfiltered", f"spp{spp}_filtered"}
        assert set(traces) == expected
        assert traces["benchmark"].grid.samples_per_symbol == 30
        assert traces["spp4_unfiltered"].grid.samples_per_symbol == 4
        for wave in traces.values():
            assert wave.z_km == 600.0

    def test_aliasing_grows_as_sampling_coarsens(self, fig2):
        summary, _ = fig2
        # columns ordered spp 30, 10, 8, 6, 4
        without = summary.nsd_without_lpf
        assert without[1] < without[2] < without[3] < without[4]

    def test_summary_is_the_dt_sweep_of_the_30_spp_scenario(self, fig2, fig2_job):
        summary, _ = fig2
        dt = sweep("dt", fig2_job.base, fig2_job.values)
        assert summary.nsd_without_lpf == dt.nsd_without_lpf
        assert summary.nsd_with_lpf == dt.nsd_with_lpf
        assert summary.chosen_fractions == dt.chosen_fractions

    def test_benchmark_trace_is_row_0_of_the_benchmark(self, fig2, fig2_job):
        _, traces = fig2
        fields = runner.benchmark_fields(fig2_job.base)
        assert np.array_equal(traces["benchmark"].samples, fields[0, 0])

    def test_all_resolutions_share_one_benchmark_run(self, fig2_run):
        _, calls = fig2_run
        assert len(calls) == 1
