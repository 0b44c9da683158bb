"""Command-line front end.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 numerical
overflow left no finite result, 4 output I/O failure.  Unreadable scenario
files, and scenarios too large to allocate, count as invalid configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import operator
import os
import sys
from typing import Sequence

from . import harness
from .engine import NumericalOverflowError
from .harness import OPTIMIZE, Scenario, ScenarioError
from .metrics import nsd

__all__ = ["main", "entry"]


def _add_common(
    parser: argparse.ArgumentParser, config: bool = True, threads: bool = True, desk_scale: bool = False
) -> None:
    if config:
        parser.add_argument("--config", required=True, help="scenario file (key = value lines)")
    parser.add_argument("--seeds", help="seed count, or comma-separated seed list")
    parser.add_argument("--out", help="output path (or path prefix for multi-file commands)")
    if desk_scale:
        parser.add_argument(
            "--desk-scale",
            action="store_true",
            help="shrink presets (fewer symbols, seeds and axis points) for quick runs",
        )
    if threads:
        parser.add_argument(
            "--threads",
            type=int,
            default=0,
            metavar="N",
            help="worker processes, at most one per CPU; 0 = one per CPU (default)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssfmlab",
        description="Split-step fiber simulator with low-pass-filtered linear steps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="run one scenario seed and dump the output trace")
    _add_common(p, threads=False)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("nsd", help="NSD between the outputs of two run specs")
    p.add_argument("reference", help="scenario file for the reference run")
    p.add_argument("candidate", help="scenario file for the candidate run")
    _add_common(p, config=False, threads=False)
    p.set_defaults(func=cmd_nsd)

    p = sub.add_parser("sweep", help="sweep one axis of a scenario")
    p.add_argument("--axis", required=True, choices=harness.AXES)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize-bandwidth", help="grid-search the filter bandwidth")
    p.add_argument("--fractions", help="fraction grid as start:step:stop or comma list")
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("reproduce", help="run a named preset experiment")
    p.add_argument("preset", choices=harness.PRESETS)
    _add_common(p, config=False, desk_scale=True)
    p.set_defaults(func=cmd_reproduce)

    return parser


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    if args.seeds:
        scenario = dataclasses.replace(scenario, seeds=harness.parse_seed_spec(args.seeds))
    return scenario


def _writable(path: str | None) -> str | None:
    """``path``, refused (exit 4) before any work if it is a folder or its folder is missing."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise OSError(f"cannot write {path}: it is a folder or its folder does not exist")
    return path


def _require_numeric_fraction(scenario: Scenario, command: str) -> float:
    if scenario.filter_fraction == OPTIMIZE:
        raise ScenarioError(
            f"'{command}' needs a numeric filter_fraction; 'optimize' is only "
            f"meaningful for sweeps and bandwidth searches"
        )
    return float(scenario.filter_fraction)


def cmd_propagate(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(harness.load_scenario(args.config), args)
    fraction = _require_numeric_fraction(scenario, "propagate")
    out = _writable(args.out or "propagate.csv")
    wave = harness.seed_run(scenario, scenario.seeds[0], fraction)
    harness.write_trace_csv(wave, out)
    print(f"wrote {out}")
    return 0


# The scenario keys of the transmitter and channel two ``nsd`` run specs must
# share; only the candidate grid, step and filter fraction may differ.
_SHARED_BY_NSD = (
    "span_km", "beta2_ps2_per_km", "gamma_per_w_km", "alpha_per_km",
    "power_dbm", "rolloff", "baud_gbaud", "n_symbols", "seeds",
)


def cmd_nsd(args: argparse.Namespace) -> int:
    reference = _apply_overrides(harness.load_scenario(args.reference), args)
    candidate = _apply_overrides(harness.load_scenario(args.candidate), args)
    for key in _SHARED_BY_NSD:
        value = operator.attrgetter(harness._KEYS[key][0])
        if value(reference) != value(candidate):
            raise ScenarioError(f"run specs disagree on {key}")
    ref_fraction = _require_numeric_fraction(reference, "nsd")
    cand_fraction = _require_numeric_fraction(candidate, "nsd")
    out = _writable(args.out)
    values = []
    for seed in reference.seeds:
        try:
            ref_wave = harness.seed_run(reference, seed, ref_fraction)
            cand_wave = harness.seed_run(candidate, seed, cand_fraction)
            values.append(nsd(ref_wave, cand_wave))
        except NumericalOverflowError:
            values.append(math.inf)
    mean = sum(values) / len(values)
    print(f"nsd = {harness._fmt(mean)} over {len(values)} seed(s)")
    if out:
        harness._write_csv(out, "nsd", [[harness._fmt(mean)]])
    return _exit_status([mean])


def _parse_values(text: str, axis: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ScenarioError(f"cannot parse --values for axis {axis}: {text!r}") from exc


def _exit_status(values: Sequence[float]) -> int:
    """3, with an error line, when there are NSD values and overflow left none
    of them finite, else 0."""
    if values and not any(math.isfinite(v) for v in values):
        print("error: numerical overflow left no finite NSD", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(harness.load_scenario(args.config), args)
    values = _parse_values(args.values, args.axis)
    out = _writable(args.out or f"sweep_{args.axis}.csv")
    result = harness.sweep(args.axis, scenario, values, threads=args.threads)
    harness.emit_csv(result, out)
    print(f"wrote {out}")
    return _exit_status(result.nsd_without_lpf + result.nsd_with_lpf)


def cmd_optimize(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(harness.load_scenario(args.config), args)
    fractions = harness.parse_fraction_spec(args.fractions) if args.fractions else None
    out = _writable(args.out)
    if fractions is not None:
        scenario = dataclasses.replace(scenario, optimize_fractions=fractions)
    result = harness.sweep("bandwidth", scenario, scenario.optimize_fractions, threads=args.threads)
    best_fraction, best_nsd = harness._select_best(result.axis_values, result.nsd_with_lpf)
    print(
        f"best filter_fraction = {harness._fmt_axis(best_fraction)} "
        f"with nsd = {harness._fmt(best_nsd)} "
        f"(unfiltered nsd = {harness._fmt(result.nsd_without_lpf[0])})"
    )
    if out:
        harness.emit_csv(result, out)
        print(f"wrote {out}")
    return _exit_status(result.nsd_with_lpf)


def cmd_reproduce(args: argparse.Namespace) -> int:
    jobs = [
        dataclasses.replace(job, base=_apply_overrides(job.base, args))
        for job in harness.preset_jobs(args.preset, desk_scale=args.desk_scale)
    ]
    prefix = args.out or args.preset
    named = prefix.endswith(".csv")  # the path of a single CSV or fig2's summary, not a prefix
    stem = prefix[: -len(".csv")] if named else prefix
    all_values: list[float] = []
    for job in jobs:  # each job's CSV path is checked before the job runs
        if args.preset == "fig2":
            out = _writable(prefix if named else f"{stem}_summary.csv")
            trace_stem = stem.removesuffix("_summary") if named else stem
            result, traces = harness.reproduce_fig2(job, threads=args.threads)
        else:
            out = _writable(f"{stem}.csv" if len(jobs) == 1 else f"{stem}_{job.label}.csv")
            result, traces = harness.sweep(job.axis, job.base, job.values, threads=args.threads), {}
        harness.emit_csv(result, out)
        print(f"wrote {out}")
        for label, wave in traces.items():
            trace_path = f"{trace_stem}_trace_{label}.csv"
            harness.write_trace_csv(wave, trace_path)
            print(f"wrote {trace_path}")
        all_values.extend(result.nsd_without_lpf + result.nsd_with_lpf)
    return _exit_status(all_values)


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 0) < 0:
        print(f"error: --threads must be 0 (auto) or positive, got {args.threads}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except NumericalOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
