"""ssfmlab benchmark.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Workloads are defined in ``workloads.py``.

With ``--trace 0`` the benchmark measures set-up time over fresh
interpreters, then runs the workload's ``ssfmlab`` command closed-loop (one
process at a time, each started after the previous one exits) for about
``--seconds`` seconds, starting another command only while it is expected
to finish inside that window; at least one command always runs.  Every
command's output must pass the gate in ``workloads.check_outputs``: byte
for byte against the seed commit's output where ``golden.json`` has the
seed, and invariants always.  A failed command is never retried.

With ``--trace 1`` it runs the layer microbenchmarks in ``micro.py``, then
the command in-process three times, the second time with span wrappers
installed (``tracing.py``), and reports the per-layer metrics.  This mode
makes one traced pass and does not use ``--seconds``.

The last line of standard output is the result as one JSON object.  The
full record (samples, machine stamp and, when traced, every span) is
written to ``.bench_work/<workload>-seed<N>-trace<T>.json``; records of
earlier runs are kept, and only the scratch files under
``.bench_work/scratch/`` (scenario, outputs, logs) are replaced by each run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SCRATCH = os.path.join(WORK, "scratch")

sys.path.insert(0, HERE)
from micro import metric  # noqa: E402
from workloads import WORKLOADS, Workload, gate, load_golden  # noqa: E402

SETUP_LAUNCHES = 15
COMMAND_TIMEOUT_S = 120.0
# The console script ``ssfmlab`` calls ``ssfmlab.cli:entry``; run it the same way.
ENTRY = "import sys; from ssfmlab.cli import entry; sys.argv[0] = 'ssfmlab'; entry()"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_command(argv: list[str], log_path: str) -> tuple[int, float, float]:
    """Run ``ssfmlab argv`` in a fresh process: (exit code, wall s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
    # Wait without reaping, so the pid cannot be reused while the watchdog may kill it.
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    finally:
        watchdog.cancel()
        watchdog.join()
        if os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(scenario_path: str, launches: int) -> list[dict[str, float]]:
    """Time ``launches`` fresh interpreters through ``setup_probe.py``, after one warm-up."""
    samples = []
    for i in range(launches + 1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), scenario_path],
                              cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                              capture_output=True, check=True, timeout=60)
        wall = time.perf_counter() - start
        if i:
            samples.append({"setup_s": wall, **json.loads(done.stdout.decode().splitlines()[-1])})
    return samples


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def git_commit() -> str:
    """Commit of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp(loadavg: tuple[float, float, float]) -> dict:
    import numpy

    simd = numpy.show_config(mode="dicts").get("SIMD Extensions", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "simd_baseline": simd.get("baseline"),
        "simd_dispatch": simd.get("found"),
        "git_commit": git_commit(),
        "loadavg_at_start": list(loadavg),
    }


def run_untraced(workload: Workload, seed: int, seconds: float, scenario_path: str,
                 golden: dict) -> tuple[dict, dict]:
    """Closed loop of fresh ``ssfmlab`` processes for about ``seconds``; end-to-end metrics."""
    out_dir = os.path.join(SCRATCH, "out")
    runs = []
    window_end = time.perf_counter() + seconds
    while True:
        fresh_dir(out_dir)
        code, wall, rss = run_command(workload.argv(seed, scenario_path, out_dir),
                                      os.path.join(SCRATCH, "command.log"))
        runs.append({"wall_s": wall, "peak_rss_mb": rss, "exit_code": code,
                     "failure": gate(workload, seed, out_dir, golden, code)})
        typical = statistics.median(r["wall_s"] for r in runs)
        if time.perf_counter() + typical > window_end:
            break
    failed = sum(1 for r in runs if r["failure"])
    wall_s = statistics.median(r["wall_s"] for r in runs)
    metrics = {
        "wall_s": metric(wall_s, "s"),
        "msegs_per_s": metric(workload.nominal_sample_segments() / 1e6 / wall_s, "Msample-seg/s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "pass_ratio": metric((len(runs) - failed) / len(runs), "ratio"),
    }
    return metrics, {"runs": runs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # Turn SIGTERM into an exception so that running commands are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "ssfmlab", "cli.py")):
        print(f"error: no ssfmlab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    loadavg = os.getloadavg()
    workload = WORKLOADS[args.workload]
    golden = load_golden()
    fresh_dir(SCRATCH)
    scenario_path = os.path.join(SCRATCH, "scenario.txt")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        fh.write(workload.scenario(args.seed))

    setup = measure_setup(scenario_path, SETUP_LAUNCHES)
    if args.trace:
        sys.path.insert(0, SRC)
        import tracing

        metrics, record = tracing.run_traced(workload, args.seed, scenario_path, SCRATCH, golden)
        metrics["cli.import_s"] = metric(statistics.median(s["import_s"] for s in setup), "s")
    else:
        metrics, record = run_untraced(workload, args.seed, args.seconds, scenario_path, golden)
        metrics["setup_s"] = metric(statistics.median(s["setup_s"] for s in setup), "s")

    runs = record["runs"]
    failed = sum(1 for r in runs if r["failure"])
    stamp = machine_stamp(loadavg)
    record.update(workload=workload.name, seed=args.seed, trace=args.trace, stamp=stamp,
                  setup_samples=setup,
                  nominal_sample_segments=workload.nominal_sample_segments(), metrics=metrics)
    with open(os.path.join(WORK, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for r in runs:
        if r["failure"]:
            print(f"FAILED: {r['failure']}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(f"{workload.name}: {len(runs)} command(s) attempted, {failed} failed"
          + ("" if args.trace else "; wall_s and peak_rss_mb are medians over them"))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
