"""Record the golden output digests that the benchmark's byte-exact gate uses.

    python3 bench/make_golden.py

Runs every workload's command for workload seeds 0..GOLDEN_SEEDS-1 and writes the SHA-256 of each output file to ``bench/golden.json``.  The
digests pin the output of the commit that defined the benchmark; a change
that keeps outputs bit-identical must not regenerate them.
"""

from __future__ import annotations

import json
import os
import sys

from run_bench import SCRATCH, fresh_dir, run_command
from workloads import GOLDEN, WORKLOADS, check_invariants, digest

GOLDEN_SEEDS = 32


def main() -> int:
    golden: dict[str, dict[str, dict[str, str]]] = {}
    scenario_path = os.path.join(fresh_dir(SCRATCH), "scenario.txt")
    out_dir = os.path.join(SCRATCH, "out")
    for name, workload in WORKLOADS.items():
        golden[name] = {}
        for seed in range(GOLDEN_SEEDS):
            with open(scenario_path, "w", encoding="utf-8") as fh:
                fh.write(workload.scenario(seed))
            fresh_dir(out_dir)
            code, wall, _ = run_command(workload.argv(seed, scenario_path, out_dir),
                                        os.path.join(SCRATCH, "command.log"))
            if code != 0:
                print(f"{name} seed {seed}: exit code {code}", file=sys.stderr)
                return 1
            check_invariants(workload, out_dir)
            golden[name][str(seed)] = {
                f: digest(os.path.join(out_dir, f)) for f in workload.output_files()
            }
            print(f"{name} seed {seed}: {wall:.2f} s", flush=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
