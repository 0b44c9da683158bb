"""Set-up probe, run in a fresh interpreter for every set-up sample.

Imports ``ssfmlab.cli``, parses the scenario file given as the only
argument and builds its launch fields, then prints the time of each stage
as one JSON line.  ``run_bench.py`` times the whole process from outside.

    PYTHONPATH=src python3 bench/setup_probe.py SCENARIO
"""

import json
import sys
import time

t0 = time.perf_counter()
import ssfmlab.cli  # noqa: E402,F401
from ssfmlab import harness, runner  # noqa: E402

t1 = time.perf_counter()
scenario = harness.load_scenario(sys.argv[1])
t2 = time.perf_counter()
runner.shaped_fields(scenario)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "fields_s": t3 - t2}))
