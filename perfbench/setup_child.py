"""One fresh-process set-up: import pointdyn, then build a workload's inputs.

Usage (from the checkout root, with src on PYTHONPATH):
    python3 perfbench/setup_child.py <workload> <seed>
Prints one JSON line with the elapsed set-up seconds.
"""

import json
import sys
import time

t0 = time.perf_counter()
workload, seed = sys.argv[1], int(sys.argv[2])
if workload == "cli-desk":
    import pointdyn.cli  # noqa: F401  (pdl's own import)
else:
    import pointdyn  # noqa: F401

import workloads  # noqa: E402  (perfbench/ is this script's directory)

workloads.build(workload, seed)
t1 = time.perf_counter()
print(json.dumps({"setup_s": t1 - t0}))
