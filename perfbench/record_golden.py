"""Record the golden canonical outputs the benchmark checks jobs against.

Usage, from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record_golden.py [workload ...]

Runs every job of every shipped seed once (untimed) and writes
perfbench/golden.json. A key that recurs under another seed is run only
once; keys that name a catalogue entry rather than a seed are expected
to give the same output for every seed, and the benchmark's own runs
check that they do. Error-path argv of cli-desk have no golden value:
they are checked against the exit-code contract instead.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.abspath("src"))

import workloads  # noqa: E402  (perfbench/ is this script's directory)

GOLDEN = os.path.join("perfbench", "golden.json")
SEEDS = range(32)
PDL = "import sys\nfrom pointdyn.cli import main\nsys.exit(main())"


def record(name, golden):
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    for seed in SEEDS:
        wl = workloads.build(name, seed)
        for job in wl.jobs:
            if job.key not in golden:
                golden[job.key] = job.canon(job.run())
        for argv, codes in wl.cli or ():
            key = workloads.cli_key(argv)
            if codes is None and key not in golden:
                proc = subprocess.run([sys.executable, "-c", PDL, *argv],
                                      capture_output=True, env=env, check=False)
                golden[key] = workloads.cli_canon(proc.returncode, proc.stdout)
        print(f"{name} seed {seed}: {len(golden)} keys", file=sys.stderr)


def main(names):
    data = {"golden": {}}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            data = json.load(fh)
    data["seeds"] = [SEEDS.start, SEEDS.stop - 1]
    for name in names or workloads.WORKLOADS:
        data["golden"][name] = {}
        record(name, data["golden"][name])
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
