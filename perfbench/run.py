"""pointdyn benchmark: exact-verdict jobs run as a closed loop.

Usage, from the root of a checkout (the library is imported from src/):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client runs one job at a time. A run repeats whole rounds of the
workload's job list, in pairs, until --seconds have passed; every round
runs the same jobs on freshly built systems. Job times are wall times
scaled to reference seconds by the host-speed calibration in speed.py.
Every job's output is reduced to a canonical string and checked against
the golden value recorded at the seed commit, against the workload's
second route where it has one, and against the first round. The last
stdout line is one JSON object: with --trace 0 it holds the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run that
alternates untraced and traced rounds (the pair gives the tracing
overhead).

Exits 2 without a result when the checkout holds no pointdyn sources.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

SRC = "src"
OUT_DIR = os.path.join("perfbench", "out")
GOLDEN = os.path.join("perfbench", "golden.json")
# Whole rounds in pairs, at least two: the tail then has two samples of
# every job behind it, and a traced run pairs an untraced with a traced
# round.
MIN_ROUNDS = 2
SETUP_REPEATS = 9
INTERPRETER_REPEATS = 5
PDL = "import sys\nfrom pointdyn.cli import main\nsys.exit(main())"
TRACEBACK = b"Traceback (most recent call last)"


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    src = os.path.abspath(SRC)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv):
    """Run a child to completion: (exit, stdout, stderr, wall s, maxrss MB)."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, \
            tempfile.TemporaryFile(dir=OUT_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read(), err.read(), wall,
                usage.ru_maxrss / 1024)


# -- one round ----------------------------------------------------------------


class Record:
    """One job attempt: its time and what it produced."""

    def __init__(self, key, wall, mark, canon=None, error=None, codes=None,
                 exit_code=None, traceback=False):
        self.key, self.wall, self.mark = key, wall, mark
        self.seconds = None     # reference seconds, set after the run
        self.canon, self.error = canon, error
        self.codes, self.exit_code, self.traceback = codes, exit_code, traceback
        self.status = None      # "ok" | "error" | "wrong", set by check()


def run_inprocess_round(wl, tracer, speed):
    records = []
    for job in wl.jobs:
        mark = speed.mark()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = job.run()
            else:
                with tracer.span(f"job:{job.kind}"):
                    raw = job.run()
            wall = time.perf_counter() - t0
        except Exception as exc:  # a raising job is counted as failed
            wall = time.perf_counter() - t0
            records.append(Record(job.key, wall, mark,
                                  error=f"{type(exc).__name__}: {exc}"))
            continue
        records.append(Record(job.key, wall, mark, canon=job.canon(raw)))
    speed.mark()
    return records


def run_cli_round(wl, tracer, speed, state):
    """Sequential pdl processes; traced rounds call main() in cli_child."""
    records = []
    for argv, codes in wl.cli:
        key = workloads.cli_key(argv)
        mark = speed.mark()
        if tracer is None:
            code, out, err, wall, rss = spawn([sys.executable, "-c", PDL, *argv])
            tb = TRACEBACK in err
            state["peak_rss_mb"] = max(state["peak_rss_mb"], rss)
            state["process_s"].append(wall)
        else:
            with tracer.span("job:pdl"):
                code, out, err, wall, _rss = spawn(
                    [sys.executable, os.path.join("perfbench", "cli_child.py"),
                     *argv])
                if code != 0 or not out.strip():
                    records.append(Record(key, wall, mark, codes=codes,
                                          error=err.decode(errors="replace")))
                    continue
                child = json.loads(out.decode().strip().splitlines()[-1])
                tracer.adopt(child["spans"], child["agg"], child["dropped"])
            code, out = child["exit"], child["stdout"].encode()
            tb = child["raised"] is not None
            state["import_s"].append(child["import_s"])
        rec = Record(key, wall, mark, codes=codes, exit_code=code, traceback=tb)
        if codes is None:
            rec.canon = workloads.cli_canon(code, out)
        records.append(rec)
    speed.mark()
    return records


# -- checks ---------------------------------------------------------------------


def check(records, golden, first, wl):
    """Set each record's status; return how many had no golden value.

    "error": the job raised, printed a traceback or broke the exit-code
    contract. "wrong": it completed with an output that differs from the
    golden value, from its second route or from the first round.
    """
    by_key = {r.key: r for r in records}
    no_golden = 0
    for r in records:
        if r.error is not None or r.traceback:
            r.status = "error"
            continue
        if r.codes is not None:
            r.status = "ok" if r.exit_code in r.codes else "error"
            continue
        expected = golden.get(r.key)
        no_golden += expected is None
        wrong = (expected is not None and r.canon != expected) or \
            (r.key in first and r.canon != first[r.key])
        r.status = "wrong" if wrong else "ok"
    for a, b in wl.agree:
        ra, rb = by_key[a], by_key[b]
        if ra.canon is not None and rb.canon is not None and ra.canon != rb.canon:
            rb.status = "wrong"
    for r in records:
        if r.canon is not None and r.key not in first:
            first[r.key] = r.canon
    return no_golden


# -- statistics -------------------------------------------------------------------


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tracer, traced_rounds, state, untraced_rate, traced_rate):
    """Per-layer metrics, per traced round; times are wall seconds."""
    agg = tracer.aggregates()
    out = {}
    for name in tracing.span_names():
        out[f"{name}.calls"] = (agg["calls"].get(name, 0) / traced_rounds,
                                "count")
        out[f"{name}.self_s"] = (agg["self"].get(name, 0.0) / traced_rounds,
                                 "s")
        out[f"{name}.total_s"] = (agg["total"].get(name, 0.0) / traced_rounds,
                                  "s")
    c = agg["counters"]
    conj = agg["calls"].get("stability.build_conjugacy", 0)
    gh = agg["calls"].get("stability.gh_distance_bounds", 0)
    out["shadowing.windows_checked"] = (
        c["shadowing.windows_checked"] / traced_rounds, "count")
    out["stability.perturbations"] = (
        c["stability.perturbations"] / traced_rounds, "count")
    out["stability.conjugacy_success_ratio"] = (
        c["stability.conjugacy_success"] / conj if conj else 0.0, "ratio")
    out["stability.gh_complete_ratio"] = (
        c["stability.gh_complete"] / gh if gh else 0.0, "ratio")

    def med(values):
        return statistics.median(values) if values else 0.0

    out["cli.interpreter_s"] = (med(state["interpreter_s"]), "s")
    out["cli.import_s"] = (med(state["import_s"]), "s")
    out["cli.process_s"] = (med(state["process_s"]), "s")
    out["cli.traceback_count"] = (
        state["tracebacks"] / state["untraced_rounds"], "count")
    out["trace.untraced_jobs_per_s"] = (untraced_rate, "1/s")
    out["trace.jobs_per_s"] = (traced_rate, "1/s")
    out["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate, "ratio")
    return out


# -- the run ------------------------------------------------------------------------


def measure_setup(workload, seed, speed):
    """Medians of fresh-process set-ups: (reference seconds, wall seconds)."""
    runs = []
    script = os.path.join("perfbench", "setup_child.py")
    for _ in range(SETUP_REPEATS):
        mark = speed.mark()
        code, out, err, _wall, _rss = spawn(
            [sys.executable, script, workload, str(seed)])
        if code != 0:
            _fail(f"set-up failed:\n{err.decode(errors='replace')}")
        runs.append((json.loads(out.decode().strip().splitlines()[-1])["setup_s"],
                     mark))
    speed.mark()
    return (statistics.median(speed.scale(s, m) for s, m in runs),
            statistics.median(s for s, _m in runs))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(args):
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")
    with open(GOLDEN) as fh:
        golden = json.load(fh)["golden"].get(args.workload, {})

    # One client on one core: the calibration probes, the jobs and the
    # pdl children then share the core whose speed the probes measure.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = Speedometer()
    if not args.trace:
        setup_s, setup_wall = measure_setup(args.workload, args.seed, speed)
    wl = workloads.build(args.workload, args.seed)
    cli = wl.cli is not None
    tracer = tracing.Tracer() if args.trace else None
    state = {"peak_rss_mb": 0.0, "process_s": [], "import_s": [],
             "interpreter_s": [], "tracebacks": 0, "untraced_rounds": 0}
    if args.trace and cli:
        for _ in range(INTERPRETER_REPEATS):
            state["interpreter_s"].append(spawn([sys.executable, "-c", "pass"])[3])

    first, rounds = {}, []
    no_golden = 0
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if cli:
            records = run_cli_round(wl, tracer if traced else None, speed, state)
        else:
            if traced:
                tracer.install()
            try:
                records = run_inprocess_round(wl, tracer if traced else None,
                                              speed)
            finally:
                if traced:
                    tracer.uninstall()
        if not traced:
            state["untraced_rounds"] += 1
            state["tracebacks"] += sum(r.traceback for r in records)
        no_golden += check(records, golden, first, wl)
        rounds.append((traced, records))
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds and len(rounds) >= MIN_ROUNDS and \
                len(rounds) % 2 == 0:
            break
    peak_rss_mb = (state["peak_rss_mb"] if cli else
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    cross_failed, refuted = [], 0
    if wl.cross_check is not None:
        cross_failed, refuted = wl.cross_check(first)
    everything = [r for _t, records in rounds for r in records]
    for r in everything:
        r.seconds = speed.scale(r.wall, r.mark)
        if r.key in cross_failed:
            r.status = "wrong"
    attempted = len(everything)
    failed = sum(r.status != "ok" for r in everything)
    wrong = sum(r.status == "wrong" for r in everything)
    for r in everything:
        if r.status != "ok":
            print(f"FAILED {r.status}: {r.key} "
                  f"{r.error or ''}{' traceback' if r.traceback else ''}"
                  f"{'' if r.exit_code is None else f' exit={r.exit_code}'}"
                  .rstrip(), file=sys.stderr)

    untraced = [r for t, records in rounds if not t for r in records]
    seconds = [r.seconds for r in untraced]
    p50 = statistics.median(seconds)
    tail_s, tail_pct = tail(seconds)
    rate = len(seconds) / sum(seconds)
    walls = [r.wall for r in untraced]
    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"jobs/round={len(rounds[0][1])} attempted={attempted} "
          f"failed={failed} wrong={wrong} no_golden={no_golden} "
          f"cross_failed={len(cross_failed)} cross_refuted={refuted}")
    print(f"wall: job_p50_s={statistics.median(walls):.6f} "
          f"job_tail_s={tail(walls)[0]:.6f} "
          f"jobs_per_s={len(walls) / sum(walls):.4f} "
          f"host_probe_median_s={statistics.median(speed.probes):.6f}"
          + ("" if args.trace else f" setup_s={setup_wall:.6f}"))
    print(f"reference: job_p50_s={p50:.6f} job_tail_s={tail_s:.6f} "
          f"(p{tail_pct:.1f} of {len(seconds)} samples) "
          f"jobs_per_s={rate:.4f} peak_rss_mb={peak_rss_mb:.2f}"
          + ("" if args.trace else f" setup_s={setup_s:.6f}"))

    if args.trace:
        traced_s = [r.seconds for t, records in rounds if t for r in records]
        metrics = layer_metrics(tracer, len(rounds) // 2, state, rate,
                                len(traced_s) / sum(traced_s))
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracing.write_spans(spans_path, tracer.spans(), tracer.dropped)
        print(f"traced rounds={len(rounds) // 2} "
              f"overhead={metrics['trace.overhead_frac'][0]:.3f} "
              f"spans={spans_path}")
    else:
        metrics = {
            "job_p50_s": (p50, "s"),
            "job_tail_s": (tail_s, "s"),
            "jobs_per_s": (rate, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        }
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    ARGS = parse_args()
    if not os.path.isfile(os.path.join(SRC, "pointdyn", "__init__.py")):
        _fail("run from a checkout root that holds src/pointdyn")
    if not os.path.isfile(GOLDEN):
        _fail(f"missing {GOLDEN}")
    sys.path.insert(0, os.path.abspath(SRC))
    os.makedirs(OUT_DIR, exist_ok=True)
    import tracing     # noqa: E402  (both need pointdyn on sys.path)
    import workloads   # noqa: E402
    from speed import Speedometer  # noqa: E402
    sys.exit(main(ARGS))
