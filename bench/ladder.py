"""Size ladder for the finite-kernel layers that classification and
the shadowing deciders pay for.

Each rung is one finite system; each layer is one kernel view built on
a fresh system, timed alone with the views it reads already built:

- ``within``: the bitset rows within(c);
- ``inseparable``: the bitset rows inseparable(c), built from the
  integer rows and cycles alone (within(c, closed=True) and the orbits
  of f^p are part of the timed build), at the rung's c and at the
  carrier's diameter, where every class of every cycle survives. From
  BENCH_29 on the timed pass also builds first_inseparable_pair's paired
  mask and the per-cycle verdicts of cycle_failures(c). The
  ``sup_scaled`` layer of BENCH_14 to BENCH_27 timed the integer
  sup-separation matrix these rows were read from before BENCH_28;
- ``twin``: conjugate_system(..., transport_metric=True) with a seeded
  bijection, the relabeled twin of the classify-lattice workload: the
  gather of the source's integer rows into the twin's space, which builds
  no Fraction table until one is read;
- ``carrier``: check_carrier between the rung and a second copy built
  separately, both with their integer rows built: a comparison of the
  two carrier tokens, which on a finite carrier are the (denominator,
  rows) pairs;
- ``decider``: shadowable_exact at the rung's first point, at (eps,
  delta) = (5/4, 5/4) and (7/5, 1/2), on a fresh system with its integer
  rows and cycles built (c holds "eps delta"). Its counters are the
  verdict, the order, and the work of one more walk from that point on
  another fresh system: states, the tracer sets it keeps, and images, the
  distinct f(A) it computes.
- ``tracing``: FiniteKernel.trace_cycle at the rung's c of the orbit of
  the first point, and of that orbit less its last point when it has
  more than one, on a fresh system with its integer rows and within(c)
  built. Its counters are P, the window's length, and tracers, the
  tracer count.
- ``sweep``: shadowable_exact_points at every point of cat7, cat9,
  cat13 and cat17 at (eps, delta) = (1/2, 1/3), on a fresh system with
  its integer rows and cycles built. Every point is True there, so the
  sweep walks every state reachable from the carrier, each once, as
  later walks stop at the states of earlier ones. Its counters are the
  points decided and the True verdicts.

The rungs are the cat map (2 1; 1 1) on the 7, 9, 13 and 17 tori at
c = 1/4, the circles Z36 and Z96 with a unit step at c = 1/(2n), and
three explicit systems with long pair orbits at c = 7/5: cycles of
lengths 3, 4, 5, 7, 11 and 13 (n = 43, order 60 060), a seeded random
permutation of 40 points, and two coprime cycles of lengths 199 and 201
(n = 400, pair orbits of period 39 999). Explicit distances are drawn
from [1, 2], so the triangle inequality holds.

The ``gh`` layer times the Gromov-Hausdorff searches on pairs of
systems. ``exact`` records time find_exact_isomorphism from the Z36,
Z96 and cat rungs to a relabeled twin (a seeded bijection with the
metric carried over, so an isomorphism is found) and to the same carrier
under another unit step: the rotation by 5 for Z36 and Z96, the square
(5 3; 3 2) of the cat map for the cat rungs (no isomorphism exists).
``bounds`` records time gh_distance_bounds at its default budget on
the rotation pairs of the stability-pipeline benchmark workload (Z16
to Z24, steps 1, 5 and 7 where they are units) and on the bundled
nearpair4 against cat5. Each call gets fresh systems with their integer
rows and cycles built; size is the point count of the first system, c
is null, and the counters are the outcome: found, and for bounds also
complete, lower and upper. Three more cases add peak_kib, the
tracemalloc peak of one more call, which shows what the search keeps per
suspended slot: bounds cat5-z25k7, the stability-pipeline gh-budget job
(cat5 against Z25 under the rotation by 7, budget 5 * 10**4 nodes), a
dense search that reads its distance rows many times; and exact Z1100
self and exact Z1100 other-step (the circle of 1 100 points under the
unit rotation, against itself and against the rotation by 3), sparse
searches with one candidate per slot.

The ``windowed`` layer times shadowable_windowed on fresh systems with
their integer rows and cycles built: on the circle Z6 with a unit step
at x = 0, (eps, delta) = (2/3, 103/300) and N = 3, 4, 5 (15 625 to
9 765 625 windows, decided past the default window budget), and on
cycles43 at its first point, (7/5, 5/4) and N = 2. The case names the
system and N, c holds "eps delta", and the counters are the verdict,
windows_checked and worst, the worst window's tracer count. Two more
cases are refused under the default window budget: cat5 at (0,0),
(1/2, 1/2), N = 1 000 and N = 4 000, where the time goes to the exact
window count. A refused record's counters are refused, requested_bits,
the bit length of the count, and peak_kib, the tracemalloc peak of one
more, untimed call, which shows whether the count keeps every layer of
walk counts (before BENCH_31) or one.

The ``perturbations`` layer times enumerate_perturbations on fresh
systems with their integer rows, cycles and within(delta, closed=True)
built: Z12, Z20 and Z24 with a unit step at delta = 1/n, each as the
lattice and as its relabeled twin (a seeded bijection with the metric
carried over), whose maps must be sorted. These cases read only the
family's len, which from BENCH_39 on is the state DAG's root count and
builds no map; the cases Z20 twin perms and Z24 twin perms also read
the family's perms in the timed call, so they time the listing as well
(before BENCH_39 the enumerator built perms itself, and the two reads
cost the same). The counters are maps, the family's size, and nodes,
the partial maps a plain depth-first search extends. Two more cases
run at delta = 1/48 under a budget and add peak_kib, the tracemalloc
peak of one more call: Z48 refused, under 10**5 maps, whose counters
are refused and peak_kib, which shows whether the refusal holds the
maps found so far (before BENCH_32) or none; and Z48 counted, under
10**11 maps, whose counters are maps (10 749 957 124) and peak_kib. Z48
counted is measured only on a tree whose family builds its perms on
first read; on an older tree the call would list every map, so it
gives no record there.

The ``stable-point`` layer times verify_topologically_stable_point at
the first point, eps = 1/4, against the full family at delta = 1/n, on
fresh systems with their integer rows and cycles built and the family
enumerated and its perms read, so only the verification is timed: Z12
and Z20 with a unit step, and Z12's relabeled twin. The counters are
maps, the family's size, and orbits, the distinct orbits of the first
point under those maps, which the ladder counts itself from the
family's index permutations; a verifier that traces each orbit once
traces orbits, not maps.

One more layer is not a rung: ``import`` starts --repeats fresh
interpreters on each tree per case, each timing its own ``import
pointdyn.cli``. The record of case ``pointdyn.cli`` (size and c null)
holds the median of those import times as wall_s, and its counters are
the ``pointdyn`` modules loaded and whether ``dataclasses`` was loaded.
Its children run on the tree as it stands and write no bytecode when
PYTHONDONTWRITEBYTECODE is set, so run ``python3 -m compileall -q src``
on each tree first, or the import times the compiler too. From BENCH_40
on, the other cases run from source, as a fresh checkout under
PYTHONDONTWRITEBYTECODE=1 does, which is how the cli-desk benchmark
workload runs: each tree's ``pointdyn`` is copied to a temporary
directory with no ``__pycache__``, so every process compiles each module
it imports. Case ``pointdyn.cli from source`` times the import there,
with the counters above. Each case ``pdl <argv>`` times the import and
one ``main(argv)`` call, a call per verb (validate, classify and shadow
on a lattice stanza file, the rest on bundled systems), and its counters
are the ``pointdyn`` modules the call loaded and its exit code. A
``PYTHONPYCACHEPREFIX`` pointed at an empty directory is no substitute
for the copy: it compiles the standard library too.

Every other record is {tree, layer, case, size, repeats, wall_s,
counters}: wall_s is the least wall time over repeats fresh systems,
each timed call begun after a full garbage collection; size is the point
count n, and in the within, inseparable, twin and carrier layers the
counters describe the rung, not the code that ran on it: n, cycles and
order (the lcm of the cycle lengths); the inseparable layer adds
scanned, the sum over cycles C of length p of the orbits of f^p that
meet within(c, closed=True)[C[0]], the classes the periodic scan tests.
No figure here gates a test.

Run it from the repository root. Each --tree LABEL=SRC names a library
tree and the label its records carry. One invocation times every tree:
each runs in its own child process, which imports pointdyn from that
tree, and the trees take turns on every (layer, rung) unit, in reverse
turn order on every other unit, and on every fresh import process. So
host drift over the run falls on all trees alike and does not read as a
code effect:

    python3 -m compileall -q src ../parent/src
    python3 bench/ladder.py --repeats 15 --tree parent=../parent/src \
        --tree change=src --out BENCH_31.json

Records of other labels already in --out are kept; those of the given
labels are replaced. Each record carries its --repeats, and the
document's statistic names no count, so runs at different --repeats
share one file.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction as F
from math import gcd, lcm
from random import Random

PALETTE = (F(1), F(5, 4), F(4, 3), F(3, 2), F(7, 4), F(2))
DECIDER_SCALES = ((F(5, 4), F(5, 4)), (F(7, 5), F(1, 2)))
SWEEP_CASES, SWEEP_SCALES = ("cat7", "cat9", "cat13", "cat17"), (F(1, 2), F(1, 3))
WINDOWED_BUDGET = 10 ** 8
PERTURBATION_SIZES = (12, 20, 24)
# the sizes whose twins also have a rung that reads perms
LISTED_TWINS = (20, 24)
STABLE_POINT_EPS = F(1, 4)
# the node budget of the stability-pipeline gh-budget job
GH_BUDGET = 5 * 10 ** 4
# the rotation pairs (n, step, step) of the stability-pipeline GH jobs
GH_PAIRS = tuple((n, a, b) for n in (16, 18, 20, 24)
                 for a, b in ((1, 5), (1, 7), (5, 7))
                 if gcd(a, n) == gcd(b, n) == 1)
STATISTIC = ("wall_s: min wall seconds over a record's repeats fresh systems"
             " (import: median over repeats fresh processes)")
IMPORT_CHILD = """\
import sys, time
t0 = time.perf_counter()
import pointdyn.cli
wall = time.perf_counter() - t0
print(wall, sum(m.partition(".")[0] == "pointdyn" for m in sys.modules),
      "dataclasses" in sys.modules)
"""
PDL_CHILD = """\
import contextlib, io, sys, time
t0 = time.perf_counter()
import pointdyn.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = pointdyn.cli.main(sys.argv[1:])
wall = time.perf_counter() - t0
print(wall, sum(m.partition(".")[0] == "pointdyn" for m in sys.modules), code)
"""
# one pdl call per verb as the cli-desk benchmark workload makes them:
# validate, classify and shadow on a lattice stanza file (STANZA, written
# next to the copied package), the other verbs on bundled systems
STANZA, STANZA_TEXT = "z12k5.pdl", "lattice {\n  n = 12\n  map = rot 5\n  name = z12k5\n}\n"
VERB_ARGV = (
    ("validate", STANZA),
    ("classify", STANZA, "--variant", "uniform", "--c", "1/12"),
    ("shadow", STANZA, "--x", "0", "--eps", "1/4", "--delta", "1/24", "--window", "2"),
    ("classify", "bundled:r12k3", "--variant", "minimal", "--c", "1/6"),
    ("conjugacy", "bundled:id3", "bundled:id3", "--x", "0", "--eps", "1/2",
     "--delta", "1/2"),
    ("trackmap", "bundled:id3", "--x", "0", "--eta", "1/2"),
    ("ghdist", "bundled:r12k1", "bundled:r12k5", "--budget", "40000"),
    ("ghstable", "bundled:id3", "bundled:id3", "--x", "0", "--eps", "1/2",
     "--delta", "1/2"),
    ("mustable", "bundled:id3", "--measure", "bundled:nullpoint3", "--x", "0",
     "--eps", "1/2", "--delta", "1/2"),
    ("satellite", "bundled:satellite3"),
)


def cycles_perm(lengths):
    perm = []
    for p in lengths:
        perm += [len(perm) + (t + 1) % p for t in range(p)]
    return perm


def random_table(n, rng):
    table = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = rng.choice(PALETTE)
    return table


def rungs(systems, metric):
    """(case, make, c): make builds a fresh system on each call."""
    def explicit(perm, seed):
        table = random_table(len(perm), Random(seed))
        return lambda: systems.build_explicit(metric.FiniteMetricSpace(table), perm)

    shuffled = list(range(40))
    Random(40).shuffle(shuffled)
    out = [(f"cat{n}", lambda n=n: systems.build_lattice(n, kind="torus", matrix=(2, 1, 1, 1)),
            F(1, 4)) for n in (7, 9, 13, 17)]
    out += [(f"Z{n}", lambda n=n: systems.build_lattice(n, step=1), F(1, 2 * n))
            for n in (36, 96)]
    out += [("cycles43", explicit(cycles_perm((3, 4, 5, 7, 11, 13)), 43), F(7, 5)),
            ("random40", explicit(shuffled, 40), F(7, 5)),
            ("coprime400", explicit(cycles_perm((199, 201)), 400), F(7, 5))]
    return out


def counters(kernel):
    lengths = [len(cyc) for cyc in kernel.cycles]
    return {"n": len(kernel.pts), "cycles": len(lengths), "order": lcm(*lengths)}


def scanned(kernel, c):
    """The orbits of f^p that meet within(c, closed=True)[C[0]], summed
    over the cycles C of length p."""
    near = kernel.within(c, closed=True)
    return sum(len({kernel.classes(len(cyc))[a][0] for a in range(len(kernel.pts))
                    if near[cyc[0]] >> a & 1}) for cyc in kernel.cycles)


def diameter(kernel):
    """The carrier's largest distance."""
    return F(max(map(max, kernel.rows)), kernel.denominator)


def layers(systems):
    """(layer, prepare, build): prepare(system, c, make) warms what the
    layer reads and returns the build's third argument; build(system, c,
    arg) is the timed call."""
    def warm_rows(system, c, make=None):
        warmed(system)

    def warm_twin(system, c, make):
        warm_rows(system, c)
        pts = system.kernel.pts
        return dict(zip(pts, Random(len(pts)).sample(pts, len(pts))))

    def warm_copy(system, c, make):
        other = make()
        warm_rows(system, c), warm_rows(other, c)
        return other

    return (("within", warm_rows, lambda s, c, _: s.kernel.within(c)),
            ("inseparable", warm_rows, lambda s, c, _: s.kernel.inseparable(c)),
            ("twin", warm_twin,
             lambda s, c, h: systems.conjugate_system(s, h, transport_metric=True)),
            ("carrier", warm_copy, lambda s, c, other: systems.check_carrier(s, other)))


def warmed(system):
    """system, with its integer rows and cycles built."""
    k = system.kernel
    k.scaled(k.denominator), k.cycles
    return system


def best_of(repeats, make, call):
    """(least wall time of call(made), its last result, the last made) over
    repeats values made = make(). Each timed call begins after a full
    garbage collection: whether a collection falls inside it must not
    depend on the garbage the earlier calls left behind."""
    best = None
    for _ in range(repeats):
        made = make()
        gc.collect()
        t0 = time.perf_counter()
        result = call(made)
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    return best, result, made


def record(label, layer, case, size, c, repeats, wall, counters):
    return {"tree": label, "layer": layer, "case": case, "size": size, "c": c,
            "repeats": repeats, "wall_s": round(wall, 7), "counters": counters}


def measure(label, repeats, layer, case, make, c):
    """The records of one kernel layer on one rung: at the rung's c, and
    for inseparable also at the carrier's diameter."""
    from pointdyn import systems
    prepare, build = {name: (p, b) for name, p, b in layers(systems)}[layer]
    records = []
    for r in (c, diameter(make().kernel)) if layer == "inseparable" else (c,):
        def setup():
            system = make()
            return system, prepare(system, r, make)

        best, _, (system, _) = best_of(repeats, setup, lambda made: build(made[0], r, made[1]))
        k = system.kernel
        extra = {"scanned": scanned(k, r)} if layer == "inseparable" else {}
        records.append(record(label, layer, case, len(k.pts), str(r), repeats, best,
                              {**counters(k), **extra}))
    return records


def walk_work(shadowing, system, eps, delta):
    """The states kept and the distinct images f(A) computed by one walk of
    the exact decider from the system's first point."""
    k = system.kernel
    kept, images, journal = [set() for _ in k.perm], {}, []
    shadowing._reachable_states(k, 0, eps, delta, kept, images, journal)
    return {"states": len(journal), "images": len(images)}


def measure_decider(label, repeats, case, make):
    """The decider layer: shadowable_exact at the rung's first point."""
    from pointdyn import shadowing
    records = []
    for eps, delta in DECIDER_SCALES:
        best, result, system = best_of(
            repeats, lambda: warmed(make()),
            lambda s: shadowing.shadowable_exact(s, s.kernel.pts[0], eps, delta))
        k = system.kernel
        records.append(record(label, "decider", case, len(k.pts), f"{eps} {delta}",
                              repeats, best, {"result": result, "order": counters(k)["order"],
                                              **walk_work(shadowing, make(), eps, delta)}))
    return records


def measure_tracing(label, repeats, case, make, c):
    """The tracing layer: trace_cycle of the first point's orbit, and of
    that orbit less its last point."""
    k = make().kernel
    orbit = k.orbit(0)
    records = []
    for window in (orbit, orbit[:-1]) if len(orbit) > 1 else (orbit,):
        P = len(window)

        def setup():
            system = warmed(make())
            system.kernel.within(c)
            return system

        best, (found, _, _), system = best_of(
            repeats, setup, lambda s: s.kernel.trace_cycle(list(window), c))
        records.append(record(label, "tracing", case, len(system.kernel.pts), str(c),
                              repeats, best, {"P": P, "tracers": len(found)}))
    return records


def measure_sweep(label, repeats, case, make):
    """The sweep layer: shadowable_exact_points at every point of the rung."""
    from pointdyn import shadowing
    eps, delta = SWEEP_SCALES
    best, result, _ = best_of(repeats, lambda: warmed(make()),
                              lambda s: shadowing.shadowable_exact_points(
                                  s, s.kernel.pts, eps, delta))
    return [record(label, "sweep", case, len(result), f"{eps} {delta}", repeats, best,
                   {"points": len(result), "true": sum(result.values())})]


def seeded_twin(systems, X):
    """X relabeled by a bijection seeded by its size, the metric carried over."""
    pts = X.points()
    h = dict(zip(pts, Random(len(pts)).sample(pts, len(pts))))
    return systems.conjugate_system(X, h, transport_metric=True)


def traced_peak_kib(call):
    """The tracemalloc peak of call(), in KiB."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(peak / 1024, 1)


def gh_cases(systems, metric):
    """(layer case, make, outcome): make returns a fresh pair (X, Y);
    outcome(X, Y) runs the timed call and returns its counters."""
    from pointdyn import bundled, stability

    def exact(X, Y):
        return {"found": stability.find_exact_isomorphism(X, Y) is not None}

    def bounds(budget=None):
        def outcome(X, Y):
            b = stability.gh_distance_bounds(X, Y, budget)
            return {"found": b.witness is not None, "complete": b.complete,
                    "lower": str(b.lower), "upper": str(b.upper)}
        return outcome

    def twin(make):
        def pair():
            X = make()
            return X, seeded_twin(systems, X)
        return pair

    out = []
    for case, make, _ in rungs(systems, metric):
        if case.startswith("cat"):
            n = int(case[3:])
            other = (lambda n=n: systems.build_lattice(n, kind="torus", matrix=(5, 3, 3, 2)))
        elif case in ("Z36", "Z96"):
            other = (lambda n=int(case[1:]): systems.build_lattice(n, step=5))
        else:
            continue
        out += [(f"exact {case} twin", twin(make), exact, False),
                (f"exact {case} other-step", lambda make=make, other=other: (make(), other()),
                 exact, False)]
    for n, a, b in GH_PAIRS:
        out.append((f"bounds z{n}k{a}-z{n}k{b}",
                    lambda n=n, a=a, b=b: (systems.build_lattice(n, step=a),
                                           systems.build_lattice(n, step=b)), bounds(), False))
    out.append(("bounds nearpair4-cat5",
                lambda: (bundled.bundled_system("nearpair4"), bundled.bundled_system("cat5")),
                bounds(), False))
    out.append(("bounds cat5-z25k7",
                lambda: (bundled.bundled_system("cat5"), systems.build_lattice(25, step=7)),
                bounds(GH_BUDGET), True))
    for case, step in (("self", 1), ("other-step", 3)):
        out.append((f"exact Z1100 {case}",
                    lambda step=step: (systems.build_lattice(1100, step=1),
                                       systems.build_lattice(1100, step=step)), exact, True))
    return out


def measure_gh(label, repeats, case, make, outcome, peak):
    """The gh layer: one Gromov-Hausdorff search on a fresh pair, and when
    peak is set the tracemalloc peak of one more call."""
    def setup():
        return tuple(map(warmed, make()))

    best, result, (X, _) = best_of(repeats, setup, lambda pair: outcome(*pair))
    if peak:
        again = setup()
        result["peak_kib"] = traced_peak_kib(lambda: outcome(*again))
    return [record(label, "gh", case, len(X.kernel.pts), None, repeats, best, result)]


def windowed_cases(systems, metric):
    """(case, make, eps, delta, N, budget): make builds a fresh system whose
    first point is x; a budget of None is the default window budget."""
    from pointdyn import bundled
    cycles43 = {case: make for case, make, _ in rungs(systems, metric)}["cycles43"]
    out = [(f"Z6 N={N}", lambda: systems.build_lattice(6, step=1), F(2, 3), F(103, 300), N,
            WINDOWED_BUDGET) for N in (3, 4, 5)]
    out += [("cycles43 N=2", cycles43, F(7, 5), F(5, 4), 2, WINDOWED_BUDGET)]
    return out + [(f"cat5 refused N={N}", lambda: bundled.bundled_system("cat5"),
                   F(1, 2), F(1, 2), N, None) for N in (1000, 4000)]


def measure_windowed(label, repeats, case, make, eps, delta, N, budget):
    """The windowed layer: shadowable_windowed at the first point, or its
    refusal with the tracemalloc peak of one more call."""
    from pointdyn import shadowing
    from pointdyn.errors import ResourceBudgetError

    def call(s):
        try:
            return shadowing.shadowable_windowed(s, s.kernel.pts[0], eps, delta, N,
                                                 budget=budget)
        except ResourceBudgetError as err:
            return err

    best, rep, system = best_of(repeats, lambda: warmed(make()), call)
    if isinstance(rep, ResourceBudgetError):
        again = warmed(make())
        counters = {"refused": True, "requested_bits": rep.requested.bit_length(),
                    "peak_kib": traced_peak_kib(lambda: call(again))}
    else:
        counters = {"result": rep.result, "windows_checked": rep.windows_checked,
                    "worst": rep.worst_tracer_count}
    return [record(label, "windowed", case, len(system.kernel.pts), f"{eps} {delta}",
                   repeats, best, counters)]


def perturbation_cases(systems):
    """(case, make, delta, budget, read): make builds a fresh system; a
    budget of None is the default enumeration budget; read is what the
    timed call reads of the family: "len", "perms" (len and perms) or
    "count" (len of a family too large to list)."""
    def lattice(n):
        return lambda: systems.build_lattice(n, step=1)

    def twin(n):
        return lambda: seeded_twin(systems, lattice(n)())

    out = []
    for n in PERTURBATION_SIZES:
        out += [(f"Z{n}", lattice(n), F(1, n), None, "len"),
                (f"Z{n} twin", twin(n), F(1, n), None, "len")]
        if n in LISTED_TWINS:
            out.append((f"Z{n} twin perms", twin(n), F(1, n), None, "perms"))
    return out + [("Z48 refused", lattice(48), F(1, 48), 10 ** 5, "len"),
                  ("Z48 counted", lattice(48), F(1, 48), 10 ** 11, "count")]


def measure_perturbations(label, repeats, case, make, delta, budget, read):
    """The perturbations layer: enumerate_perturbations on a fresh system
    with within(delta, closed=True) built, reading what read names, and
    under an explicit budget the tracemalloc peak of one more call. A
    "count" case gives no record on a tree whose family lists every map
    when it is enumerated."""
    from pointdyn import stability
    from pointdyn.errors import ResourceBudgetError

    if read == "count" and not hasattr(stability.PerturbationFamily, "perms"):
        return []

    def setup():
        system = warmed(make())
        system.kernel.within(delta, closed=True)
        return system

    def call(s):
        try:
            fam = stability.enumerate_perturbations(s, delta, budget)
        except ResourceBudgetError as err:
            return err
        if read == "perms":
            fam.perms
        return fam

    best, fam, system = best_of(repeats, setup, call)
    if isinstance(fam, ResourceBudgetError):
        counters = {"refused": True}
    elif read == "count":
        counters = {"maps": len(fam)}
    else:
        counters = {"maps": len(fam), "nodes": fam.nodes}
    if budget is not None:
        again = setup()
        counters["peak_kib"] = traced_peak_kib(lambda: call(again))
    return [record(label, "perturbations", case, len(system.kernel.pts), str(delta),
                   repeats, best, counters)]


def stable_point_cases(systems):
    """(case, make, delta): make builds a fresh system."""
    def lattice(n):
        return lambda: systems.build_lattice(n, step=1)

    return [("Z12", lattice(12), F(1, 12)),
            ("Z12 twin", lambda: seeded_twin(systems, lattice(12)()), F(1, 12)),
            ("Z20", lattice(20), F(1, 20))]


def orbits_through(perms, x):
    """The number of distinct orbits of index x under the permutations perms."""
    seen = set()
    for p in perms:
        orbit, u = [x], p[x]
        while u != x:
            orbit.append(u)
            u = p[u]
        seen.add(tuple(orbit))
    return len(seen)


def measure_stable_point(label, repeats, case, make, delta):
    """The stable-point layer: verify_topologically_stable_point at the
    first point against the family at delta, enumerated and listed
    untimed."""
    from pointdyn import stability

    def setup():
        system = warmed(make())
        fam = stability.enumerate_perturbations(system, delta)
        fam.perms
        return system, fam

    best, _, (system, fam) = best_of(repeats, setup, lambda made: (
        stability.verify_topologically_stable_point(
            made[0], made[0].kernel.pts[0], STABLE_POINT_EPS, delta, made[1])))
    return [record(label, "stable-point", case, len(system.kernel.pts),
                   f"{STABLE_POINT_EPS} {delta}", repeats, best,
                   {"maps": len(fam), "orbits": orbits_through(fam.perms, 0)})]


def fresh_runs(paths, repeats, child, argv=(), cwd=None, **env):
    """{label: the words child printed, per run} over repeats fresh
    interpreters per tree, each importing pointdyn from paths[label] with
    argv and env, the trees taking turns."""
    labels = list(paths)
    runs = {label: [] for label in labels}
    for r in range(repeats):
        for label in labels if r % 2 == 0 else labels[::-1]:
            runs[label].append(subprocess.run(
                [sys.executable, "-c", child, *argv], cwd=cwd, check=True,
                env=dict(os.environ, PYTHONPATH=paths[label], **env),
                capture_output=True, text=True).stdout.split())
    return runs


def import_record(label, case, repeats, found, counters):
    """The import-layer record of one tree's runs: the median time the
    child printed first, with counters."""
    return record(label, "import", case, None, None, repeats,
                  statistics.median(float(run[0]) for run in found), counters)


def measure_import(trees, repeats):
    """The import layer: the median import time of pointdyn.cli over
    repeats fresh interpreters per tree, the trees taking turns."""
    runs = fresh_runs(dict(trees), repeats, IMPORT_CHILD)
    return [import_record(label, "pointdyn.cli", repeats, found,
                          {"pointdyn_modules": int(found[0][1]),
                           "dataclasses": found[0][2] == "True"})
            for label, found in runs.items()]


def measure_from_source(trees, repeats):
    """The import layer from source: per tree, the median over repeats
    fresh interpreters of import pointdyn.cli, and of that import plus
    one pdl call per VERB_ARGV, the trees taking turns. Each tree's
    pointdyn is copied to a temporary directory with no __pycache__ and
    run under PYTHONDONTWRITEBYTECODE=1, so every process compiles what
    it imports, as a fresh checkout does."""
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        copies = {}
        for i, (label, src) in enumerate(trees):
            copies[label] = os.path.join(tmp, str(i))
            shutil.copytree(os.path.join(src, "pointdyn"),
                            os.path.join(copies[label], "pointdyn"),
                            ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(tmp, STANZA), "w") as fh:
            fh.write(STANZA_TEXT)
        runs = fresh_runs(copies, repeats, IMPORT_CHILD, PYTHONDONTWRITEBYTECODE="1")
        records += [import_record(label, "pointdyn.cli from source", repeats, found,
                                  {"pointdyn_modules": int(found[0][1]),
                                   "dataclasses": found[0][2] == "True"})
                    for label, found in runs.items()]
        for argv in VERB_ARGV:
            runs = fresh_runs(copies, repeats, PDL_CHILD, argv, cwd=tmp,
                              PYTHONDONTWRITEBYTECODE="1")
            records += [import_record(label, "pdl " + " ".join(argv), repeats, found,
                                      {"pointdyn_modules": int(found[0][1]),
                                       "exit": int(found[0][2])})
                        for label, found in runs.items()]
    return records


def serve(label, repeats):
    """One tree's child process: answer each JSON request line on stdin
    with one JSON line on stdout, "units" with the ladder's (layer, case)
    units in order, and a unit with its records."""
    from pointdyn import metric, shadowing, systems
    cases = {case: (make, c) for case, make, c in rungs(systems, metric)}
    gh = {case: rest for case, *rest in gh_cases(systems, metric)}
    windowed = {case: rest for case, *rest in windowed_cases(systems, metric)}
    perturbations = {case: rest for case, *rest in perturbation_cases(systems)}
    stable_points = {case: rest for case, *rest in stable_point_cases(systems)}
    for line in sys.stdin:
        request = json.loads(line)
        if request == "units":
            kernel_layers = [layer for layer, _, _ in layers(systems)] + ["tracing", "decider"]
            answer = [[layer, case] for case in cases
                      for layer in kernel_layers + ["sweep"] * (case in SWEEP_CASES)]
            answer += [["gh", case] for case in gh]
            answer += [["windowed", case] for case in windowed]
            answer += [["perturbations", case] for case in perturbations]
            answer += [["stable-point", case] for case in stable_points]
        else:
            layer, case = request
            if layer == "stable-point":
                answer = measure_stable_point(label, repeats, case, *stable_points[case])
            elif layer == "perturbations":
                answer = measure_perturbations(label, repeats, case, *perturbations[case])
            elif layer == "gh":
                answer = measure_gh(label, repeats, case, *gh[case])
            elif layer == "windowed":
                answer = measure_windowed(label, repeats, case, *windowed[case])
            elif layer == "tracing":
                answer = measure_tracing(label, repeats, case, *cases[case])
            elif layer == "decider":
                answer = measure_decider(label, repeats, case, cases[case][0])
            elif layer == "sweep":
                answer = measure_sweep(label, repeats, case, cases[case][0])
            else:
                answer = measure(label, repeats, layer, case, *cases[case])
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC",
                    help="a library tree to import pointdyn from, and its records' label")
    ap.add_argument("--repeats", type=int, default=15, help="fresh systems per layer and rung")
    ap.add_argument("--out", help="JSON file to merge the records into (default: stdout)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    trees = []
    for tree in args.tree:
        label, eq, src = tree.partition("=")
        if not (label and eq and src):
            ap.error(f"--tree takes LABEL=SRC, got {tree!r}")
        trees.append((label, os.path.abspath(src)))
    if len({label for label, _ in trees}) < len(trees):
        ap.error("each --tree needs its own label")
    if args.child:
        sys.path.insert(0, trees[0][1])
        serve(trees[0][0], args.repeats)
        return
    children = [subprocess.Popen([sys.executable, os.path.abspath(__file__), "--child",
                                  "--tree", f"{label}={src}", "--repeats", str(args.repeats)],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                for label, src in trees]

    def ask(child, request):
        child.stdin.write(json.dumps(request) + "\n")
        child.stdin.flush()
        return json.loads(child.stdout.readline())

    records = measure_import(trees, args.repeats) + measure_from_source(trees, args.repeats)
    for i, unit in enumerate(ask(children[0], "units")):
        for child in children if i % 2 == 0 else children[::-1]:
            records += ask(child, unit)
    for child in children:
        child.stdin.close()
        child.wait()
    labels = [label for label, _ in trees]
    records.sort(key=lambda r: labels.index(r["tree"]))
    doc = {"statistic": STATISTIC, "python": platform.python_version(), "records": []}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["records"] = [r for r in doc["records"] if r["tree"] not in labels] + records
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
