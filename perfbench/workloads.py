"""Workload definitions: seeded inputs, jobs and their canonical outputs.

A workload is a list of jobs. Each job answers one user-level question
(for example "classify every point of cat9 at c=1/4"). Its ``run``
callable builds every system it uses from the job's input description,
so no job reuses a system object, or a cache on one, warmed by an
earlier job. ``canon`` reduces the raw result to a string that is
compared with the golden value recorded at the seed commit and, where
the workload computes two routes, with the other route.

The seed only relabels carriers, draws the random explicit systems and
picks rotation steps or catalogue entries with the same orbit
structure; the library sees only the generated inputs. Golden keys
therefore name the catalogue entry, not the seed, except for the
random explicit systems, whose keys carry a digest of the drawn system.
"""

import hashlib
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import gcd
from typing import Callable

from pointdyn import (bundled, expansivity, measures, metric, shadowing,
                      stability, systems)

CAT = (2, 1, 1, 1)


@dataclass
class Job:
    key: str                          # golden-file key
    kind: str                         # job family, used in summaries
    run: Callable[[], object]         # builds the systems, calls the library
    canon: Callable[[object], str]    # raw result -> canonical string


@dataclass
class Workload:
    name: str
    jobs: list
    # (key_a, key_b) whose canonical strings must be equal: two routes
    agree: list = field(default_factory=list)
    # untimed second-route check after the run: first-round outputs
    # (key -> canonical string) -> (failed keys, verdicts it confirmed)
    cross_check: Callable = None
    # cli-desk: (argv, allowed exit codes or None for a golden check)
    cli: list = None


def _rng(workload, seed, part):
    return random.Random(f"{workload}:{seed}:{part}")


def _units(n):
    return [k for k in range(1, n) if gcd(k, n) == 1]


def _labels(points):
    return ",".join(systems.point_label(p)
                    for p in systems.sorted_points(points))


def _relabel(system_factory, rng):
    """Seeded carrier bijection of a finite system (metric transported)."""
    pts = system_factory().points()
    image = list(pts)
    rng.shuffle(image)
    return dict(zip(pts, image))


def _relabeled(system_factory, h, name):
    return systems.conjugate_system(system_factory(), h, name=name,
                                    transport_metric=True)


def _back(system_factory, h):
    """Twin index -> original point: the twin's index i is pts[i] = h(p)."""
    pts = system_factory().points()
    inv = {v: k for k, v in h.items()}
    return [inv[p] for p in pts]


# -- classify-lattice ---------------------------------------------------------


def classify_lattice(seed):
    rng = _rng("classify-lattice", seed, "step")
    z36_step = rng.choice(_units(36))
    cases = (
        ("cat7", lambda: systems.build_lattice(7, kind="torus", matrix=CAT),
         F(1, 4)),
        ("cat9", lambda: systems.build_lattice(9, kind="torus", matrix=CAT),
         F(1, 4)),
        ("z36", lambda: systems.build_lattice(36, step=z36_step), F(1, 72)),
    )
    jobs, agree = [], []
    for name, factory, c in cases:
        h = _relabel(factory, _rng("classify-lattice", seed, name))
        back = _back(factory, h)
        for variant in ("expansive", "uniform", "minimal"):
            key = f"{name}/{variant}/c={c}"
            jobs.append(Job(
                f"{key}/lattice", f"classify-{variant}",
                lambda f=factory, v=variant, c=c:
                    expansivity.classify_points(f(), v, c),
                _labels))
            jobs.append(Job(
                f"{key}/relabel", f"classify-{variant}",
                lambda f=factory, h=h, v=variant, c=c, n=name:
                    expansivity.classify_points(
                        _relabeled(f, h, f"{n}-relabel"), v, c),
                lambda pts, back=back: _labels(back[i] for i in pts)))
            agree.append((f"{key}/lattice", f"{key}/relabel"))
    return Workload("classify-lattice", jobs, agree)


# -- shadow-decide -------------------------------------------------------------

# The acceptance-criterion-3 generator: distances in [1, 2] keep the
# triangle inequality automatic.
C3_DISTANCES = (F(1), F(5, 4), F(4, 3), F(3, 2), F(7, 4), F(2))
C3_EPS = (F(1, 4), F(1, 2), F(1), F(9, 8), F(11, 8))
C3_DELTA = (F(1, 2), F(9, 8), F(21, 16), F(11, 8))
RANDOM_SIZES = tuple(range(6, 13))
# The grid leaves out the largest scales (eps 11/8, delta 21/16 and
# 11/8): there the decider's state count is heavy-tailed in the random
# draw (single systems take up to seconds), which would tie the
# workload's figures to the seed. Decider-state-heavy inputs are covered,
# deterministically, by the rotations of part (b).
RANDOM_EPS = C3_EPS[:4]
RANDOM_DELTAS = C3_DELTA[:2]
CROSS_CHECK_MAX_N = 8                   # windowed deepening on small cases
WINDOW_CHECK_CAP = 4000                 # windows per cross-check point


def random_explicit_spec(rng, n, eps, delta):
    table = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = rng.choice(C3_DISTANCES)
    perm = list(range(n))
    rng.shuffle(perm)
    return table, tuple(perm), eps, delta


def _spec_digest(spec):
    table, perm, eps, delta = spec
    text = repr(([[str(d) for d in row] for row in table], perm,
                 str(eps), str(delta)))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _exact_all_points(spec):
    table, perm, eps, delta = spec
    f = systems.build_explicit(metric.FiniteMetricSpace(table), perm)
    return [shadowing.shadowable_exact(f, x, eps, delta)
            for x in range(len(perm))]


def _bits(verdicts):
    return "".join("1" if v else "0" for v in verdicts)


def _window_contradictions(spec, verdicts):
    """Windowed deepening against the exact verdicts, as criterion 3 does.

    A window with no tracer refutes shadowability outright, so a False
    windowed verdict against a True exact one is a definite
    disagreement. An exact False whose windows all trace up to the cap
    stays unverified here (the depth that refutes it is not reached).
    """
    table, perm, eps, delta = spec
    f = systems.build_explicit(metric.FiniteMetricSpace(table), perm)
    bad, refuted = [], 0
    for x, exact in enumerate(verdicts):
        windowed = True
        for N in range(1, 9):
            if shadowing.count_pseudo_orbits(f, x, delta, N) > WINDOW_CHECK_CAP:
                break
            if not shadowing.shadowable_windowed(f, x, eps, delta, N,
                                                 budget=WINDOW_CHECK_CAP).result:
                windowed = False
                break
        if exact and not windowed:
            bad.append(x)
        refuted += (not exact) and (not windowed)
    return bad, refuted


def shadow_decide(seed):
    jobs = []
    # (a) one random system per (size, eps, delta) of the criterion-3
    # grid, so that every seed draws the same mix of sizes and scales
    # and only the metric tables and maps differ.
    rng = _rng("shadow-decide", seed, "random")
    grid = [(n, eps, delta) for n in RANDOM_SIZES for eps in RANDOM_EPS
            for delta in RANDOM_DELTAS]
    rng.shuffle(grid)
    specs = {}
    for n, eps, delta in grid:
        spec = random_explicit_spec(rng, n, eps, delta)
        key = f"random/n={n}/{_spec_digest(spec)}"
        specs[key] = spec
        jobs.append(Job(key, "exact-random",
                        lambda s=spec: _exact_all_points(s), _bits))

    # (b) decider-state heavy rotations, and (c) windowed enumeration with
    # 625 and 15 625 windows. Each runs on the lattice and on a relabeled
    # twin, which must give the same verdict. The verdicts do not depend
    # on the step: tracing a rotation sees only the jump sequence.
    agree = []
    for n, form in ((24, "exact"), (36, "exact"), (6, "windowed")):
        r = _rng("shadow-decide", seed, f"z{n}")
        step = r.choice(_units(n))
        factory = (lambda n=n, step=step: systems.build_lattice(n, step=step))
        h = _relabel(factory, r)
        x0 = factory().points().index(h[0])
        if form == "exact":
            key = f"exact/z{n}/x=0/eps=1/4/delta=3/{n}"
            for twin, x in ((False, 0), (True, x0)):
                jobs.append(Job(
                    f"{key}/{'relabel' if twin else 'lattice'}",
                    "exact-rotation",
                    lambda f=factory, h=h, x=x, n=n, twin=twin:
                        shadowing.shadowable_exact(
                            _relabeled(f, h, f"z{n}-relabel") if twin else f(),
                            x, F(1, 4), F(3, n)),
                    str))
            agree.append((f"{key}/lattice", f"{key}/relabel"))
            continue
        for N in (2, 3):
            key = f"windowed/z6/x=0/eps=2/3/delta=103/300/N={N}"
            for twin, x in ((False, 0), (True, x0)):
                jobs.append(Job(
                    f"{key}/{'relabel' if twin else 'lattice'}", "windowed",
                    lambda f=factory, h=h, x=x, N=N, twin=twin:
                        shadowing.shadowable_windowed(
                            _relabeled(f, h, "z6-relabel") if twin else f(),
                            x, F(2, 3), F(1, 3) + F(1, 100), N),
                    lambda rep: f"{rep.result} windows={rep.windows_checked} "
                                f"worst={rep.worst_tracer_count}"))
            agree.append((f"{key}/lattice", f"{key}/relabel"))

    def cross_check(outputs):
        failed, refuted = [], 0
        for key, spec in specs.items():
            if key not in outputs or len(spec[1]) > CROSS_CHECK_MAX_N:
                continue
            verdicts = [ch == "1" for ch in outputs[key]]
            bad, ref = _window_contradictions(spec, verdicts)
            refuted += ref
            if bad:
                failed.append(key)
        return failed, refuted

    return Workload("shadow-decide", jobs, agree, cross_check)


# -- stability-pipeline ------------------------------------------------------

# Rotation pairs on one carrier with different unit steps; the seed picks
# four. Bounds depend on the search order, so these are not relabeled.
GH_PAIRS = tuple((n, a, b) for n in (16, 18, 20, 24)
                 for a, b in ((1, 5), (1, 7), (5, 7))
                 if gcd(a, n) == gcd(b, n) == 1)


def _stable_point(f, x, eps, delta):
    family = stability.enumerate_perturbations(f, delta)
    return stability.verify_topologically_stable_point(f, x, eps, delta,
                                                       family)


def _stable_canon(rep):
    status = [e.status for e in rep.entries]
    return (f"{rep.result} maps={len(status)} ok={status.count('ok')} "
            f"failed={status.count('failed')} "
            f"skipped={status.count('skipped')}")


def _tracking(n, x, eta):
    f = systems.build_lattice(n, kind="torus", matrix=CAT)
    g = systems.build_lattice(n, kind="torus", matrix=CAT)
    H = measures.build_tracking_map(f, g, x, eta)
    ok, _ = measures.tracking_commutes(H, f, g)
    return H, ok


def _tracking_canon(out):
    H, ok = out
    sizes = ",".join(str(len(H.images[u])) for u in H.domain)
    return f"commutes={ok} domain={len(H.domain)} images={sizes}"


def _mu_sweep(f_name, weights, eps, delta):
    f = bundled.bundled_system(f_name)
    mu = measures.WeightedMeasure.from_weights(weights)
    family = stability.enumerate_perturbations(f, delta)
    out = []
    for g in family.systems:
        for x in f.points():
            rep = measures.verify_strong_mu_topological_stability(
                f, mu, x, eps, delta, g)
            out.append("".join("1" if c.result else "0" for c in rep.clauses))
    return out


def _gh_canon(b):
    return f"lower={b.lower} upper={b.upper} complete={b.complete}"


def stability_pipeline(seed):
    jobs, agree = [], []
    z12 = (lambda: systems.build_lattice(12, step=1))
    h = _relabel(z12, _rng("stability-pipeline", seed, "z12"))
    for p in range(12):
        x = z12().points().index(h[p])
        key = f"stable-point/z12/x={p}/eps=1/4/delta=1/12"
        jobs.append(Job(
            f"{key}/lattice", "stable-point",
            lambda p=p: _stable_point(z12(), p, F(1, 4), F(1, 12)),
            _stable_canon))
        jobs.append(Job(
            f"{key}/relabel", "stable-point",
            lambda x=x: _stable_point(_relabeled(z12, h, "z12-relabel"), x,
                                      F(1, 4), F(1, 12)),
            _stable_canon))
        agree.append((f"{key}/lattice", f"{key}/relabel"))

    z20 = (lambda: systems.build_lattice(20, step=1))
    h20 = _relabel(z20, _rng("stability-pipeline", seed, "z20"))
    key = "perturbations/z20/delta=1/20"
    jobs.append(Job(f"{key}/lattice", "perturbations",
                    lambda: stability.enumerate_perturbations(z20(), F(1, 20)),
                    lambda fam: f"maps={len(fam)}"))
    jobs.append(Job(f"{key}/relabel", "perturbations",
                    lambda: stability.enumerate_perturbations(
                        _relabeled(z20, h20, "z20-relabel"), F(1, 20)),
                    lambda fam: f"maps={len(fam)}"))
    agree.append((f"{key}/lattice", f"{key}/relabel"))

    r = _rng("stability-pipeline", seed, "gh")
    for n, a, b in r.sample(GH_PAIRS, 4):
        jobs.append(Job(
            f"gh/z{n}k{a}-z{n}k{b}", "gh-rotations",
            lambda n=n, a=a, b=b: stability.gh_distance_bounds(
                systems.build_lattice(n, step=a),
                systems.build_lattice(n, step=b)),
            _gh_canon))
    jobs.append(Job(
        "gh/cat5-z25k7/budget=50000", "gh-budget",
        lambda: stability.gh_distance_bounds(
            bundled.bundled_system("cat5"),
            systems.build_lattice(25, step=7), budget=5 * 10 ** 4),
        _gh_canon))

    r = _rng("stability-pipeline", seed, "track")
    for n in (7, 9):
        x = (r.randrange(n), 1)
        jobs.append(Job(
            f"tracking/cat{n}/x={x[0]},{x[1]}/eta=1/8", "tracking",
            lambda n=n, x=x: _tracking(n, x, F(1, 8)), _tracking_canon))

    for f_name, mu_name, weights in (
            ("id3", "nullpoint3", {0: 0, 1: 1, 2: 1}),
            ("id3", "uniform3", {0: 1, 1: 1, 2: 1}),
            ("nearpair4", "np4", {0: F(1, 4), 1: F(1, 4), 2: F(1, 2), 3: 0})):
        jobs.append(Job(
            f"mu-stable/{f_name}/{mu_name}/eps=1/2/delta=1/2", "mu-stable",
            lambda f=f_name, w=weights: _mu_sweep(f, w, F(1, 2), F(1, 2)),
            lambda out: " ".join(out)))
    return Workload("stability-pipeline", jobs, agree)


# -- cli-desk ------------------------------------------------------------------

README_ARGV = (
    ["validate", "bundled:satellite3"],
    ["classify", "bundled:r12k3", "--variant", "minimal", "--c", "1/6"],
    ["shadow", "bundled:r12k3", "--x", "0", "--eps", "1/4", "--delta", "1/24",
     "--window", "3"],
    ["conjugacy", "bundled:id3", "bundled:id3", "--x", "0", "--eps", "1/2",
     "--delta", "1/2"],
    ["trackmap", "bundled:id3", "--x", "0", "--eta", "1/2"],
    ["ghdist", "bundled:r12k1", "bundled:r12k5", "--budget", "40000"],
    ["ghstable", "bundled:id3", "bundled:id3", "--x", "0", "--eps", "1/2",
     "--delta", "1/2"],
    ["mustable", "bundled:id3", "--measure", "bundled:nullpoint3", "--x", "0",
     "--eps", "1/2", "--delta", "1/2"],
    ["satellite", "bundled:satellite3"],
)

# Contract: usage errors exit 2; bad points and windows exit 1 or 2; no
# argv may end in a traceback.
ERROR_ARGV = (
    (["classify", "bundled:r12k3", "--variant", "minimal", "--c", "abc"], (2,)),
    (["classify", "bundled:r12k3", "--variant", "minimal", "--c", "1/0"], (2,)),
    (["shadow", "bundled:r12k3", "--x", "99", "--eps", "1/4", "--delta",
      "1/24"], (1, 2)),
    (["shadow", "bundled:r12k3", "--x", "0", "--eps", "1/4", "--delta",
      "1/24", "--window", "-1"], (1, 2)),
)

# Lattice stanza files: the cat map on the 5x5 torus, and for each circle
# size two rotations whose unit steps the seed picks (one orbit each, so
# every seed runs the same amount of work).
STANZA_SIZES = (10, 12, 14, 16)

WORK_DIR = os.path.join("perfbench", "out", "stanzas")


def _stanza_text(kind, n, k):
    if kind == "rot":
        return f"lattice {{\n  n = {n}\n  map = rot {k}\n  name = z{n}k{k}\n}}\n"
    return f"lattice {{\n  n = {n}\n  map = mat 2 1 1 1\n  name = cat{n}\n}}\n"


def cli_desk(seed):
    """Argv lists for sequential pdl processes; stanza files are written here."""
    r = _rng("cli-desk", seed, "stanzas")
    os.makedirs(WORK_DIR, exist_ok=True)
    argvs = [(list(a), None) for a in README_ARGV]
    stanzas = [("mat", 5, 0)] + [("rot", n, k) for n in STANZA_SIZES
                                 for k in r.sample(_units(n), 2)]
    for kind, n, k in stanzas:
        path = os.path.join(WORK_DIR, f"{kind}{n}k{k}.pdl")
        with open(path, "w") as fh:
            fh.write(_stanza_text(kind, n, k))
        x = "(0,0)" if kind == "mat" else "0"
        c = "1/5" if kind == "mat" else f"1/{n}"
        argvs.append((["validate", path], None))
        argvs.append((["classify", path, "--variant", "uniform", "--c", c],
                      None))
        argvs.append((["shadow", path, "--x", x, "--eps", "1/4", "--delta",
                       f"1/{2 * n}", "--window", "2"], None))
    argvs.extend((list(a), codes) for a, codes in ERROR_ARGV)
    return Workload("cli-desk", [], cli=argvs)


BUILDERS = {
    "classify-lattice": classify_lattice,
    "shadow-decide": shadow_decide,
    "stability-pipeline": stability_pipeline,
    "cli-desk": cli_desk,
}
WORKLOADS = tuple(BUILDERS)


def build(name, seed):
    return BUILDERS[name](seed)


def cli_key(argv):
    return "pdl " + " ".join(argv)


def cli_canon(code, stdout):
    return f"exit={code} sha256={hashlib.sha256(stdout).hexdigest()}"
