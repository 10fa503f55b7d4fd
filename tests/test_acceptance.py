"""End-to-end acceptance checks for the workbench guarantees.

Each test covers one advertised guarantee, prints a single PASS line
with its runtime, and enforces a wall-clock budget.  Expected values
are either computed by an independent route inside the test or frozen
from hand calculations on the bundled systems.
"""

import itertools
import random
import time
from fractions import Fraction as F

from pointdyn.bundled import (bundled_measure, bundled_names, bundled_system,
                              mixed_sample, sampled_space, satellite_y_probes,
                              shift_probes)
from pointdyn.expansivity import (classify_points, minimally_expansive_at,
                                  uniformly_expansive_at)
from pointdyn.measures import (WeightedMeasure, build_tracking_map,
                               expansive_measure_check, mu_expansive_points,
                               mu_shadowable_at, tracking_commutes,
                               tracking_within_ball,
                               verify_strong_mu_topological_stability)
from pointdyn.metric import FiniteMetricSpace, validate_metric
from pointdyn.rationals import dyadic_below
from pointdyn.shadowing import (count_pseudo_orbits, shadowable_exact,
                                shadowable_windowed)
from pointdyn.shiftspace import parse_ep, shift_metric
from pointdyn.stability import (build_conjugacy, c0_distance,
                                enumerate_perturbations, gh_distance_bounds,
                                verify_topologically_stable_point)
from pointdyn.systems import build_explicit, conjugate_system, materialize

from oracles import is_self_isometry, pullback


def _finish(num, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, \
        f"criterion {num} took {elapsed:.2f}s, budget {budget:g}s"
    print(f"ACCEPTANCE {num}: PASS - {label} ({elapsed:.2f}s < {budget:g}s)")


# -- 1: metric validation over every bundled carrier -------------------------

def test_criterion_1_metric_axioms_on_bundled_samples():
    t0 = time.perf_counter()
    names = bundled_names()
    assert len(names) == 9
    for name in names:
        system = bundled_system(name)
        sample = mixed_sample(system)
        space = sampled_space(system, sample)
        assert validate_metric(space) == [], name
        if system.backend == "satellite":
            assert len(sample) >= 40
            assert len(system.satellite_points()) == 18
    _finish(1, "metric axioms hold on all bundled carriers", t0, 5)


# -- 2: the rotation dichotomy ------------------------------------------------

def test_criterion_2_rotation_classification_dichotomy():
    t0 = time.perf_counter()
    r12k3 = bundled_system("r12k3")
    minimal = classify_points(r12k3, "minimal", F(1, 6))
    uniform = classify_points(r12k3, "uniform", F(1, 6))
    assert list(minimal) == list(range(12))
    assert list(uniform) == []
    _finish(2, "rotation minimal=all / uniform=none at c=1/6", t0, 1)


# -- 3: exact decider vs windowed enumeration ---------------------------------

# Distances drawn from [1, 2] keep the triangle inequality automatic;
# deltas below 11/8 keep the pseudo-orbit graphs sparse enough that the
# windowed verdict stabilizes within enumerable depth.
_C3_DISTANCES = (F(1), F(5, 4), F(4, 3), F(3, 2), F(7, 4), F(2))
_C3_EPS = (F(1, 4), F(1, 2), F(1), F(9, 8), F(11, 8))
_C3_DELTA = (F(1, 2), F(9, 8), F(21, 16), F(11, 8))


def _random_case(rng, tag):
    n = rng.randint(2, 8)
    table = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = rng.choice(_C3_DISTANCES)
    perm = list(range(n))
    rng.shuffle(perm)
    system = build_explicit(FiniteMetricSpace(table), tuple(perm), name=tag)
    return system, rng.randrange(n), rng.choice(_C3_EPS), rng.choice(_C3_DELTA)


def test_criterion_3_exact_decider_matches_windowed_enumeration():
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    disagreements = []
    false_cases = 0
    for case in range(220):
        system, x, eps, delta = _random_case(rng, f"case{case}")
        exact = shadowable_exact(system, x, eps, delta)
        # Deepen the window until the verdict flips to False (it can
        # never flip back: any tracer of a window traces every smaller
        # window) or enumeration becomes infeasible while still True.
        verdict, flipped = None, False
        for N in range(1, 9):
            if count_pseudo_orbits(system, x, delta, N) > 60000:
                break
            verdict = shadowable_windowed(system, x, eps, delta, N,
                                          budget=70000).result
            if verdict is False:
                flipped = True
                break
        stabilized = False if flipped else (verdict is not False)
        false_cases += flipped
        if exact is not stabilized:
            disagreements.append((case, system.name, x, eps, delta,
                                  exact, stabilized))
    assert disagreements == []
    assert false_cases > 50          # the sweep exercises both verdicts
    _finish(3, "exact shadowing decider agrees with windowed enumeration "
               "on 220 seeded cases", t0, 60)


# -- 4: expansive + shadowable points admit verified semiconjugacies ----------

# Scales chosen per system: c is an expansivity constant the system
# actually satisfies on orbit closures, delta keeps the perturbation
# family exhaustively enumerable, eta follows the min(eps, c)/16 rule.
_C4_SCALES = (
    ("id3",       F(1, 2), F(1, 2),  F(1, 2)),
    ("nearpair4", F(1, 2), F(1, 2),  F(1, 2)),
    ("r6k2",      F(1, 4), F(1, 6),  F(1, 12)),
    ("r12k1",     F(1, 4), F(1, 24), F(1, 24)),
    ("r12k3",     F(1, 4), F(1, 6),  F(1, 24)),
    ("r12k5",     F(1, 4), F(1, 24), F(1, 24)),
    ("cat5",      F(1, 4), F(1, 10), F(1, 10)),
)


def test_criterion_4_conjugacy_pipeline_over_all_gated_points():
    t0 = time.perf_counter()
    runs = 0
    non_identity = 0
    for name, eps, c, delta in _C4_SCALES:
        flat, _pts = materialize(bundled_system(name))
        eta = min(eps, c) / 16
        family = enumerate_perturbations(flat, delta)
        for x in range(flat.space.n):
            # Gates: the hypotheses under which a semiconjugacy is owed.
            assert minimally_expansive_at(flat, x, c), (name, x)
            assert shadowable_exact(flat, x, eta, delta), (name, x)
            for g in family.systems:
                outcome = build_conjugacy(flat, g, x, eps, delta,
                                          expansivity_c=c)
                assert outcome.success, (name, x, g.perm, outcome)
                h = outcome.mapping
                assert h, (name, x, g.perm)
                # Independent re-verification, straight off the tables:
                # exact commutation and displacement within eps.
                for u, hu in h.items():
                    assert flat.perm[hu] == h[g.perm[u]], (name, x, u)
                    assert flat.space.dist(u, hu) <= eps, (name, x, u)
                runs += 1
                non_identity += (g.perm != flat.perm)
    assert runs == 78
    assert non_identity == 4         # the near-pair swap is exercised
    _finish(4, "verified semiconjugacy for every gated point against "
               "every admissible perturbation", t0, 120)


# -- 5: the discrete identity is topologically stable pointwise ---------------

def test_criterion_5_discrete_identity_stable_at_every_point():
    t0 = time.perf_counter()
    id3 = bundled_system("id3")
    family = enumerate_perturbations(id3, F(1, 2))
    assert len(family) == 1
    assert family.systems[0].perm == (0, 1, 2)
    for x in id3.points():
        report = verify_topologically_stable_point(
            id3, x, F(1, 2), F(1, 2), family)
        assert report.result, x
        assert [e.status for e in report.entries] == ["ok"]
    _finish(5, "identity on 3 points: sole admissible perturbation is "
               "itself, every point verified stable", t0, 1)


# -- 6: classified sets commute with isometric relabeling ---------------------

_C6_CONFIG = {
    "id3":       ((F(1, 2), F(1, 2), F(1, 2)),
                  {0: F(0), 1: F(1, 2), 2: F(1, 2)}),
    "nearpair4": ((F(1, 2), F(1, 2), F(1, 2)),
                  {0: F(1, 4), 1: F(1, 4), 2: F(1, 2), 3: F(0)}),
    "r6k2":      ((F(1, 6), F(1, 4), F(1, 12)), {i: F(1, 6) for i in range(6)}),
    "r12k1":     ((F(1, 6), F(1, 4), F(1, 24)), {i: F(1, 12) for i in range(12)}),
    "r12k3":     ((F(1, 6), F(1, 4), F(1, 24)), {i: F(1, 12) for i in range(12)}),
    "r12k5":     ((F(1, 6), F(1, 4), F(1, 24)), {i: F(1, 12) for i in range(12)}),
    "cat5":      ((F(1, 5), F(1, 4), F(1, 10)),
                  {(u, v): F(1, 25) for u in range(5) for v in range(5)}),
}


def _self_isometries(name, pts):
    if name == "id3":
        return [dict(zip(pts, image)) for image in itertools.permutations(pts)]
    if name == "nearpair4":
        return [{0: 1 if a else 0, 1: 0 if a else 1,
                 2: 3 if b else 2, 3: 2 if b else 3}
                for a in (0, 1) for b in (0, 1)]
    if name.startswith("r"):
        n = len(pts)
        maps = []
        for a in range(n):
            maps.append({i: (a + i) % n for i in range(n)})
            maps.append({i: (a - i) % n for i in range(n)})
        return maps
    if name == "cat5":
        return [{(u, v): ((u + a) % 5, (v + b) % 5)
                 for u in range(5) for v in range(5)}
                for a in range(5) for b in range(5)]
    raise AssertionError(name)


def test_criterion_6_classified_sets_transport_under_relabeling():
    t0 = time.perf_counter()
    rng = random.Random(97)
    names = sorted(_C6_CONFIG)
    for _draw in range(50):
        name = rng.choice(names)
        f = bundled_system(name)
        pts = f.points()
        index = {p: i for i, p in enumerate(pts)}
        h = rng.choice(_self_isometries(name, pts))
        assert is_self_isometry(f, h), (name, h)
        twin = conjugate_system(f, h, name=f"{name}-relabel")
        tpts = twin.points()

        def move(p):
            # The twin's carrier is indices in original point order.
            return index[h[p]]

        (c, eps, delta), weights = _C6_CONFIG[name]
        mu = WeightedMeasure.from_weights(weights)
        nu = pullback(move, mu)
        B = tuple(p for p in pts if weights[p] > 0)
        B_t = tuple(move(b) for b in B)

        U = {x for x in pts if uniformly_expansive_at(f, x, c)}
        M = {x for x in pts if minimally_expansive_at(f, x, c)}
        Sh = {x for x in pts if shadowable_exact(f, x, eps, delta)}
        muU = set(mu_expansive_points(f, mu, c))
        muSh = {x for x in pts
                if mu_shadowable_at(f, mu, x, eps, delta, B).result}

        assert {move(x) for x in U} == \
            {x for x in tpts if uniformly_expansive_at(twin, x, c)}
        assert {move(x) for x in M} == \
            {x for x in tpts if minimally_expansive_at(twin, x, c)}
        assert {move(x) for x in Sh} == \
            {x for x in tpts if shadowable_exact(twin, x, eps, delta)}
        assert {move(x) for x in muU} == set(mu_expansive_points(twin, nu, c))
        assert {move(x) for x in muSh} == \
            {x for x in tpts
             if mu_shadowable_at(twin, nu, x, eps, delta, B_t).result}
    _finish(6, "U/M/Sh and measure variants commute with 50 seeded "
               "isometric relabelings", t0, 30)


# -- 7: distance bounds between systems ---------------------------------------

def test_criterion_7_gh_style_distance_bounds():
    t0 = time.perf_counter()
    for name in ("id3", "nearpair4", "r6k2", "r12k3"):
        system = bundled_system(name)
        assert gh_distance_bounds(system, system) == (F(0), F(0)), name

    r12k3 = bundled_system("r12k3")
    reflected = conjugate_system(r12k3, {i: (12 - i) % 12 for i in range(12)},
                                 name="r12k3-mirror")
    assert gh_distance_bounds(r12k3, reflected) == (F(0), F(0))

    rot1, rot5 = bundled_system("r12k1"), bundled_system("r12k5")
    # Certificate: the identity carrier map has zero distortion and
    # density defect, so its score is the map displacement alone.
    assert c0_distance(rot1, rot5) == F(1, 3)
    bounds = gh_distance_bounds(rot1, rot5, budget=40000)
    assert F(0) < bounds.lower <= bounds.upper
    assert bounds.upper <= F(1, 3) + F(1, 128)
    _finish(7, "distance bounds: zero on isometric twins, rotation pair "
               "bounded via the identity certificate", t0, 30)


# -- 8: measure-weighted expansivity, tracking maps, strong stability ---------

def test_criterion_8_measure_variants_on_shift_and_discrete():
    t0 = time.perf_counter()
    shift2 = bundled_system("shift2")
    bern = bundled_measure("bernoulli_half")
    report = expansive_measure_check(shift2, bern, F(1, 2),
                                     probe=shift_probes())
    assert report.result

    tm = build_tracking_map(shift2, shift2, parse_ep("01~~01@0"), F(1, 4))
    ok_ball, witness_ball = tracking_within_ball(tm, shift2)
    ok_comm, witness_comm = tracking_commutes(tm, shift2, shift2)
    assert ok_ball and witness_ball is None
    assert ok_comm and witness_comm is None

    id3 = bundled_system("id3")
    passing = verify_strong_mu_topological_stability(
        id3, bundled_measure("nullpoint3"), 0, F(1, 2), F(1, 2), id3)
    assert passing.result
    assert all(clause.result for clause in passing.clauses)

    failing = verify_strong_mu_topological_stability(
        id3, bundled_measure("uniform3"), 0, F(1, 2), F(1, 2), id3)
    assert not failing.result
    assert not failing.clause("i").result
    assert all(clause.result for clause in failing.clauses
               if clause is not failing.clause("i"))
    _finish(8, "Bernoulli shift measure-expansive, tracking map verified, "
               "strong stability separates null from uniform weights", t0, 10)


# -- 9: satellite points are isolated and minimally expansive -----------------

def test_criterion_9_satellite_isolation_and_expansivity():
    t0 = time.perf_counter()
    sat = bundled_system("satellite3")
    satellites = sat.satellite_points()
    marked = [sat.marked(j) for j in range(sat.t)]
    probes = list(satellite_y_probes())
    sample = satellites + probes + marked
    assert len(satellites) == 18

    for q in satellites:
        nearest = min(sat.dist(q, other) for other in sample if other != q)
        assert nearest >= F(1, q.k), q
        assert minimally_expansive_at(sat, q, dyadic_below(F(1, q.k))), q

    nonvacuous = 0
    for y in probes:
        gap = min(shift_metric(m, y) for m in marked)
        bound = min(F(1, 2), gap)
        if bound <= 0:
            continue                 # on the marked orbit itself
        assert minimally_expansive_at(sat, y, dyadic_below(bound)), y
        nonvacuous += 1
    assert nonvacuous >= 10
    _finish(9, "all 18 satellites isolated at 1/k and minimally expansive "
               "below it; core probes expansive below their gap", t0, 10)
