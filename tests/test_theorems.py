"""The paper's theorems as executable implications on every small
explicit system: Theorem (i)'s stability half, and Theorem (ii).

Theorem (i): a point x where f is minimally expansive with constant c and
shadowable is topologically stable. Pseudo-orbit steps are strict,
d(f(w_n), w_(n+1)) < delta, while perturbations are admitted at
c0_distance(f, g) <= delta, closed. A g-orbit with a step of exactly delta
is then no delta-pseudo-orbit, and a gate that decides shadowing at delta
says nothing about it. The closed steps need no option of their own:
views are keyed by their integer bound, so the strict decider at
delta+ = (floor(delta * D) + 1) / D, with D the kernel's denominator,
reads exactly the steps with d(f(u), v) <= delta.

Each check also counts the gated cases whose perturbations move x's
orbit, since a map that agrees with f along it is stabilized by f's own
orbit. On the palette census Theorem (i)'s closed gate admits no such
case at the verifier's tracing radius min(eps, c)/16, which lies below
every distance, so Theorem (i) runs again on two-level ultrametrics,
where it does, and on the census at wider radii: it still holds at
min(eps, c), with moved cases, and fails at min(eps, 2c), so the
proof's constant leaves room of at least 16 and less than 32 on the
census. Theorem (ii): a point
where f is mu-uniformly expansive and mu-shadowable is strong
mu-topologically stable.

The Phi-set notion of a mu-expansive measure (expansive_measure_check)
is pinned on the same census, where no nontrivial point-weight measure
makes it true, and on the 2-shift under the fair coin, where it holds
exactly below 1. An implication test of it has no power until the
symbolic layer has Markov measures.

Two lemmas of the proof run as implications on the same census:
separation_horizon's N is the least horizon past which orbit pairs that
stay within c are eps-close, and minimal expansivity moves through a
conjugacy h to h(x) at transported_constant's constant.
"""

from fractions import Fraction as F
from itertools import permutations, product
from math import floor

from pointdyn.bundled import bundled_measure, bundled_system
from pointdyn.errors import PreconditionError
from pointdyn.expansivity import minimally_expansive_at, separation_horizon
from pointdyn.measures import (WeightedMeasure, expansive_measure_check, mu_shadowable_at,
                               mu_uniformly_expansive_at, verify_strong_mu_topological_stability)
from pointdyn.metric import FiniteMetricSpace
from pointdyn.shadowing import shadowable_exact_points
from pointdyn.stability import (enumerate_perturbations, transported_constant,
                                verify_topologically_stable_point)
from pointdyn.systems import build_explicit, conjugate_system, point_index, system_ball

PALETTE = (F(1, 2), F(3, 4), F(1))
OFF_PALETTE = tuple(d + F(1, 64) for d in PALETTE)
ULTRA_SCALES = (F(1, 4), F(1, 2), F(3, 4))
ULTRA_DELTAS = (F(1, 64), F(1, 32), F(1, 2), F(1))


def small_systems():
    """Every explicit system with n <= 3 and distances in PALETTE, every
    permutation: any three values of PALETTE satisfy the triangle
    inequality."""
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for values in product(PALETTE, repeat=len(pairs)):
            table = [[F(0)] * n for _ in range(n)]
            for (i, j), d in zip(pairs, values):
                table[i][j] = table[j][i] = d
            for perm in permutations(range(n)):
                yield build_explicit(FiniteMetricSpace(table), perm)


def two_level_ultrametrics():
    """Every system with n <= 4 whose points fall into clusters, at
    distance 1/64 inside a cluster and 1 between clusters: every labeled
    partition, every permutation. A map that mixes clusters separates
    close pairs, so eta can exceed the least distance while x stays
    minimally expansive."""
    for n in (1, 2, 3, 4):
        for blocks in partitions(n):
            table = [[F(0) if i == j else F(1, 64) if blocks[i] == blocks[j] else F(1)
                      for j in range(n)] for i in range(n)]
            for perm in permutations(range(n)):
                yield build_explicit(FiniteMetricSpace(table), perm)


def partitions(n):
    """The set partitions of range(n), each as the block of every point,
    blocks numbered in order of their least points."""
    if n == 0:
        yield ()
        return
    for blocks in partitions(n - 1):
        for b in range(max(blocks, default=-1) + 2):
            yield blocks + (b,)


def closed_step(f, delta):
    """delta+: the strict bound whose steps are the closed steps of delta."""
    D = f.kernel.denominator
    return F(floor(delta * D) + 1, D)


def f_orbit(f, x) -> list:
    """The kernel indices of the f-orbit of x."""
    return f.kernel.orbit(point_index(f, x))


def moves(family, orbit) -> bool:
    """Whether some map of family differs from its base along orbit."""
    fperm = family.base.kernel.perm
    return any(p[u] != fperm[u] for p in family.perms for u in orbit)


def proof_eta(eps, c):
    """The verifier's default tracing radius, min(eps, c) / 16."""
    return min(eps, c) / 16


def theorem_checks(systems, scales, deltas, closed, schedule=proof_eta, failures=None):
    """(gated, failed, moved) over every system, x, c, eps in scales and
    delta in deltas: the gate is minimal expansivity at (x, c) and
    shadowing at eta = schedule(eps, c) with closed steps (delta+) or
    strict ones (delta); the check is stability at the same eta against
    every perturbation within delta, and moved counts gated checks with a
    perturbation that moves x's orbit. Where the closed gate admits,
    shadowing at delta must hold too. failures, when given, collects
    (f, x, c, eps, delta) of each failed check in order."""
    gated = failed = moved = 0
    for f in systems:
        pts = f.points()
        families = {}
        for c, eps, delta in product(scales, scales, deltas):
            eta = schedule(eps, c)
            gate = shadowable_exact_points(f, pts, eta, closed_step(f, delta) if closed else delta)
            if closed:
                strict = shadowable_exact_points(f, pts, eta, delta)
                assert all(strict[x] for x in pts if gate[x])
            for x in pts:
                if not (gate[x] and minimally_expansive_at(f, x, c)):
                    continue
                if delta not in families:
                    families[delta] = enumerate_perturbations(f, delta)
                gated += 1
                if not verify_topologically_stable_point(
                        f, x, eps, delta, families[delta], expansivity_c=c, eta=eta):
                    failed += 1
                    if failures is not None:
                        failures.append((f, x, c, eps, delta))
                moved += moves(families[delta], f_orbit(f, x))
    return gated, failed, moved


def test_census_has_169_labeled_systems():
    assert sum(1 for _ in small_systems()) == 169


def test_closed_gate_holds_at_palette_delta():
    # no gated perturbation moves x's orbit: eta <= 1/32 lies below every
    # census distance, so this check has no power (the ultrametrics have)
    assert theorem_checks(small_systems(), PALETTE, PALETTE, closed=True) == (1398, 0, 0)


def test_closed_gate_holds_at_the_constant_itself():
    # at eta = min(eps, c), 16 times the proof's radius, perturbations move
    # x's orbit in 538 gated cases, and every one is still stable
    assert theorem_checks(small_systems(), PALETTE, PALETTE, closed=True,
                          schedule=lambda eps, c: min(eps, c)) == (1936, 0, 538)


def test_closed_gate_fails_at_twice_the_constant():
    # at eta = min(eps, 2c) the implication fails; the first witness is the
    # swap of two points at 3/4 at x = 0, c = 1/2, eps = 1, delta = 3/4.
    # There eta = 1 exceeds the distance, so the identity's fixed point 0
    # has a tracer, but no cycle of the swap closes up over period 1
    failures = []
    assert theorem_checks(small_systems(), PALETTE, PALETTE, closed=True,
                          schedule=lambda eps, c: min(eps, 2 * c),
                          failures=failures) == (2818, 196, 1420)
    f, x, c, eps, delta = failures[0]
    assert (f.kernel.perm, f.dist(0, 1)) == ((1, 0), F(3, 4))
    assert (x, c, eps, delta) == (0, F(1, 2), 1, F(3, 4))
    rep = verify_topologically_stable_point(f, x, eps, delta, enumerate_perturbations(f, delta),
                                            eta=1)
    assert [(e.status, e.note) for e in rep.entries] == [
        ("failed", "well-definedness"), ("ok", "")]
    assert rep.entries[0].conjugacy.domain == (0,)


def test_closed_gate_holds_off_the_palette():
    assert theorem_checks(small_systems(), PALETTE, OFF_PALETTE, closed=True) == (1398, 0, 0)


def test_strict_gate_misses_the_closed_steps():
    # the gap itself: perturbations with a step of exactly delta pass the
    # strict gate and then fail to stabilize
    assert theorem_checks(small_systems(), PALETTE, PALETTE, closed=False) == (3918, 2520, 2520)


def test_closed_gate_holds_on_two_level_ultrametrics():
    assert sum(1 for _ in two_level_ultrametrics()) == 395
    assert theorem_checks(two_level_ultrametrics(), ULTRA_SCALES, ULTRA_DELTAS,
                          closed=True) == (7848, 0, 1224)


def theorem_ii_checks(deltas):
    """(gated, failed, moved) over every census system, the uniform measure
    and each point mass with B its support, x, and c, eps in PALETTE and
    delta in deltas: the gate is mu-uniform expansivity at (x, c) and
    mu-shadowing at (eta, delta+, B) at the verifier's eta = min(c / 16,
    eps / 2); each check is strong mu-stability against one perturbation
    within delta, and moved counts the checks whose perturbation moves
    x's orbit. mu-shadowing reads only the part of the delta-ball inside
    B, so this gate admits maps that move the orbit on the census."""
    gated = failed = moved = 0
    for f in small_systems():
        pts, fperm = f.points(), f.kernel.perm
        masses = [dict.fromkeys(pts, 1)] + [{q: int(q == p) for q in pts} for p in pts]
        families = {delta: enumerate_perturbations(f, delta) for delta in deltas}
        for weights, x in product(masses, pts):
            mu, B = WeightedMeasure.from_weights(weights), [q for q in pts if weights[q]]
            orbit = f_orbit(f, x)
            for c, eps, delta in product(PALETTE, PALETTE, deltas):
                eta = min(c / 16, eps / 2)
                if not (mu_uniformly_expansive_at(f, mu, x, c)
                        and mu_shadowable_at(f, mu, x, eta, closed_step(f, delta), B)):
                    continue
                family = families[delta]
                for perm, g in zip(family.perms, family.systems):
                    gated += 1
                    failed += not verify_strong_mu_topological_stability(
                        f, mu, x, eps, delta, g, B, expansivity_c=c).result
                    moved += any(perm[u] != fperm[u] for u in orbit)
    return gated, failed, moved


def test_theorem_ii_holds_on_the_census():
    assert theorem_ii_checks(PALETTE) == (15000, 0, 5940)


def test_the_phi_set_check_is_false_on_the_census():
    # on a finite carrier Phi_c(x) holds x, and every nontrivial point-weight
    # measure has an atom, so the check and the pointwise route it is
    # cross-checked against both read False on every census case
    cases = null = pointwise = 0
    for f in small_systems():
        pts = f.points()
        for p in [None, *pts]:
            mu = WeightedMeasure.from_weights({q: int(p is None or q == p) for q in pts})
            for c in PALETTE + OFF_PALETTE:
                cases += 1
                null += expansive_measure_check(f, mu, c).result
                pointwise += all(mu_uniformly_expansive_at(f, mu, x, c) for x in pts)
    assert (cases, null, pointwise) == (4008, 0, 0)


def test_the_phi_set_check_on_the_shift_holds_below_one():
    # distinct sequences separate to exactly 1: below it every Phi-set is a
    # point, null under the coin; from 1 on it is the whole space
    shift, coin = bundled_system("shift2"), bundled_measure("bernoulli_half")
    assert {c: expansive_measure_check(shift, coin, c).result
            for c in (F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2))} == \
        {F(1, 4): True, F(1, 2): True, F(3, 4): True, F(1): False, F(3, 2): False}


def stays_close_means_close(f, y, c, eps, N) -> bool:
    """Whether every pair u, v on the orbit of y with d(f^n u, f^n v) < c
    for every |n| <= N has d(u, v) < eps, read off the distances along
    the cycle of y."""
    cycle = [y]
    while f.image(cycle[-1]) != y:
        cycle.append(f.image(cycle[-1]))
    p = len(cycle)
    return all(f.dist(cycle[i], cycle[j]) < eps
               for i in range(p) for j in range(i + 1, p)
               if all(f.dist(cycle[(i + n) % p], cycle[(j + n) % p]) < c
                      for n in range(-N, N + 1)))


def test_separation_horizon_is_the_least_horizon():
    # over every gated (x, c), every eps < c in PALETTE and every y in the
    # open c-ball around x: pairs that stay within c up to the horizon are
    # eps-close, and one step less admits a pair that is not
    checked = positive = 0
    for f in small_systems():
        for x, c in product(f.points(), PALETTE):
            if not minimally_expansive_at(f, x, c):
                continue
            for eps, y in product([e for e in PALETTE if e < c], sorted(system_ball(f, x, c))):
                N = separation_horizon(f, x, c, y, eps)
                assert stays_close_means_close(f, y, c, eps, N)
                assert N == 0 or not stays_close_means_close(f, y, c, eps, N - 1)
                checked += 1
                positive += N > 0
    assert (checked, positive) == (879, 132)


def test_minimal_expansivity_moves_to_the_transported_constant():
    # for every bijection h and g = h f h^-1 on the same metric: where f is
    # minimally expansive at (x, c), g is at (h(x), d) for the transported
    # constant d; refused counts the (f, h, c) with no pair beyond c. The
    # least gap itself, in place of d, would fail 1 332 of the checks.
    checked = refused = 0
    for f in small_systems():
        pts = f.points()
        for images in permutations(pts):
            h = dict(zip(pts, images))
            g = conjugate_system(f, h)
            for c in PALETTE:
                try:
                    d = transported_constant(f, h, c)
                except PreconditionError:
                    refused += 1
                    continue
                for x in pts:
                    if minimally_expansive_at(f, x, c):
                        assert minimally_expansive_at(g, h[x], d)
                        checked += 1
    assert (checked, refused) == (4164, 1323)
