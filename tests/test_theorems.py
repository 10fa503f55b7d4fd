"""Theorem (i)'s stability half as an executable implication on every
small explicit system.

Theorem (i): a point x where f is minimally expansive with constant c and
shadowable is topologically stable. Pseudo-orbit steps are strict,
d(f(w_n), w_(n+1)) < delta, while perturbations are admitted at
c0_distance(f, g) <= delta, closed. A g-orbit with a step of exactly delta
is then no delta-pseudo-orbit, and a gate that decides shadowing at delta
says nothing about it. The closed steps need no option of their own:
views are keyed by their integer bound, so the strict decider at
delta+ = (floor(delta * D) + 1) / D, with D the kernel's denominator,
reads exactly the steps with d(f(u), v) <= delta.

Two lemmas of the proof run as implications on the same census:
separation_horizon's N is the least horizon past which orbit pairs that
stay within c are eps-close, and minimal expansivity moves through a
conjugacy h to h(x) at transported_constant's constant.
"""

from fractions import Fraction as F
from itertools import permutations, product
from math import floor

from pointdyn.errors import PreconditionError
from pointdyn.expansivity import minimally_expansive_at, separation_horizon
from pointdyn.metric import FiniteMetricSpace
from pointdyn.shadowing import shadowable_exact_points
from pointdyn.stability import (enumerate_perturbations, transported_constant,
                                verify_topologically_stable_point)
from pointdyn.systems import build_explicit, conjugate_system, system_ball

PALETTE = (F(1, 2), F(3, 4), F(1))
OFF_PALETTE = tuple(d + F(1, 64) for d in PALETTE)


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


def closed_step(f, delta):
    """delta+: the strict bound whose steps are the closed steps of delta."""
    D = f.kernel.denominator
    return F(floor(delta * D) + 1, D)


def theorem_checks(deltas, closed):
    """(gated, failed) over every system, x, c, eps in PALETTE and delta in
    deltas: the gate is minimal expansivity at (x, c) and shadowing at
    eta = min(eps, c) / 16 with closed steps (delta+) or strict ones
    (delta); the check is stability against every perturbation within
    delta. Where the closed gate admits, shadowing at delta must hold too."""
    gated = failed = 0
    for f in small_systems():
        pts = f.points()
        families = {}
        for c, eps, delta in product(PALETTE, PALETTE, deltas):
            eta = min(eps, c) / 16
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
                failed += not verify_topologically_stable_point(
                    f, x, eps, delta, families[delta], expansivity_c=c).result
    return gated, failed


def test_census_has_169_labeled_systems():
    assert sum(1 for _ in small_systems()) == 169


def test_closed_gate_holds_at_palette_delta():
    assert theorem_checks(PALETTE, closed=True) == (1398, 0)


def test_closed_gate_holds_off_the_palette():
    assert theorem_checks(OFF_PALETTE, closed=True) == (1398, 0)


def test_strict_gate_misses_the_closed_steps():
    # the gap itself: perturbations with a step of exactly delta pass the
    # strict gate and then fail to stabilize
    assert theorem_checks(PALETTE, closed=False) == (3918, 2520)


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
