"""Property tests for the spec-level invariants, exact arithmetic throughout."""

from fractions import Fraction as F
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from pointdyn.metric import FiniteMetricSpace, discrete_space, validate_metric
from pointdyn.systems import (ExplicitSystem, build_explicit, build_lattice,
                              build_shift, orbit, pair_sup_separation,
                              c0_distance, conjugate_system, sorted_points,
                              system_ball)
from pointdyn.shiftspace import EPPoint, pure, shift_metric
from pointdyn.expansivity import classify_points, uniformly_expansive_at, \
    expansive_point_at
from pointdyn.shadowing import (shadowable_windowed, shadowable_exact,
                                shadowable_exact_points)
from pointdyn.measures import (WeightedMeasure, phi_set, measure_of,
                               mu_uniformly_expansive_at, mu_expansive_points,
                               build_tracking_map, tracking_within_ball,
                               tracking_commutes, mu_shadowable_at)
from pointdyn.stability import (build_conjugacy, enumerate_perturbations,
                                find_exact_isomorphism, gh_distance_bounds)
from pointdyn.rationals import dyadic_below, format_rational

from oracles import (ball, distortion, gamma_set, hausdorff_distance,
                     is_delta_isometry, is_self_isometry, map_order, pullback)

# ---------------------------------------------------------------------------
# strategies


def spaces(min_n=2, max_n=5):
    """Random valid metric spaces: distances in [1, 2] satisfy the triangle
    inequality automatically."""
    palette = (F(1), F(5, 4), F(4, 3), F(3, 2), F(7, 4), F(2))

    @st.composite
    def build(draw):
        n = draw(st.integers(min_n, max_n))
        table = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d = draw(st.sampled_from(palette))
                table[i][j] = table[j][i] = d
        return FiniteMetricSpace(table)

    return build()


def perm_systems(min_n=2, max_n=5):
    @st.composite
    def build(draw):
        space = draw(spaces(min_n, max_n))
        perm = draw(st.permutations(range(space.n)))
        return build_explicit(space, tuple(perm), name="rand")
    return build()


def ep_points(alphabet=2):
    word = st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=3)
    center = st.lists(st.integers(0, alphabet - 1), min_size=0, max_size=3)
    return st.builds(
        lambda l, c, r, off: EPPoint(tuple(l), tuple(c), tuple(r), off),
        word, center, word, st.integers(-3, 3))


SCALES = (F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2), F(2), F(5, 2))


# ---------------------------------------------------------------------------
# metric layer


@given(spaces(), st.data())
def test_hausdorff_zero_iff_equal(space, data):
    pts = list(space.points())
    a = frozenset(data.draw(st.sets(st.sampled_from(pts), min_size=1)))
    b = frozenset(data.draw(st.sets(st.sampled_from(pts), min_size=1)))
    d = hausdorff_distance(space, a, b)
    assert (d == 0) == (a == b)


@given(spaces(2, 4))
def test_hausdorff_triangle_exhaustive(space):
    pts = list(space.points())
    subsets = [frozenset(s) for r in range(1, len(pts) + 1)
               for s in permutations(pts, r)]
    subsets = list({s for s in subsets})[:12]
    d = {(a, b): hausdorff_distance(space, a, b)
         for a, b in product(subsets, repeat=2)}
    for a, b, c in product(subsets, repeat=3):
        assert d[a, c] <= d[a, b] + d[b, c]


@given(spaces(), st.data())
def test_isometric_bijection_is_delta_isometry_for_all_delta(space, data):
    perm = data.draw(st.permutations(range(space.n)))
    relabel = {i: perm[i] for i in range(space.n)}
    if not is_self_isometry_space(space, relabel):
        return
    assert distortion(relabel, space, space) == 0
    for delta in (F(1, 8), F(1), F(10)):
        ok, _ = is_delta_isometry(relabel, space, space, delta)
        assert ok


def is_self_isometry_space(space, relabel):
    return all(space.dist(relabel[a], relabel[b]) == space.dist(a, b)
               for a in range(space.n) for b in range(a + 1, space.n))


@given(spaces(), st.data())
def test_ball_monotone_and_open_in_closed(space, data):
    x = data.draw(st.sampled_from(list(space.points())))
    r1 = data.draw(st.sampled_from(SCALES))
    r2 = data.draw(st.sampled_from(SCALES))
    lo, hi = min(r1, r2), max(r1, r2)
    assert ball(space, x, lo) <= ball(space, x, hi)
    assert ball(space, x, lo) <= ball(space, x, lo, closed=True)


# ---------------------------------------------------------------------------
# systems layer


@given(perm_systems())
def test_forward_inverse_identity(system):
    for x in system.points():
        assert system.preimage(system.image(x)) == x
        assert system.image(system.preimage(x)) == x


@given(perm_systems())
def test_orbit_period_divides_system_order(system):
    order = map_order(system.kernel)
    for x in system.points():
        assert order % orbit(system, x).period == 0


@given(perm_systems(), st.data())
def test_sup_separation_dominates_distance(system, data):
    pts = list(system.points())
    x = data.draw(st.sampled_from(pts))
    y = data.draw(st.sampled_from(pts))
    if x == y:
        return
    assert pair_sup_separation(system, x, y) >= system.dist(x, y)


@given(ep_points(), ep_points())
def test_shift_metric_lipschitz(x, y):
    d0 = shift_metric(x, y)
    d1 = shift_metric(x.shift_by(1), y.shift_by(1))
    assert d1 <= 2 * d0
    assert d1 >= d0 / 2


# ---------------------------------------------------------------------------
# expansivity layer


@given(perm_systems(2, 4), st.data())
def test_classification_transports_under_isometric_relabel(system, data):
    perm = data.draw(st.permutations(range(len(list(system.points())))))
    relabel = {i: perm[i] for i in range(len(perm))}
    if not is_self_isometry(system, relabel):
        return
    c = data.draw(st.sampled_from(SCALES))
    twin = conjugate_system(system, relabel, name="twin")
    for variant in ("expansive", "uniform", "minimal"):
        ours = set(classify_points(system, variant, c))
        theirs = set(classify_points(twin, variant, c))
        assert theirs == {relabel[x] for x in ours}


@given(perm_systems(2, 4), st.data())
def test_classification_inverse_invariance(system, data):
    c = data.draw(st.sampled_from(SCALES))
    inverse = build_explicit(system.space,
                             tuple(system.perm.index(i) for i in range(len(system.perm))),
                             name="inv")
    for variant in ("expansive", "uniform", "minimal"):
        assert (classify_points(system, variant, c)
                == classify_points(inverse, variant, c))


def product_system(f, g):
    """Max-metric product of two explicit systems."""
    fp = list(f.points())
    gp = list(g.points())
    pairs = [(a, b) for a in fp for b in gp]
    index = {p: i for i, p in enumerate(pairs)}
    table = [[max(f.dist(a1, a2), g.dist(b1, b2)) for (a2, b2) in pairs]
             for (a1, b1) in pairs]
    perm = tuple(index[(f.image(a), g.image(b))] for (a, b) in pairs)
    return build_explicit(FiniteMetricSpace(table), perm, name="prod"), pairs


@given(perm_systems(2, 3), perm_systems(2, 3), st.sampled_from(SCALES))
@settings(max_examples=40)
def test_uniform_set_product_law(f, g, c):
    prod, pairs = product_system(f, g)
    uf = set(classify_points(f, "uniform", c))
    ug = set(classify_points(g, "uniform", c))
    up = {pairs[i] for i in classify_points(prod, "uniform", c)}
    assert up == {(a, b) for a in uf for b in ug}


@given(perm_systems(2, 5), st.sampled_from(SCALES))
def test_classified_sets_are_invariant_for_isometric_maps(system, c):
    relabel = {x: system.image(x) for x in system.points()}
    if not is_self_isometry(system, relabel):
        return
    for variant in ("expansive", "uniform", "minimal"):
        got = set(classify_points(system, variant, c))
        assert {system.image(x) for x in got} == got


@given(perm_systems(2, 4), st.data())
def test_uniform_on_whole_carrier_implies_pointwise(system, data):
    pts = list(system.points())
    x = data.draw(st.sampled_from(pts))
    c = data.draw(st.sampled_from(SCALES))
    if set(system_ball(system, x, c)) != set(pts):
        return
    if uniformly_expansive_at(system, x, c).result:
        assert expansive_point_at(system, x, c).result


# ---------------------------------------------------------------------------
# shadowing layer


@given(perm_systems(2, 4), st.data())
@settings(max_examples=60)
def test_windowed_monotone(system, data):
    pts = list(system.points())
    x = data.draw(st.sampled_from(pts))
    eps = data.draw(st.sampled_from(SCALES))
    eps_up = eps + data.draw(st.sampled_from((F(0), F(1, 4), F(1))))
    delta = data.draw(st.sampled_from(SCALES))
    delta_down = delta - data.draw(st.sampled_from((F(0), F(1, 8))))
    if delta_down <= 0:
        return
    n = data.draw(st.integers(1, 3))
    n_down = data.draw(st.integers(1, n))
    if shadowable_windowed(system, x, eps, delta, n, budget=200000).result:
        assert shadowable_windowed(system, x, eps_up, delta_down, n_down,
                                   budget=200000).result


@given(perm_systems(2, 4), st.data())
@settings(max_examples=60)
def test_exact_implies_windowed_all_depths(system, data):
    pts = list(system.points())
    x = data.draw(st.sampled_from(pts))
    eps = data.draw(st.sampled_from(SCALES))
    delta = data.draw(st.sampled_from(SCALES))
    if shadowable_exact(system, x, eps, delta):
        for n in (1, 2, 3):
            assert shadowable_windowed(system, x, eps, delta, n,
                                       budget=200000).result


def shadowable_neighborhood(system, x, eps, delta) -> bool:
    """Every pseudo-orbit through the open delta-ball around x traceable."""
    ball = sorted_points(system_ball(system, x, delta))
    return all(shadowable_exact_points(system, ball, eps, delta).values())


@given(perm_systems(2, 4), st.data())
@settings(max_examples=40)
def test_neighborhood_variant_vs_point_variant(system, data):
    pts = list(system.points())
    x = data.draw(st.sampled_from(pts))
    eps = data.draw(st.sampled_from(SCALES))
    delta = data.draw(st.sampled_from(SCALES))
    if shadowable_neighborhood(system, x, eps, delta):
        assert shadowable_exact(system, x, eps, delta)
    # converse at shrunken delta: below the minimum spacing the ball
    # through-set collapses to the point itself
    if shadowable_exact(system, x, eps, delta):
        spacing = min(system.dist(a, b)
                      for a in pts for b in pts if a != b)
        small = min(delta, dyadic_below(spacing))
        assert shadowable_neighborhood(system, x, eps, small)


def test_globalization_on_bundled_rotations():
    # pointwise shadowing at a common delta globalizes to every window
    for system in (build_lattice(6, step=2), build_lattice(12, step=3)):
        eps = F(1, 4)
        delta = F(1, 24)
        pts = list(system.points())
        if all(shadowable_exact(system, x, eps, delta) for x in pts):
            for x in pts:
                assert shadowable_windowed(system, x, eps, delta, 3,
                                           budget=10 ** 6).result


@given(st.data())
def test_mu_shadowable_transport_under_relabel(data):
    space = discrete_space(3)
    perm = data.draw(st.permutations(range(3)))
    system = build_explicit(space, tuple(perm), name="f")
    weights = {i: data.draw(st.sampled_from((0, 1, 2))) for i in range(3)}
    if sum(weights.values()) == 0:
        weights[0] = 1
    mu = WeightedMeasure.from_weights(weights)
    relabel = {i: (i + 1) % 3 for i in range(3)}     # isometry of the discrete space
    twin = conjugate_system(system, relabel, name="g")
    nu = pullback(relabel, mu)
    eps, delta = F(1, 2), F(1, 2)
    B = tuple(i for i in range(3) if mu.weights[i] > 0) or (0, 1, 2)
    Bt = tuple(sorted(relabel[b] for b in B))
    ours = {x for x in range(3)
            if mu_shadowable_at(system, mu, x, eps, delta, B=B).result}
    theirs = {y for y in range(3)
              if mu_shadowable_at(twin, nu, y, eps, delta, B=Bt).result}
    assert theirs == {relabel[x] for x in ours}


# ---------------------------------------------------------------------------
# measure layer


@given(st.data())
def test_pullback_preserves_transported_mass(data):
    n = data.draw(st.integers(2, 5))
    weights = {i: data.draw(st.integers(0, 3)) for i in range(n)}
    if sum(weights.values()) == 0:
        weights[0] = 1
    mu = WeightedMeasure.from_weights(weights)
    perm = data.draw(st.permutations(range(n)))
    h = {i: perm[i] for i in range(n)}
    nu = pullback(h, mu)
    A = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    hA = frozenset(h[a] for a in A)
    assert measure_of(nu, hA) == measure_of(mu, A)


@given(perm_systems(2, 4), st.data())
def test_gamma_inside_phi_and_ball(system, data):
    pts = list(system.points())
    x = data.draw(st.sampled_from(pts))
    c = data.draw(st.sampled_from(SCALES))
    in_ball = sorted(system_ball(system, x, c))
    if not in_ball:
        return
    y = data.draw(st.sampled_from(in_ball))
    gamma = gamma_set(system, x, c, y)
    assert gamma <= phi_set(system, y, c)
    assert gamma <= frozenset(system_ball(system, x, c))
    # monotone: shrinking c shrinks gamma (recompute at c/2 if y survives)
    half_ball = system_ball(system, x, c / 2)
    if y in half_ball:
        assert gamma_set(system, x, c / 2, y) <= gamma


@given(perm_systems(2, 5), st.data())
def test_companion_scan_matches_gamma_sets(system, data):
    # the measure layer scans kernel rows once per ball; the reference
    # route cuts each ball point's gamma set from its phi set and the ball
    pts = list(system.points())
    mu = WeightedMeasure.from_weights(
        {p: data.draw(st.sampled_from((0, 0, 1, F(1, 2)))) for p in pts[:-1]} | {pts[-1]: 1})
    x = data.draw(st.sampled_from(pts))
    c = data.draw(st.sampled_from(SCALES))
    ball = sorted(system_ball(system, x, c))
    heavy = [(z, measure_of(mu, gamma_set(system, x, c, z))) for z in ball]
    heavy = [(z, m) for z, m in heavy if m != 0]
    verdict = mu_uniformly_expansive_at(system, mu, x, c)
    assert verdict.result == (not heavy)
    if heavy:
        z, mass = heavy[0]
        assert verdict.counterexample == (z,)
        assert verdict.detail == f"gamma set of {z} has measure {format_rational(mass)}"
    # a mu-null companion layer at constant c/3 on B(x, c) forces
    # mu-uniform expansivity at c/9
    layer = [z for z in ball
             if measure_of(mu, phi_set(system, z, c / 3) & frozenset(ball)) != 0]
    if not layer:
        assert mu_uniformly_expansive_at(system, mu, x, c / 9).result


@given(perm_systems(2, 4), st.data())
@settings(max_examples=60)
def test_tracking_map_invariants_for_self(system, data):
    pts = list(system.points())
    x = data.draw(st.sampled_from(pts))
    eta = data.draw(st.sampled_from(SCALES))
    H = build_tracking_map(system, system, x, eta)
    ok_ball, _ = tracking_within_ball(H, system)
    assert ok_ball
    ok_comm, _ = tracking_commutes(H, system, system)
    assert ok_comm
    # with g = f the true orbit traces itself: H never empty on its domain
    for u in H.domain:
        assert H.image_of(u)


def test_r43i_quarter_constant_transport():
    # mu-uniform expansivity at c propagates to the c/4-ball at constant c/4
    systems = (build_explicit(discrete_space(3), (0, 1, 2), name="id3"),
               build_explicit(discrete_space(4), (1, 0, 3, 2), name="swaps"),
               build_lattice(6, step=2, name="r6k2"))
    measal = ({0: 0, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 1, 3: 1},
              {i: 1 for i in range(6)})
    for system, weights in zip(systems, measal):
        mu = WeightedMeasure.from_weights(weights)
        for c in (F(1, 2), F(1), F(2)):
            for x in system.points():
                if not mu_uniformly_expansive_at(system, mu, x, c).result:
                    continue
                from pointdyn.systems import system_ball
                for z in system_ball(system, x, c / 4):
                    assert mu_uniformly_expansive_at(system, mu, z, c / 4).result


@given(st.data())
def test_mu_uniform_transport_under_relabel(data):
    space = discrete_space(4)
    perm = data.draw(st.permutations(range(4)))
    system = build_explicit(space, tuple(perm), name="f")
    weights = {i: data.draw(st.sampled_from((0, 1, 3))) for i in range(4)}
    if sum(weights.values()) == 0:
        weights[0] = 1
    mu = WeightedMeasure.from_weights(weights)
    rel_perm = data.draw(st.permutations(range(4)))
    relabel = {i: rel_perm[i] for i in range(4)}      # discrete: every bijection
    twin = conjugate_system(system, relabel, name="g")
    nu = pullback(relabel, mu)
    c = data.draw(st.sampled_from(SCALES))
    ours = mu_expansive_points(system, mu, c)
    theirs = mu_expansive_points(twin, nu, c)
    assert theirs == {relabel[x] for x in ours}


# ---------------------------------------------------------------------------
# stability layer


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_conjugacy_success_reverifies_externally(data):
    space = discrete_space(data.draw(st.integers(2, 4)))
    n = space.n
    f = build_explicit(space, tuple(data.draw(st.permutations(range(n)))), name="f")
    g = build_explicit(space, tuple(data.draw(st.permutations(range(n)))), name="g")
    eps = data.draw(st.sampled_from((F(1, 2), F(1), F(2))))
    delta = data.draw(st.sampled_from((F(1), F(2))))
    x = data.draw(st.integers(0, n - 1))
    if c0_distance(f, g) > delta:
        return
    res = build_conjugacy(f, g, x, eps, delta)
    if not res.success:
        return
    h = res.mapping
    for u in res.domain:
        assert f.image(h[u]) == h[g.image(u)]          # exact commutation
        assert space.dist(h[u], u) <= eps              # residual bound
    # well-definedness: every route to u yields the same image
    z = h[x]
    seen = x
    zz = z
    for _ in range(map_order(g.kernel)):
        seen = g.image(seen)
        zz = f.image(zz)
        assert h[seen] == zz


@settings(max_examples=60, deadline=None)
@given(spaces(1, 6), st.integers(2, 9), st.data())
def test_c0_distance_is_the_fraction_max(space, n, data):
    # finite carriers read the kernel's integer rows; the oracle compares
    # Fractions, on an explicit carrier and on a circle and its indices
    f, g = (build_explicit(space, tuple(data.draw(st.permutations(range(space.n)))))
            for _ in "fg")
    assert c0_distance(f, g) == max(space.table[f.perm[u]][g.perm[u]]
                                    for u in range(space.n))
    rot = build_lattice(n, step=data.draw(st.integers(0, n - 1)))
    perm = tuple(data.draw(st.permutations(range(n))))
    g = ExplicitSystem(FiniteMetricSpace([[rot.dist(a, b) for b in range(n)]
                                          for a in range(n)]), perm)
    assert c0_distance(rot, g) == c0_distance(g, rot) == max(
        rot.dist(rot.image(u), perm[u]) for u in range(n))


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_gh_bounds_ordered_and_budget_monotone(data):
    space = discrete_space(3)
    f = build_explicit(space, tuple(data.draw(st.permutations(range(3)))), name="f")
    g = build_explicit(space, tuple(data.draw(st.permutations(range(3)))), name="g")
    small = gh_distance_bounds(f, g, budget=2000)
    big = gh_distance_bounds(f, g, budget=50000)
    assert small.lower <= small.upper
    assert big.lower <= big.upper
    assert big.lower >= small.lower
    assert big.upper <= small.upper


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_gh_upper_bounded_by_c0_plus_step(data):
    n = data.draw(st.integers(2, 4))
    space = discrete_space(n)
    f = build_explicit(space, tuple(data.draw(st.permutations(range(n)))), name="f")
    g = build_explicit(space, tuple(data.draw(st.permutations(range(n)))), name="g")
    b = gh_distance_bounds(f, g, budget=50000)
    if not b.complete:
        return
    assert b.upper <= c0_distance(f, g) + F(1, 128)


def _brute_isomorphisms(X, Y):
    """Every bijection of indices preserving distances and commuting with
    the maps, by trying them all."""
    n = X.space.n
    xt, yt = X.space.table, Y.space.table
    return [m for m in permutations(range(n))
            if all(yt[m[a]][m[b]] == xt[a][b] for a in range(n) for b in range(n))
            and all(m[X.perm[a]] == Y.perm[m[a]] for a in range(n))]


@settings(max_examples=80, deadline=None)
@given(perm_systems(1, 6), st.data())
def test_exact_isomorphism_matches_brute_force(system, data):
    n = system.space.n
    relabel = dict(enumerate(data.draw(st.permutations(range(n)))))
    twin = conjugate_system(system, relabel, name="twin", transport_metric=True)
    other = data.draw(perm_systems(n, n))
    # the search places the f-cycles in turn, so the map it returns is the
    # least isomorphism read in that slot order
    slots = [i for cyc in system.kernel.cycles for i in cyc]
    for Y in (twin, other):
        found = find_exact_isomorphism(system, Y)
        brute = _brute_isomorphisms(system, Y)
        assert (found is None) == (not brute)
        if found is not None:
            m = tuple(found[a] for a in range(n))
            assert m == min(brute, key=lambda b: [b[i] for i in slots])
            assert all(Y.space.table[m[a]][m[b]] == system.space.table[a][b]
                       for a in range(n) for b in range(n))
            assert all(m[system.perm[a]] == Y.perm[m[a]] for a in range(n))
    assert find_exact_isomorphism(system, twin) is not None
