"""System backends: lattices, shifts, satellites, orbits, C0 distance."""

from fractions import Fraction as F
from random import Random

import pytest

from pointdyn.bundled import bundled_system
from pointdyn.expansivity import (classify_points, expansive_point_at,
                                  minimally_expansive_at, point_verdicts,
                                  uniformly_expansive_at)
from pointdyn.measures import build_tracking_map, phi_set
from pointdyn.metric import FiniteMetricSpace, discrete_space
from pointdyn.stability import build_conjugacy, gh_stable_point_check
from pointdyn.systems import (ExplicitSystem, build_explicit, build_lattice, build_shift,
                              build_satellite, Satellite, orbit, orbit_closure,
                              pair_sup_separation, c0_distance, check_carrier,
                              system_ball, materialize, conjugate_system, point_label)
from pointdyn.shadowing import shadowable_exact, shadowable_windowed
from pointdyn.shiftspace import pure, parse_ep
from pointdyn.errors import (MalformedInputError, CarrierMismatchError,
                             PreconditionError)

from oracles import distance_table, is_self_isometry, iterate, map_order

P01 = pure((0, 1))


def test_explicit_system_validates_permutation():
    sp = discrete_space(3)
    sys0 = build_explicit(sp, (1, 2, 0))
    assert sys0.image(0) == 1 and sys0.preimage(0) == 2
    with pytest.raises(MalformedInputError):
        build_explicit(sp, (0, 0, 1))
    with pytest.raises(MalformedInputError):
        build_explicit(sp, (0, 1))


@pytest.mark.parametrize("build", (ExplicitSystem, build_explicit),
                         ids=("constructor", "build_explicit"))
def test_explicit_system_refuses_an_empty_carrier(build):
    # an empty carrier was accepted, and then enumerate_perturbations and
    # gh_distance_bounds raised IndexError, while classify_points asked
    # for the probe set of an infinite carrier
    with pytest.raises(MalformedInputError, match="empty carrier"):
        build(FiniteMetricSpace([]), ())


def test_circle_lattice_metric_and_map():
    r12 = build_lattice(12, step=3)
    assert r12.dist(0, 1) == F(1, 12)
    assert r12.dist(0, 6) == F(1, 2)
    assert r12.dist(0, 11) == F(1, 12)   # arc metric wraps
    assert r12.image(10) == 1 and r12.preimage(1) == 10
    assert orbit(r12, 0).points == (0, 3, 6, 9)
    assert orbit(r12, 0).period == 4
    assert map_order(r12.kernel) == 4


def test_torus_lattice_cat_map():
    cat5 = build_lattice(5, kind="torus", matrix=(2, 1, 1, 1))
    assert cat5.image((1, 0)) == (2, 1)
    assert cat5.preimage((2, 1)) == (1, 0)
    assert orbit(cat5, (1, 0)).period == 10
    assert cat5.dist((0, 0), (1, 0)) == F(1, 5)
    assert cat5.dist((0, 0), (2, 3)) == F(2, 5)  # max of the two arcs
    with pytest.raises(MalformedInputError):
        build_lattice(4, kind="torus", matrix=(2, 0, 0, 1))  # det 2 not invertible mod 4
    assert pair_sup_separation(cat5, (0, 0), (1, 0)) == F(2, 5)


def test_shift_orbits_and_closure():
    sh = build_shift(2)
    assert orbit(sh, P01).period == 2
    t = parse_ep("0~1~0@0")
    ob = orbit(sh, t)
    assert not ob.finite
    assert ob.left_cycle == (pure((0,)),) and ob.right_cycle == (pure((0,)),)
    clo = orbit_closure(sh, t)
    assert t.shift_by(5) in clo
    assert pure((0,)) in clo
    assert pure((1,)) not in clo


def test_iterate_both_directions():
    r12 = build_lattice(12, step=3)
    assert iterate(r12, 0, 3) == 9
    assert iterate(r12, 0, -1) == 9
    sh = build_shift(2)
    assert iterate(sh, P01, 5) == P01.shift_by(5)


@pytest.mark.parametrize("make, x, error", (
    (lambda: build_lattice(12, step=3), 99, PreconditionError),     # once returned 6
    (lambda: bundled_system("nearpair4"), 99, PreconditionError),   # once an IndexError
    (lambda: build_shift(2), pure((0, 2)), MalformedInputError),
), ids=("lattice", "explicit", "shift"))
def test_iterate_refuses_a_point_off_the_carrier(make, x, error):
    with pytest.raises(error):
        iterate(make(), x, 1)


def test_satellite_metric_cases():
    sat = build_satellite(3, 2, P01)
    q = Satellite(1, 2, 0)
    # same (k, j), different copy
    assert sat.dist(q, Satellite(3, 2, 0)) == F(1, 2)
    # same copy and phase, different level: 1/2 + 1/3 (anchors coincide)
    assert sat.dist(q, Satellite(1, 3, 0)) == F(5, 6)
    # satellite to its own anchor and to the other marked point
    assert sat.dist(q, P01) == F(1, 2)
    assert sat.dist(q, P01.shift_by(1)) == F(3, 2)
    # map: cyclic phase countdown
    assert sat.image(Satellite(2, 3, 1)) == Satellite(2, 3, 0)
    assert sat.image(Satellite(2, 3, 0)) == Satellite(2, 3, 1)
    # Y-points follow the shift
    assert sat.image(P01) == P01.shift_by(1)


def test_satellite_sup_separation():
    sat = build_satellite(3, 2, P01)
    q = Satellite(1, 2, 0)
    assert pair_sup_separation(sat, q, P01) == F(1, 2)
    assert pair_sup_separation(sat, q, Satellite(2, 2, 1)) == 2
    assert pair_sup_separation(sat, q, Satellite(1, 3, 0)) == F(5, 6)
    assert pair_sup_separation(sat, q, Satellite(2, 2, 0)) == F(1, 2)


def test_satellite_balls():
    sat = build_satellite(3, 2, P01)
    q = Satellite(1, 2, 0)
    bo = system_ball(sat, q, F(1, 2))
    assert set(bo.satellites) == {q} and bo.y_ball is None


@pytest.mark.parametrize("name, x", (("id3", 0), ("shift2", P01), ("satellite3", P01),
                                     ("satellite3", Satellite(1, 2, 0))))
@pytest.mark.parametrize("radius", (0, -1))
def test_system_ball_refuses_a_non_positive_radius(name, x, radius):
    # a radius of 0 once gave an empty frozenset on id3 and the shift and
    # an empty SatelliteBall on the satellite carrier
    with pytest.raises(PreconditionError, match="ball radius must be positive"):
        system_ball(bundled_system(name), x, radius)


def test_c0_distance_values():
    r1 = build_lattice(12, step=1)
    r5 = build_lattice(12, step=5)
    assert c0_distance(r1, r5) == F(1, 3)
    assert c0_distance(r1, r1) == 0
    id3 = build_explicit(discrete_space(3), (0, 1, 2))
    with pytest.raises(CarrierMismatchError):
        c0_distance(r1, id3)
    # equal distance tables share a carrier index by index, whatever the labels
    cat5 = build_lattice(5, kind="torus", matrix=(2, 1, 1, 1))
    flat, _ = materialize(cat5)
    assert c0_distance(cat5, flat) == c0_distance(flat, cat5) == 0
    assert c0_distance(materialize(r5)[0], r1) == F(1, 3)
    with pytest.raises(CarrierMismatchError):
        c0_distance(cat5, materialize(r1)[0])


def test_check_carrier_compares_integer_rows():
    # a lattice and its materialized copy: test_c0_distance_values
    r12 = build_lattice(12, step=5)
    twin = conjugate_system(r12, {p: 5 * p % 12 for p in range(12)})   # metric kept
    check_carrier(r12, twin)
    check_carrier(twin, r12)
    # one entry off, at the same least denominator 12
    flat = materialize(r12)[0]
    table = [list(row) for row in flat.space.table]
    table[0][6] = F(5, 12)
    near = build_explicit(FiniteMetricSpace(table), flat.perm)
    assert near.kernel.denominator == r12.kernel.denominator
    for f, g in ((r12, near), (near, r12), (flat, near)):
        with pytest.raises(CarrierMismatchError):
            check_carrier(f, g)


def test_satellite_carriers_differ_by_alphabet():
    # the alphabet of Y is part of the carrier: 2~~2@0 lies in the
    # second system only, yet the two once shared a carrier at C0 distance 0
    two, three = (build_satellite(1, 2, P01, alphabet=a) for a in (2, 3))
    point = parse_ep("2~~2@0")
    assert three.check_point(point) == point
    with pytest.raises(MalformedInputError):
        two.check_point(point)
    for f, g in ((two, three), (three, two)):
        with pytest.raises(CarrierMismatchError):
            check_carrier(f, g)
        with pytest.raises(CarrierMismatchError):
            c0_distance(f, g)
    assert c0_distance(two, build_satellite(1, 2, P01)) == 0
    # and of its description: the digests differ, and alphabet 2 writes none
    assert two.digest() != three.digest()
    assert three.describe() == two.describe() + " alphabet=3"


@pytest.mark.parametrize("name, x", [("r12k3", 99), ("cat5", (7, 7)),
                                     ("satellite3", Satellite(1, 1, 99))])
def test_off_carrier_points_raise(name, x):
    # the maps send these points into the carrier, so an orbit walk
    # would never come back to them
    system = bundled_system(name)
    c = F(1, 6)
    calls = [lambda: orbit(system, x),
             lambda: expansive_point_at(system, x, c),
             lambda: uniformly_expansive_at(system, x, c),
             lambda: minimally_expansive_at(system, x, c)]
    error = PreconditionError if system.finite else MalformedInputError
    if system.finite:
        y = system.points()[0]
        calls += [
            lambda: build_tracking_map(system, system, x, F(1, 8)),
            lambda: build_conjugacy(system, system, x, F(1, 4), F(1, 8)),
            lambda: pair_sup_separation(system, x, y),
            lambda: pair_sup_separation(system, y, x),
            lambda: phi_set(system, x, c),
            lambda: shadowable_exact(system, x, F(1, 4), F(1, 24)),
            lambda: shadowable_windowed(system, x, F(1, 4), F(1, 24), 1),
            lambda: gh_stable_point_check(system, x, F(1, 4), F(1, 8), [system]),
        ]
    else:
        y = system.satellite_points()[0]
        calls += [lambda: point_verdicts(system, "expansive", c, probe=[x]),
                  lambda: pair_sup_separation(system, x, y),
                  lambda: pair_sup_separation(system, y, x)]
    for call in calls:
        with pytest.raises(error, match="not a carrier point"):
            call()


def test_shift_symbols_outside_the_alphabet_raise():
    shift2, bad = bundled_system("shift2"), parse_ep("2~2~2@0")
    calls = [lambda check=check: check(shift2, bad, F(1, 2))
             for check in (expansive_point_at, uniformly_expansive_at,
                           minimally_expansive_at)]
    calls += [lambda: point_verdicts(shift2, "minimal", F(1, 2), probe=[bad]),
              lambda: pair_sup_separation(shift2, bad, P01),
              lambda: pair_sup_separation(shift2, P01, bad)]
    for call in calls:
        with pytest.raises(MalformedInputError, match="outside alphabet"):
            call()


def test_materialize_round_trip():
    r12 = build_lattice(12, step=3)
    m, pts = materialize(r12)
    assert m.perm[0] == 3 and pts[3] == 3
    assert m.space.dist(0, 1) == r12.dist(pts[0], pts[1])
    swap = build_explicit(discrete_space(3), (1, 0, 2))
    m2, pts2 = materialize(swap)
    assert m2.perm == (1, 0, 2) and tuple(pts2) == (0, 1, 2)
    assert m2.space == swap.space


def test_a_relabeled_twin_is_classified_without_its_fraction_table():
    cat9 = build_lattice(9, kind="torus", matrix=(2, 1, 1, 1))
    pts = cat9.points()
    h = dict(zip(pts, Random(9).sample(pts, len(pts))))
    twin = conjugate_system(cat9, h, transport_metric=True)
    index = {p: i for i, p in enumerate(pts)}
    for variant in ("expansive", "uniform", "minimal"):
        want = {index[h[p]] for p in classify_points(cat9, variant, F(1, 4))}
        assert set(classify_points(twin, variant, F(1, 4))) == want
    assert "table" not in vars(twin.space)
    # read, the table carries the metric over: twin index i stands for h^-1(pts[i])
    inv = [{v: k for k, v in h.items()}[p] for p in pts]
    assert twin.space.table == tuple(tuple(cat9.dist(p, q) for q in inv) for p in inv)
    assert twin.space.table == distance_table(twin)
    assert materialize(cat9)[0].space.table == distance_table(cat9)
    # a space equals the space of its (D, rows), and hashes alike
    for space in (twin.space, materialize(cat9)[0].space, bundled_system("nearpair4").space):
        again = FiniteMetricSpace.from_rows(space.denominator, space.rows)
        assert again == space and hash(again) == hash(space)
        assert FiniteMetricSpace(space.table) == again


def test_conjugation_and_self_isometry():
    r12 = build_lattice(12, step=3)
    rot = {i: (i + 1) % 12 for i in range(12)}
    assert is_self_isometry(r12, rot)
    g = conjugate_system(r12, rot)
    assert g.image(1) == 4             # rot o f o rot^-1
    refl = {i: (12 - i) % 12 for i in range(12)}
    assert is_self_isometry(r12, refl)
    h = conjugate_system(r12, refl)
    assert h.image(0) == 9             # reflection turns step 3 into step 9
    not_iso = {i: 0 for i in range(12)}
    assert not is_self_isometry(r12, not_iso)


@pytest.mark.parametrize("relabel", (
    {0: 99, 99: 0},                     # lattice dist reads 99 mod 12: once True
    {0: 1, 1: 0},                       # a partial map
    {i: [i] for i in range(12)},        # unhashable values
), ids=("off-carrier", "partial", "unhashable"))
def test_self_isometry_needs_a_bijection_of_the_carrier(relabel):
    assert not is_self_isometry(build_lattice(12, step=3), relabel)


@pytest.mark.parametrize("relabel", (
    {0: 0, 1: (1,), 2: 2},              # a value off the carrier
    {0: 1, 1: 0, (2,): 2},              # a key off the carrier
    {0: 1, 1: 1, 2: 2},                 # two keys on one value
    {0: 1, 1: 0},                       # a point left out
    {0: 1, 1: [0], 2: 2},               # an unhashable value
), ids=("value", "key", "collision", "missing", "unhashable"))
def test_conjugation_needs_a_bijection_of_the_carrier(relabel):
    # (1,) and 1 share a sort key, so comparing sorted keys let the first
    # two through; a list value cannot be hashed into the value set
    with pytest.raises(PreconditionError, match="bijection"):
        conjugate_system(build_lattice(3, step=1), relabel)


def test_point_labels():
    assert point_label(7) == "7"
    assert point_label((2, 3)) == "(2,3)"
    assert point_label(Satellite(1, 2, 0)) == "q(1,2,0)"
    assert point_label(P01) == "01~~01@0"
