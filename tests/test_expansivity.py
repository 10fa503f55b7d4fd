"""Pointwise expansivity variants on lattices, shifts, and satellites."""

import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pointdyn.metric import FiniteMetricSpace, discrete_space
from pointdyn.measures import phi_set
from pointdyn.systems import (build_explicit, build_lattice, build_shift,
                              build_satellite, conjugate_system, point_label,
                              Satellite, pair_sup_separation, sorted_points,
                              system_ball)
from pointdyn.shiftspace import pure, parse_ep
from pointdyn.expansivity import (ExpansivityVerdict, expansive_point_at,
                                  uniformly_expansive_at, is_expansive_on,
                                  minimally_expansive_at, classify_points,
                                  separation_horizon, point_verdicts)
from pointdyn.errors import PreconditionError

from oracles import separation_set

R12K3 = build_lattice(12, step=3)
ID3 = build_explicit(discrete_space(3), (0, 1, 2), name="id3")
SHIFT2 = build_shift(2)
P01 = pure((0, 1))


def test_rotation_dichotomy():
    """Rigid rotation: every point minimally expansive, none uniformly."""
    assert classify_points(R12K3, "minimal", F(1, 6)) == list(range(12))
    assert classify_points(R12K3, "uniform", F(1, 6)) == []


def test_rotation_small_constant_behaviour():
    # a ball smaller than the lattice spacing is a single point
    assert uniformly_expansive_at(R12K3, 0, F(1, 24)).result
    assert not uniformly_expansive_at(R12K3, 0, F(1, 6)).result
    assert minimally_expansive_at(R12K3, 0, F(1, 6)).result
    # rotation orbits keep constant distance: no separation ever
    v = expansive_point_at(R12K3, 0, F(1, 12))
    assert not v.result and v.counterexample is not None


def test_identity_map_expansivity():
    assert expansive_point_at(ID3, 0, F(1, 2)).result
    assert not expansive_point_at(ID3, 0, 1).result
    assert minimally_expansive_at(ID3, 0, F(1, 2)).result


def test_shift_expansivity():
    assert expansive_point_at(SHIFT2, P01, F(1, 2)).result
    assert not expansive_point_at(SHIFT2, P01, 1).result
    assert minimally_expansive_at(SHIFT2, P01, F(99, 100)).result
    v = minimally_expansive_at(SHIFT2, P01, 1)
    assert not v.result
    # the counterexample is an orbit pair that never separates beyond 1
    a, b = v.counterexample
    assert a.shift_by(1) == b


def test_satellite_expansivity():
    sat = build_satellite(3, 2, P01)
    q = Satellite(1, 2, 0)
    assert expansive_point_at(sat, q, F(49, 100)).result
    assert not expansive_point_at(sat, q, F(1, 2)).result
    assert minimally_expansive_at(sat, q, F(1, 4)).result
    assert uniformly_expansive_at(sat, q, F(1, 4)).result
    y0 = parse_ep("0~~0@0")
    assert minimally_expansive_at(sat, y0, F(1, 4)).result
    assert expansive_point_at(sat, P01, F(1, 4)).result
    assert not expansive_point_at(sat, P01, F(1, 3)).result


def test_satellite_ball_witness_uses_the_alphabet():
    # the Y part of a satellite ball once advanced its witness symbol
    # mod 2, so over three symbols 01~~01@0 was paired with 10~0~01@1
    sat = build_satellite(1, 2, P01, alphabet=3)
    v = uniformly_expansive_at(sat, P01, 1)
    assert not v.result
    assert v.counterexample == (P01, parse_ep("10~2~01@1"))
    ball = system_ball(sat, P01, 1)
    assert all(y in ball for y in v.counterexample)
    assert pair_sup_separation(sat, *v.counterexample) == 1


def test_classify_unknown_variant_rejected():
    with pytest.raises(PreconditionError):
        classify_points(ID3, "bogus", F(1, 2))


def test_separation_sets():
    sw = separation_set(R12K3, 0, 1, F(1, 6), 4)
    assert sw.times == frozenset() and sw.full_period
    sw2 = separation_set(R12K3, 0, 6, F(1, 3), 4)
    assert sw2.times == frozenset(range(-4, 5)) and sw2.full_period
    sw3 = separation_set(ID3, 0, 1, 2, 1)
    assert sw3.times == frozenset()


def test_separation_horizon():
    assert separation_horizon(R12K3, 0, F(1, 6), 0, F(1, 8)) == 0
    assert separation_horizon(ID3, 0, F(1, 2), 0, F(1, 4)) == 0


def test_separation_horizon_on_cat7_ball():
    # every other point of the open 2/7-ball around the fixed point: its
    # orbit holds a pair 1/7 apart or more that reaches 2/7 at time +-1
    cat7 = build_lattice(7, kind="torus", matrix=(2, 1, 1, 1))
    ball = sorted(y for y in system_ball(cat7, (0, 0), F(2, 7)) if y != (0, 0))
    assert len(ball) == 8
    for y in ball:
        assert separation_horizon(cat7, (0, 0), F(2, 7), y, F(1, 7)) == 1, y


def test_separation_horizon_preconditions():
    cat7 = build_lattice(7, kind="torus", matrix=(2, 1, 1, 1))
    cases = [
        ((cat7, (0, 0), F(2, 7), (0, 1), F(2, 7)), "need 0 < eps < c"),
        ((cat7, (0, 0), F(2, 7), (0, 1), F(0)), "need 0 < eps < c"),
        # every point of cat7 fails at 3/7
        ((cat7, (0, 0), F(3, 7), (0, 1), F(1, 7)),
         "map is not minimally expansive at (x, c)"),
        ((cat7, (0, 0), F(2, 7), (3, 3), F(1, 7)),
         "y must lie in the open c-ball around x"),
        # eventually periodic, not periodic: an infinite orbit in the ball
        ((SHIFT2, P01, F(1, 2), parse_ep("10~0~01@3"), F(1, 4)),
         "orbit of 10~0~01@3 is infinite"),
    ]
    for args, message in cases:
        with pytest.raises(PreconditionError) as err:
            separation_horizon(*args)
        assert str(err.value) == message


# sha256 of every point verdict (result, counterexample, detail) of the
# three variants, and of every cat7 phi set, recorded while finite
# sup-separation still walked each pair orbit per call. At c = 3/7 on
# cat7 and c = 1/6 on Z36 every point fails, so the digest also pins
# which counterexample each verdict reports.
VERDICT_PIN = "4950d6a7705803be37f1cebd4db340ed42b49cdeaf26ad79ae611c1cdc56f3e9"


def test_point_verdicts_are_pinned():
    cat7 = build_lattice(7, kind="torus", matrix=(2, 1, 1, 1))
    z36 = build_lattice(36, step=5)
    digest = hashlib.sha256()
    for system, c in ((cat7, F(1, 4)), (cat7, F(3, 7)), (z36, F(1, 6))):
        for variant in ("expansive", "uniform", "minimal"):
            for p, v in point_verdicts(system, variant, c).items():
                digest.update(repr((p, v.result, v.counterexample, v.detail)).encode())
    for c in (F(1, 4), F(3, 7)):
        for p in cat7.points():
            digest.update(repr((p, sorted_points(phi_set(cat7, p, c)))).encode())
    assert digest.hexdigest() == VERDICT_PIN


# -- oracles: the pair loops the kernel rows replaced ---------------------------


def oracle_sup(system, x, y):
    """sup over n of d(f^n x, f^n y), walking the pair orbit on dist."""
    if x == y:
        return F(0)
    best, a, b = system.dist(x, y), system.image(x), system.image(y)
    while (a, b) != (x, y):
        best = max(best, system.dist(a, b))
        a, b = system.image(a), system.image(b)
    return best


def oracle_expansive_on(system, domain, c):
    pts = sorted_points(domain)
    for i, y in enumerate(pts):
        for z in pts[i + 1:]:
            if oracle_sup(system, y, z) <= c:
                return ExpansivityVerdict(None, c, "expansive_on", False, (y, z))
    return ExpansivityVerdict(None, c, "expansive_on", True,
                              detail=f"{len(pts)} points, all pairs separate")


def oracle_expansive_point(system, x, c):
    for y in system.points():
        if y != x and oracle_sup(system, x, y) <= c:
            return ExpansivityVerdict(x, c, "expansive", False, (x, y))
    return ExpansivityVerdict(x, c, "expansive", True)


def oracle_ball(system, x, c):
    return frozenset(y for y in system.points() if system.dist(x, y) < c)


def oracle_uniform(system, x, c):
    inner = oracle_expansive_on(system, oracle_ball(system, x, c), c)
    return ExpansivityVerdict(x, c, "uniform", inner.result,
                              inner.counterexample, inner.detail)


def oracle_orbit(system, y):
    orb, cur = [y], system.image(y)
    while cur != y:
        orb.append(cur)
        cur = system.image(cur)
    return orb


def oracle_minimal(system, x, c):
    for y in sorted_points(oracle_ball(system, x, c)):
        inner = oracle_expansive_on(system, oracle_orbit(system, y), c)
        if not inner.result:
            return ExpansivityVerdict(x, c, "minimal", False, inner.counterexample,
                                      detail=f"orbit closure of {point_label(y)} fails")
    return ExpansivityVerdict(x, c, "minimal", True)


def oracle_phi(system, x, c):
    return frozenset(y for y in system.points() if oracle_sup(system, x, y) <= c)


# The acceptance-criterion-3 distances: values in [1, 2] keep the triangle
# inequality automatic.
C3_DISTANCES = (F(1), F(5, 4), F(4, 3), F(3, 2), F(7, 4), F(2))
TORUS_MATRICES = ((2, 1, 1, 1), (1, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1))


@st.composite
def classified_systems(draw):
    """Random explicit systems, lattices, and relabeled twins of either."""
    kind = draw(st.sampled_from(("explicit", "circle", "torus")))
    if kind == "circle":
        system = build_lattice(draw(st.integers(2, 12)), step=draw(st.integers(0, 11)))
    elif kind == "torus":
        system = build_lattice(draw(st.integers(2, 4)), kind="torus",
                               matrix=draw(st.sampled_from(TORUS_MATRICES)))
    else:
        n = draw(st.integers(3, 9))
        table = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                table[i][j] = table[j][i] = draw(st.sampled_from(C3_DISTANCES))
        system = build_explicit(FiniteMetricSpace(table),
                                tuple(draw(st.permutations(range(n)))))
    if draw(st.booleans()):
        pts = system.points()
        system = conjugate_system(system, dict(zip(pts, draw(st.permutations(pts)))),
                                  transport_metric=True)
    return system


@settings(max_examples=60, deadline=None)
@given(classified_systems(), st.data())
def test_classifiers_match_the_pair_loops(system, data):
    pts = system.points()
    # the system's own separations are the <= boundary; also just above
    # them, and just below a positive one, where the ball's open bound and
    # the closed bound of the separation pass differ
    own = sorted({oracle_sup(system, x, y) for x in pts for y in pts})
    c = data.draw(st.sampled_from(own), label="separation")
    tiny = F(1, 10 ** 6)
    c += data.draw(st.sampled_from((F(0), tiny, -tiny) if c > 0 else (F(0), tiny)),
                   label="offset")
    domain = data.draw(st.lists(st.sampled_from(pts), unique=True), label="domain")
    if not c:
        # a point's separation from itself: no expansivity constant
        for check in (expansive_point_at, uniformly_expansive_at,
                      minimally_expansive_at, phi_set):
            with pytest.raises(PreconditionError, match="expansivity constant must be"):
                check(system, pts[0], c)
        with pytest.raises(PreconditionError, match="expansivity constant must be"):
            is_expansive_on(system, domain, c)
        return
    for x in pts:
        assert expansive_point_at(system, x, c) == oracle_expansive_point(system, x, c)
        assert uniformly_expansive_at(system, x, c) == oracle_uniform(system, x, c)
        assert minimally_expansive_at(system, x, c) == oracle_minimal(system, x, c)
        assert phi_set(system, x, c) == oracle_phi(system, x, c)
    assert is_expansive_on(system, domain, c) == oracle_expansive_on(system, domain, c)
