"""Pointwise expansivity variants on lattices, shifts, and satellites."""

import hashlib
from fractions import Fraction as F

import pytest

from pointdyn.metric import discrete_space
from pointdyn.measures import phi_set
from pointdyn.systems import (build_explicit, build_lattice, build_shift,
                              build_satellite, Satellite, sorted_points)
from pointdyn.shiftspace import pure, parse_ep
from pointdyn.expansivity import (expansive_point_at, uniformly_expansive_at,
                                  minimally_expansive_at, classify_points,
                                  separation_set, separation_horizon,
                                  sequence_expansivity_criterion, point_verdicts)
from pointdyn.errors import PreconditionError

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


def test_sequence_criterion():
    v = sequence_expansivity_criterion(R12K3, [R12K3], 0, F(1, 6), "minimal")
    assert v.result
    v2 = sequence_expansivity_criterion(R12K3, [R12K3], 0, F(1, 2), "uniform")
    assert not v2.result


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
