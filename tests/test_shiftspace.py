"""Eventually periodic sequences: canonical forms, metric, balls, wire format."""

from fractions import Fraction as F

import pytest

from pointdyn.shiftspace import (EPPoint, pure, with_symbol, first_disagreement,
                                 shift_metric, ShiftBall, ball_halfwidth,
                                 parse_ep, format_ep, left_limit_cycle,
                                 right_limit_cycle)
from pointdyn.errors import MalformedInputError, PreconditionError

from oracles import sample_points

P01 = pure((0, 1))
P0 = pure((0,))
P1 = pure((1,))


def test_pure_points_reduce_to_primitive_words():
    assert pure((0, 1, 0, 1)) == P01
    assert pure((0, 0, 0)) == P0
    assert P01.is_periodic and P01.period == 2
    assert P01.value(0) == 0 and P01.value(1) == 1 and P01.value(-1) == 1


def test_canonical_form_absorbs_redundant_center():
    # an explicit center that just repeats the tails collapses away
    assert EPPoint((0,), (0, 0, 0), (0,), 5) == P0
    # center matching the tails on both sides shrinks to the true break
    step = EPPoint((0,), (0, 1), (1,), 0)
    assert step == parse_ep("0~~1@1")
    assert step.center == ()
    assert step.value(0) == 0 and step.value(1) == 1


def test_offset_shifts_are_canonicalized():
    assert EPPoint((0, 1), (), (0, 1), 1) == pure((1, 0))
    assert P01.shift_by(1) == pure((1, 0))
    assert P01.shift_by(2) == P01
    assert P01.shift_by(-1) == pure((1, 0))


def test_shift_moves_center_against_positions():
    t = parse_ep("0~1~0@0")          # single 1 at position 0 in a sea of 0s
    assert t.value(0) == 1 and t.value(1) == 0
    s = t.shift_by(5)                # s[i] = t[i+5]: the 1 sits at -5
    assert s.value(-5) == 1 and s.value(0) == 0
    assert s.offset == -5


def test_tail_words_must_be_nonempty():
    with pytest.raises(MalformedInputError):
        EPPoint((), (0,), (0,))
    with pytest.raises(MalformedInputError):
        parse_ep("~0~1")


def test_first_disagreement_scans_both_sides():
    assert first_disagreement(P01, P01) is None
    assert first_disagreement(P0, P1) == 0
    assert first_disagreement(P0, with_symbol(P0, 3, 1)) == 3
    assert first_disagreement(P0, with_symbol(P0, -2, 1)) == 2


def test_shift_metric_values():
    assert shift_metric(P0, P0) == 0
    assert shift_metric(P0, P1) == 1
    assert shift_metric(P01, pure((1, 0))) == 1
    t = parse_ep("0~1~0@0")
    assert shift_metric(t, P0) == 1
    assert shift_metric(t.shift_by(1), P0) == F(1, 2)
    assert shift_metric(t.shift_by(-3), P0) == F(1, 8)


def test_with_symbol_round_trip():
    x = with_symbol(P01, 4, 1)
    assert x.value(4) == 1 and x != P01
    assert with_symbol(x, 4, 0) == P01


def test_limit_cycles():
    t = parse_ep("01~0011~10@-2")
    left = left_limit_cycle(t)
    assert set(left) == {P01, pure((1, 0))}
    right = right_limit_cycle(t)
    assert set(right) == {pure((1, 0)), P01}


def test_shift_ball_membership():
    b = ShiftBall(P01, 2)            # positions -1, 0, 1 pinned
    assert P01 in b
    assert with_symbol(P01, 2, 1) in b
    assert with_symbol(P01, -2, 1) in b
    assert with_symbol(P01, 1, 0) not in b
    assert list(b.fixed_positions()) == [-1, 0, 1]
    whole = ShiftBall(P01, 0)
    assert whole.halfwidth == 0 and P1 in whole


def test_shift_ball_samples_stay_inside():
    b = ShiftBall(P01, 3)
    pts = sample_points(b, alphabet=2, limit=5)
    assert len(set(pts)) == 5
    assert all(y in b for y in pts)


def test_ball_halfwidth_strict_and_closed():
    assert ball_halfwidth(F(1, 4)) == 3            # need 2^-m < 1/4
    assert ball_halfwidth(F(1, 3)) == 2
    assert ball_halfwidth(F(2)) == 0               # whole space


@pytest.mark.parametrize("radius", (F(0), F(-1)))
def test_ball_halfwidth_refuses_a_non_positive_radius(radius):
    # an open ball of radius 0 once came back as None, and the loop had no
    # guard for a negative radius
    with pytest.raises(PreconditionError, match="ball radius must be positive"):
        ball_halfwidth(radius)


def test_wire_format_round_trip():
    for text in ("0~~0@0", "01~~01@0", "0~1~0@0", "01~0011~10@-2"):
        x = parse_ep(text)
        assert parse_ep(format_ep(x)) == x
    assert format_ep(P01) == "01~~01@0"


def test_parse_rejects_malformed_text():
    for bad in ("01", "0~1", "0~1~2~3", "0~a~0", "0~1~0@x"):
        with pytest.raises(MalformedInputError):
            parse_ep(bad)
