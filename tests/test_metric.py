"""Exact metric-space validation, and the Fraction-table helpers of the
oracles (balls, Hausdorff distance, distortion, delta-isometries)."""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pointdyn.bundled import bundled_names, bundled_system, mixed_sample, sampled_space
from pointdyn.metric import (FiniteMetricSpace, MetricViolation, discrete_space,
                             validate_metric)
from pointdyn.rationals import format_rational
from pointdyn.errors import MalformedInputError, PreconditionError
from pointdyn.rationals import RationalFormatError, dyadic_below

from oracles import ball, distortion, hausdorff_distance, is_delta_isometry


def space_from_rows(rows):
    return FiniteMetricSpace(tuple(tuple(F(v) for v in row) for row in rows))


def test_entries_are_coerced_to_exact_fractions():
    half = F(1, 2)
    sp = FiniteMetricSpace([[0, "1/2", "1/2"], [half, F(0), F(1)], ("1/2", 1, "0/1")])
    assert sp.table == ((0, half, half), (half, 0, 1), (half, 1, 0))
    assert all(type(v) is F for row in sp.table for v in row)
    assert all(type(row) is tuple for row in sp.table)
    # a row of Fractions only is kept as it is, entry for entry
    assert sp.table[1][0] is half


@pytest.mark.parametrize("rows", (
    [[0.0, 0.5], [0.5, 0.0]],
    [[F(0), F(1, 2), 0.5], [F(1, 2), F(0), F(1)], [F(1, 2), F(1), F(0)]],
    [[F(0), F(1)], [F(1), 0.0]],
    [[0, "1/2"], [0.5, 0]],
), ids=("all-float", "one-float-in-fraction-row", "last-entry", "float-among-ints"))
def test_floats_are_rejected(rows):
    with pytest.raises(RationalFormatError, match="got float"):
        FiniteMetricSpace(rows)


def test_dyadic_below_raises_the_package_errors():
    # a bound q <= 0 once raised a bare ValueError, and "1/2" a TypeError
    for q in (0, -1):
        with pytest.raises(PreconditionError, match="^dyadic bound must be positive$"):
            dyadic_below(q)
    assert dyadic_below("1/2") == F(1, 4)
    with pytest.raises(RationalFormatError, match="^not a rational: 'x'$"):
        dyadic_below("x")


def test_discrete_space_is_clean():
    sp = discrete_space(4)
    assert sp.n == 4
    assert sp.dist(0, 1) == 1 and sp.dist(2, 2) == 0
    assert validate_metric(sp) == []


def test_validate_flags_asymmetry():
    rows = [[0, 1, 1], [2, 0, 1], [1, 1, 0]]
    bad = space_from_rows(rows)
    violations = validate_metric(bad)
    axioms = {v.axiom for v in violations}
    assert "symmetry" in axioms
    sym = next(v for v in violations if v.axiom == "symmetry")
    assert set(sym.witness) == {0, 1}


def test_validate_flags_identity_and_positivity():
    # zero distance between distinct points, and a nonzero diagonal
    rows = [[0, 0], [0, F(1, 2)]]
    violations = validate_metric(space_from_rows(rows))
    axioms = sorted(v.axiom for v in violations)
    assert axioms == ["identity", "positivity"]
    ident = next(v for v in violations if v.axiom == "identity")
    assert ident.witness == (1,)
    pos = next(v for v in violations if v.axiom == "positivity")
    assert pos.witness == (0, 1)


def test_validate_flags_triangle():
    # d(0,2) = 5 > d(0,1) + d(1,2) = 2
    rows = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    violations = validate_metric(space_from_rows(rows))
    tri = [v for v in violations if v.axiom == "triangle"]
    assert tri and tri[0].witness == (0, 1, 2)


def test_validate_flags_negative_entry():
    rows = [[0, -1], [-1, 0]]
    violations = validate_metric(space_from_rows(rows))
    assert any(v.axiom == "positivity" for v in violations)


def test_validate_flags_ragged_table():
    ragged = FiniteMetricSpace(((F(0), F(1)),))  # 1 row, row length 2
    violations = validate_metric(ragged)
    assert violations and violations[0].axiom == "shape"


def validate_metric_oracle(space):
    """validate_metric on the exact Fraction entries, the route it took
    before it compared integer rows: same checks, same order."""
    out = []
    n = space.n
    for i, row in enumerate(space.table):
        if len(row) != n:
            out.append(MetricViolation("shape", (i,), f"row {i} has length {len(row)}, want {n}"))
    if out:
        return out
    for i in range(n):
        if space.table[i][i] != 0:
            out.append(MetricViolation("identity", (i,),
                                       f"d({i},{i}) = {format_rational(space.table[i][i])}"))
    for i in range(n):
        for j in range(i + 1, n):
            if space.table[i][j] != space.table[j][i]:
                out.append(MetricViolation("symmetry", (i, j), "d(i,j) != d(j,i)"))
            if space.table[i][j] <= 0:
                out.append(MetricViolation("positivity", (i, j),
                                           f"d({i},{j}) = {format_rational(space.table[i][j])}"))
    for i, j, k in combinations(range(n), 3):
        for a, b, c in ((i, j, k), (j, i, k), (i, k, j)):
            if space.table[b][c] > space.table[b][a] + space.table[a][c]:
                out.append(MetricViolation("triangle", (b, a, c),
                                           f"d({b},{c}) > d({b},{a}) + d({a},{c})"))
    return out


@pytest.mark.parametrize("name", bundled_names())
def test_integer_validation_matches_the_oracle_on_bundled_samples(name):
    system = bundled_system(name)
    space = sampled_space(system, mixed_sample(system))
    assert validate_metric(space) == validate_metric_oracle(space) == []


@pytest.mark.parametrize("rows, axioms", (
    ([[0, 1], [1, 0, 2]], {"shape"}),
    ([["1/3", "1/2"], ["1/2", 0]], {"identity"}),
    ([[0, 0, 1], [0, 0, 1], [1, 1, 0]], {"positivity"}),
    ([[0, "-1/6"], ["-1/6", 0]], {"positivity"}),
    ([[0, 1, 1], [1, 0, "5/4"], [1, "3/2", 0]], {"symmetry"}),
    ([[0, "1/3", 1], ["1/3", 0, "1/2"], [1, "1/2", 0]], {"triangle"}),
    ([[0, "1/3", "5/6"], ["1/3", 0, "1/2"], ["5/6", "1/2", 0]], set()),   # tight
    ([["1/7", "1/3", 2, 0], ["1/5", 0, "1/2", 1], [2, "1/2", 0, 3], [0, 1, "1/9", 0]],
     {"identity", "symmetry", "positivity", "triangle"}),
), ids=("shape", "identity", "positivity-zero", "positivity-negative", "symmetry",
        "triangle", "tight-triangle", "every-kind"))
def test_integer_validation_matches_the_oracle_on_each_violation(rows, axioms):
    space = FiniteMetricSpace(rows)
    violations = validate_metric(space)
    assert violations == validate_metric_oracle(space)
    assert {v.axiom for v in violations} == axioms


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.fractions(-1, 3, max_denominator=12), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_integer_validation_matches_the_oracle_on_random_tables(rows):
    space = FiniteMetricSpace(rows)
    assert validate_metric(space) == validate_metric_oracle(space)


def test_ball_open_vs_closed():
    sp = discrete_space(3)
    assert ball(sp, 0, F(1, 2)) == frozenset({0})
    assert ball(sp, 0, 1) == frozenset({0})
    assert ball(sp, 0, 1, closed=True) == frozenset({0, 1, 2})
    assert ball(sp, 0, 2) == frozenset({0, 1, 2})


def test_hausdorff_distance_basics():
    sp = space_from_rows([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    assert hausdorff_distance(sp, (0,), (0,)) == 0
    assert hausdorff_distance(sp, (0,), (2,)) == 3
    assert hausdorff_distance(sp, (0, 2), (1,)) == 2
    assert hausdorff_distance(sp, (0, 1, 2), (0, 2)) == 1
    with pytest.raises(PreconditionError):
        hausdorff_distance(sp, (), (0,))


@pytest.mark.parametrize("call, bad", (
    (lambda sp: ball(sp, -1, F(1, 2)), -1),                          # once {2}
    (lambda sp: ball(sp, 3, F(1, 2), closed=True), 3),               # once an IndexError
    (lambda sp: hausdorff_distance(sp, [-1], [2]), -1),              # once 0
    (lambda sp: hausdorff_distance(sp, [0, 9], [1]), 9),             # once an IndexError
    (lambda sp: hausdorff_distance(sp, [0], [1, -2]), -2),           # once 1
    (lambda sp: distortion([0, 1, 7], sp, sp), 7),                   # once an IndexError
    (lambda sp: is_delta_isometry([0, 1, -1], sp, sp, F(1, 2)), -1), # once (True, ...)
), ids=("ball-negative", "ball-past-end", "hausdorff-negative", "hausdorff-past-end",
        "hausdorff-second-set", "distortion", "delta-isometry"))
def test_indices_off_the_space_are_refused(call, bad):
    with pytest.raises(PreconditionError, match=rf"^{bad} is not a point of the space \(n = 3\)$"):
        call(bundled_system("id3").space)


def test_distortion_exact():
    src = discrete_space(3)
    dst = space_from_rows([[0, F(1, 2), 1], [F(1, 2), 0, 1], [1, 1, 0]])
    # identity index map: |1 - 1/2| = 1/2 on the (0,1) pair
    assert distortion({0: 0, 1: 1, 2: 2}, src, dst) == F(1, 2)
    assert distortion((0, 1, 2), src, dst) == F(1, 2)  # sequence form
    with pytest.raises(PreconditionError):
        distortion({0: 0, 1: 1}, src, dst)  # map must be total on the source


def test_is_delta_isometry_verdicts():
    src = discrete_space(2)
    dst = discrete_space(3)
    ok, detail = is_delta_isometry({0: 0, 1: 1}, src, dst, F(3, 2))
    assert ok
    # not onto-up-to-1/2: point 2 of dst is at distance 1 from the image
    bad, detail = is_delta_isometry({0: 0, 1: 1}, src, dst, F(1, 2))
    assert not bad and "dense" in detail
    # distortion violation: collapse both points
    bad2, detail2 = is_delta_isometry({0: 0, 1: 0}, src, dst, F(1, 2))
    assert not bad2 and "distortion" in detail2
    # bounds are strict: distortion 0 and hausdorff 1 fail at delta = 1
    bad3, _ = is_delta_isometry({0: 0, 1: 1}, src, dst, 1)
    assert not bad3
