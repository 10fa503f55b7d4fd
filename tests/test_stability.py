"""Conjugacy construction, perturbation families, isometry search, GH bounds."""

import hashlib
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, strategies as st

from pointdyn.bundled import bundled_system
from pointdyn.metric import (FiniteMetricSpace, discrete_space, distortion,
                             hausdorff_distance, is_delta_isometry)
from pointdyn.rationals import format_rational
from pointdyn.systems import (ExplicitSystem, build_lattice, conjugate_system,
                              is_self_isometry, materialize, point_label)
from pointdyn.stability import (build_conjugacy, enumerate_perturbations,
                                find_exact_isomorphism,
                                first_delta_isometry_pair, gh_distance_bounds,
                                gh_stable_point_check, search_delta_isometries,
                                transport_under_conjugacy, transported_constant,
                                verify_topologically_stable_point)
from pointdyn.errors import PreconditionError, ResourceBudgetError

ID3 = ExplicitSystem(discrete_space(3), (0, 1, 2), name="id3")
R12K3 = build_lattice(12, step=3, name="r12k3")
R12K1 = build_lattice(12, step=1, name="r12k1")
R12K5 = build_lattice(12, step=5, name="r12k5")
D2 = ExplicitSystem(discrete_space(2), (0, 1), name="d2")

NEAR3 = ExplicitSystem(
    FiniteMetricSpace([[F(0), F(1, 100), F(1)],
                       [F(1, 100), F(0), F(1)],
                       [F(1), F(1), F(0)]]),
    (0, 1, 2), name="near3")


def test_conjugacy_with_itself_is_identity_on_orbit():
    res = build_conjugacy(ID3, ID3, 0, F(1, 2), F(1, 2))
    assert res.success and bool(res)
    assert res.residual == 0 and res.mapping == {0: 0}
    assert res.domain == (0,) and res.commutation_ok is True

    res = build_conjugacy(R12K3, R12K3, 0, F(1, 4), F(1, 6), expansivity_c=F(1, 6))
    assert res.success and res.residual == 0
    assert res.mapping == {0: 0, 3: 3, 6: 6, 9: 9}
    assert res.eta == F(1, 6) / 16


def test_conjugacy_enforces_c0_gap():
    # rot1 vs rot3 differ by 2/12 = 1/6 > 1/12
    with pytest.raises(PreconditionError):
        build_conjugacy(R12K1, R12K3, 0, F(1, 4), F(1, 12))
    # at delta = 1/6 the gap is admissible (non-strict) but tracing fails
    res = build_conjugacy(R12K1, R12K3, 0, F(1, 4), F(1, 6))
    assert not res.success and res.failed_step == "shadowing"


def test_enumerate_perturbations_counts():
    fam = enumerate_perturbations(ID3, F(1, 2))
    assert len(fam) == 1 and fam.systems[0].perm == (0, 1, 2)
    assert len(enumerate_perturbations(ID3, 2)) == 6
    with pytest.raises(ResourceBudgetError) as err:
        enumerate_perturbations(ID3, 2, budget=3)
    assert err.value.budget == 3


def test_rotation_perturbation_count_is_lucas_plus_rotations():
    # images u -> 3u + e with |e| <= 1 step, injective mod 12; substituting
    # v = 3u these are permutations of Z_12 moving every point at most one
    # step: matchings of the 12-cycle (Lucas number 322) plus 2 rotations.
    fam = enumerate_perturbations(R12K3, F(1, 12))
    assert len(fam) == 324


def test_stable_point_identity_only():
    fam = enumerate_perturbations(ID3, F(1, 2))
    for x in (0, 1, 2):
        rep = verify_topologically_stable_point(ID3, x, F(1, 2), F(1, 2), fam)
        assert rep.result
        assert len(rep.entries) == 1 and rep.entries[0].status == "ok"


def test_stable_point_skips_far_perturbations():
    fam = enumerate_perturbations(ID3, 2)
    rep = verify_topologically_stable_point(ID3, 0, F(1, 2), F(1, 2), fam)
    assert rep.result
    skipped = [e for e in rep.entries if e.status == "skipped"]
    assert len(skipped) == 5          # non-identity permutations have c0 = 1


def _entry_text(entry):
    parts = [entry.name, entry.status, entry.note]
    res = entry.conjugacy
    if res is not None:
        mapping = "-" if res.mapping is None else " ".join(
            f"{point_label(u)}>{point_label(v)}" for u, v in res.mapping.items())
        residual = "-" if res.residual is None else format_rational(res.residual)
        parts += [" ".join(point_label(u) for u in res.domain), mapping,
                  residual, res.detail]
    return "|".join(parts)


# sha256 of every entry of the Z12 (unit rotation) stable-point reports
# below, recorded before the stability layer moved onto kernel indices.
Z12_STABLE_POINT_PIN = "4ed14ca374d88dbdb91005f879fce6822987cf7e6b1edebae9caede569a2febd"


def test_lattice_against_its_perturbation_family_is_pinned():
    # the family lives on indices, the lattice on its own points: the
    # reports must not depend on how the two are reconciled
    z12 = build_lattice(12, step=1)
    fam = enumerate_perturbations(z12, F(1, 12))
    digest = hashlib.sha256()
    for x in range(12):
        rep = verify_topologically_stable_point(z12, x, F(1, 4), F(1, 12), fam)
        for entry in rep.entries:
            digest.update((_entry_text(entry) + "\n").encode())
    assert digest.hexdigest() == Z12_STABLE_POINT_PIN


def test_torus_against_its_perturbation_family():
    cat5 = bundled_system("cat5")
    fam = enumerate_perturbations(cat5, F(1, 10))
    pts = fam.points
    for x in cat5.points():
        rep = verify_topologically_stable_point(
            cat5, x, F(1, 4), F(1, 10), fam, expansivity_c=F(1, 10))
        ref = verify_topologically_stable_point(
            fam.base, cat5.kernel.index[x], F(1, 4), F(1, 10), fam,
            expansivity_c=F(1, 10))
        assert rep.result == ref.result
        assert [e.status for e in rep.entries] == [e.status for e in ref.entries]
        for got, want in zip(rep.entries, ref.entries):
            assert got.conjugacy.domain == tuple(pts[u] for u in want.conjugacy.domain)
            assert got.conjugacy.domain[0] == x
            assert got.conjugacy.mapping == {
                pts[u]: pts[v] for u, v in want.conjugacy.mapping.items()}


def test_search_delta_isometries():
    s3 = ExplicitSystem(discrete_space(3), (0, 1, 2), name="d3")
    found = search_delta_isometries(s3, D2, F(1, 2))
    assert found.complete and len(found.pairs) == 0

    same = search_delta_isometries(ID3, ID3, F(1, 2))
    assert same.complete and len(same.pairs) == 36
    idpair = [p for p in same.pairs
              if p.i_map == (0, 1, 2) and p.j_map == (0, 1, 2)]
    assert len(idpair) == 1 and idpair[0].score == 0


# -- the delta-isometry search against brute force ------------------------------

# few values, so that distances, their differences and delta tie often
ISO_PALETTE = (F(1), F(3, 2), F(2))


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 3))
    table = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = draw(st.sampled_from(ISO_PALETTE))
    return ExplicitSystem(FiniteMetricSpace(table), tuple(draw(st.permutations(range(n)))))


def brute_force_maps(X, Y, delta):
    """Every map X -> Y with distortion, image density and commutation
    defect all below delta, in the order of itertools.product."""
    src, dst = X.space, Y.space
    found = []
    for m in product(range(dst.n), repeat=src.n):
        comm = max(dst.table[Y.perm[m[u]]][m[X.perm[u]]] for u in range(src.n))
        if (distortion(m, src, dst) < delta
                and hausdorff_distance(dst, set(m), range(dst.n)) < delta
                and comm < delta):
            found.append(m)
    return found


@given(small_systems(), small_systems(), st.data())
def test_isometry_search_matches_brute_force(X, Y, data):
    values = sorted({d for s in (X, Y) for row in s.space.table for d in row})
    values = sorted({abs(a - b) for a in values for b in values} | set(values))
    between = [(a + b) / 2 for a, b in zip(values, values[1:])] + [values[-1] + 1]
    delta = data.draw(st.sampled_from([d for d in values + between if d > 0]))
    want = {(im, jm) for im in brute_force_maps(X, Y, delta)
            for jm in brute_force_maps(Y, X, delta)}
    found = search_delta_isometries(X, Y, delta)
    assert found.complete
    assert len(found.pairs) == len(want)
    assert {(p.i_map, p.j_map) for p in found.pairs} == want
    assert all(p.score < delta for p in found.pairs)
    pair, settled = first_delta_isometry_pair(X, Y, delta)
    assert settled
    assert (pair is None) == (not want)
    assert pair is None or (pair.i_map, pair.j_map) in want


def test_identity_pair_for_close_rotations():
    pair, settled = first_delta_isometry_pair(R12K1, R12K5, F(1, 2))
    assert settled and pair is not None
    assert pair.i_map == tuple(range(12))
    assert pair.score == F(1, 3)
    assert pair.i_distortion == 0 and pair.i_density == 0
    assert pair.i_commutation == F(1, 3) and pair.j_commutation == F(1, 3)
    # clause values agree with the metric-module checker
    Xs, _ = materialize(R12K1)
    Ys, _ = materialize(R12K5)
    ok, _ = is_delta_isometry(tuple(range(12)), Xs.space, Ys.space, F(1, 2))
    assert ok


def test_find_exact_isomorphism():
    assert find_exact_isomorphism(ID3, ID3) == {0: 0, 1: 1, 2: 2}
    s3 = ExplicitSystem(discrete_space(3), (0, 1, 2), name="d3")
    assert find_exact_isomorphism(s3, D2) is None


@pytest.mark.parametrize("delta", (F(0), F(-1), -1))
def test_first_pair_rejects_nonpositive_delta(delta):
    # search_delta_isometries already refused these; the first-pair search
    # once answered (None, True), a complete proof that no pair exists
    for search in (first_delta_isometry_pair, search_delta_isometries):
        with pytest.raises(PreconditionError, match="delta must be positive"):
            search(ID3, ID3, delta)


def test_searches_reject_a_negative_budget():
    nearpair4 = bundled_system("nearpair4")
    # gh_distance_bounds(id3, nearpair4, budget=-5) once bracketed (0, 2)
    calls = (lambda b: gh_distance_bounds(ID3, nearpair4, budget=b),
             lambda b: gh_distance_bounds(ID3, ID3, budget=b),
             lambda b: first_delta_isometry_pair(ID3, nearpair4, F(1, 2), b),
             lambda b: search_delta_isometries(ID3, nearpair4, F(1, 2), b),
             lambda b: enumerate_perturbations(ID3, 2, budget=b))
    for call in calls:
        for budget in (-1, -5):
            with pytest.raises(PreconditionError, match="budget must be nonnegative"):
                call(budget)
    # a zero budget is valid: it allows no search node beyond the first
    assert gh_distance_bounds(ID3, ID3, budget=0) == (0, 0)
    assert first_delta_isometry_pair(ID3, ID3, F(1, 2), 0)[0] is not None
    assert gh_distance_bounds(ID3, nearpair4, budget=0).lower == 0


def test_gh_bounds_self_distance_zero():
    b = gh_distance_bounds(ID3, ID3)
    assert b == (0, 0) and b.complete
    lo, up = b
    assert (lo, up) == (0, 0)


def test_gh_bounds_zero_for_isometric_conjugate():
    relabel = {i: (12 - i) % 12 for i in range(12)}
    assert is_self_isometry(R12K3, relabel)
    twin = conjugate_system(R12K3, relabel, name="r12k3-refl")
    assert find_exact_isomorphism(R12K3, twin) is not None
    assert gh_distance_bounds(R12K3, twin) == (0, 0)


def test_gh_bounds_close_rotations():
    b = gh_distance_bounds(R12K1, R12K5, budget=40000)
    assert b.lower <= b.upper
    assert b.upper <= F(1, 3) + F(1, 128)


def test_gh_bounds_bracket_size_mismatch():
    # 3 points vs 2 points, gap 1 each: any delta <= 1 forces an injective
    # 3->2 map (impossible); delta > 1 admits everything, so d = 1 exactly
    s3 = ExplicitSystem(discrete_space(3), (0, 1, 2), name="d3")
    b = gh_distance_bounds(s3, D2, budget=40000)
    assert b.lower <= 1 <= b.upper


def test_gh_stable_point_basic():
    rep = gh_stable_point_check(ID3, 0, F(1, 2), F(1, 2), [ID3])
    assert rep.result and rep.entries[0].status == "pass"
    assert rep.entries[0].preimages == (0,)


def test_gh_stable_point_skips_uncertified():
    rep = gh_stable_point_check(ID3, 0, F(1, 2), F(1, 2), [D2])
    assert rep.result and rep.entries[0].status == "skipped"
    one = ExplicitSystem(discrete_space(1), (0,), name="one")
    rep2 = gh_stable_point_check(NEAR3, 2, F(1, 2), F(1, 2), [one])
    assert rep2.entries[0].status == "skipped"


def test_gh_stable_point_vacuous_when_j_misses():
    gap23 = discrete_space(3, gap=F(2, 3))
    X23 = ExplicitSystem(gap23, (0, 1, 2), name="x23")
    Y2 = ExplicitSystem(discrete_space(2, gap=F(2, 3)), (0, 1), name="y2")
    pair, _ = first_delta_isometry_pair(X23, Y2, F(3, 4))
    assert pair is not None
    missed = [x for x in range(3) if x not in pair.j_map]
    assert missed
    rep = gh_stable_point_check(X23, missed[0], F(1, 2), F(3, 4), [Y2])
    assert rep.result and rep.entries[0].status == "vacuous"


def test_transport_helpers():
    h = {0: 1, 1: 2, 2: 0}
    assert transport_under_conjugacy(h, {0, 1}) == frozenset({1, 2})
    assert transport_under_conjugacy(lambda p: (p + 1) % 3, {0, 1}) == frozenset({1, 2})


def test_transported_constant():
    assert transported_constant(ID3, {0: 0, 1: 1, 2: 2}, F(1, 2)) == F(1, 2)
    # non-isometric relabel shrinks the constant to below the worst image gap
    assert transported_constant(NEAR3, {0: 0, 1: 2, 2: 1}, F(1, 2)) == F(1, 128)
    with pytest.raises(PreconditionError):
        transported_constant(ID3, {0: 1, 1: 2, 2: 0}, 2)


# sha256 of gh_stable_point_check entries on the finite bundled systems,
# recorded before the GH trace moved onto the shared periodic tracer
GH_STABLE_PIN = "5871477a219951c06beb3aa85497f660344518f7e99d0861bd129fc8526101ad"


def test_gh_stable_entries_are_pinned():
    cases = (("id3", ("id3", "nearpair4", "r6k2")),
             ("nearpair4", ("nearpair4", "id3")), ("r6k2", ("r6k2",)),
             ("r12k1", ("r12k1", "r12k3", "r12k5")),
             ("r12k3", ("r12k1", "r12k3", "r12k5")),
             ("r12k5", ("r12k1", "r12k5")), ("cat5", ("cat5",)))
    digest = hashlib.sha256()
    for name, names in cases:
        f = bundled_system(name)
        candidates = [bundled_system(c) for c in names]
        for x in f.points():
            for eps, delta in ((F(1, 2), F(1, 2)), (F(1, 4), F(1, 3))):
                rep = gh_stable_point_check(f, x, eps, delta, candidates,
                                            budget=20000)
                for e in rep.entries:
                    preimages = " ".join(map(point_label, e.preimages))
                    digest.update(f"{name}|{point_label(x)}|{rep.result}|{e.name}|"
                                  f"{e.status}|{preimages}|{e.detail}\n".encode())
    assert digest.hexdigest() == GH_STABLE_PIN
