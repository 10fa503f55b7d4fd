"""Conjugacy construction, perturbation families, isometry search, GH bounds."""

import hashlib
import inspect
import sys
import time
import tracemalloc
from fractions import Fraction as F
from itertools import permutations, product
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from pointdyn import shadowing, stability
from pointdyn.bundled import bundled_system
from pointdyn.measures import (WeightedMeasure, build_tracking_map,
                               verify_strong_mu_topological_stability)
from pointdyn.metric import FiniteMetricSpace, discrete_space
from pointdyn.rationals import format_rational
from pointdyn.shiftspace import pure
from pointdyn.systems import (ExplicitSystem, FiniteKernel, build_lattice, build_shift,
                              c0_distance, conjugate_system, materialize, point_label)
from pointdyn.stability import (GH_GRID_STEP, _clause_values, _map_search, build_conjugacy,
                                enumerate_perturbations, find_exact_isomorphism,
                                first_delta_isometry_pair, gh_distance_bounds,
                                gh_stable_point_check, transported_constant,
                                verify_topologically_stable_point)
from pointdyn.errors import (CarrierMismatchError, PreconditionError,
                             ResourceBudgetError)

from oracles import (dfs_perturbations, distance_table, distortion,
                     enumerate_pseudo_orbits, hausdorff_distance, is_delta_isometry,
                     is_self_isometry, scan_map_search, traced_stable_point)
from test_theorems import PALETTE, small_systems as census

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


# 0 lies 1/2 from 1 and from 2, which lie 1 apart; V3 is the identity
# and V3_SWAP swaps 1 and 2 (c0 distance 1). At eta 3/4 only 0 traces
# the swap's orbit (1, 2), and the least tracer of 1 under V3 is 0, so
# the semiconjugacy and the GH trace both move 1 by exactly 1/2.
V3 = ExplicitSystem(FiniteMetricSpace([[0, F(1, 2), F(1, 2)], [F(1, 2), 0, 1],
                                       [F(1, 2), 1, 0]]), (0, 1, 2), name="v3")
V3_SWAP = ExplicitSystem(V3.space, (0, 2, 1), name="v3swap")


def test_conjugacy_residual_at_and_beyond_eps():
    at = build_conjugacy(V3, V3_SWAP, 1, F(1, 2), 1, eta=F(3, 4))
    assert at.success and at.mapping == {1: 0, 2: 0}
    assert at.residual == F(1, 2) and type(at.residual) is F
    beyond = build_conjugacy(V3, V3_SWAP, 1, F(1, 3), 1, eta=F(3, 4))
    assert not beyond.success and beyond.failed_step == "residual"
    assert beyond.residual == F(1, 2) and beyond.detail == "sup displacement 1/2 exceeds eps"


def test_gh_trace_refuses_an_image_exactly_eps_from_j():
    rep = gh_stable_point_check(V3, 1, F(1, 2), F(1, 2), [V3], eta=F(3, 4))
    assert not rep.result and rep.entries[0].status == "fail"
    assert rep.entries[0].detail == "1: conjugacy image strays to eps or beyond from j"
    rep = gh_stable_point_check(V3, 1, F(3, 5), F(1, 2), [V3], eta=F(3, 4))
    assert rep.result and rep.entries[0].status == "pass"


def test_conjugacy_enforces_c0_gap():
    # rot1 vs rot3 differ by 2/12 = 1/6 > 1/12
    with pytest.raises(PreconditionError):
        build_conjugacy(R12K1, R12K3, 0, F(1, 4), F(1, 12))
    # at delta = 1/6 the gap is admissible (non-strict) but tracing fails
    res = build_conjugacy(R12K1, R12K3, 0, F(1, 4), F(1, 6))
    assert not res.success and res.failed_step == "shadowing"


def test_a_tracer_that_does_not_close_up_fails_well_definedness():
    # the swap of nearpair4's points 0 and 1, at 1/100, against the identity:
    # the tracer 0 of the fixed point 0 has period 2, not 1
    nearpair4 = bundled_system("nearpair4")
    swap01 = ExplicitSystem(nearpair4.space, (1, 0, 2, 3), name="swap01")
    res = build_conjugacy(swap01, nearpair4, 0, F(1, 2), F(1, 2), eta=F(1, 50))
    assert not res.success and res.failed_step == "well-definedness"
    assert res.domain == (0,) and res.mapping is None
    assert "separate by only 1/100" in res.detail
    rep = verify_topologically_stable_point(swap01, 0, F(1, 2), F(1, 2), [nearpair4],
                                            eta=F(1, 50))
    assert not rep.result
    assert [(e.status, e.note) for e in rep.entries] == [("failed", "well-definedness")]


def test_enumerate_perturbations_counts():
    fam = enumerate_perturbations(ID3, F(1, 2))
    assert len(fam) == 1 and fam.systems[0].perm == (0, 1, 2)
    assert len(enumerate_perturbations(ID3, 2)) == 6
    with pytest.raises(ResourceBudgetError) as err:
        enumerate_perturbations(ID3, 2, budget=3)
    assert err.value.budget == 3


@pytest.mark.parametrize("delta", (-1, 0, F(0)))
def test_enumerate_perturbations_rejects_nonpositive_radius(delta):
    # -1 once gave an empty family, against which every stability verdict
    # held vacuously, and 0 gave the family {f}
    with pytest.raises(PreconditionError, match="perturbation radius must be positive"):
        enumerate_perturbations(bundled_system("id3"), delta)


def test_rotation_perturbation_count_is_lucas_plus_rotations():
    # images u -> 3u + e with |e| <= 1 step, injective mod 12; substituting
    # v = 3u these are permutations of Z_12 moving every point at most one
    # step: matchings of the 12-cycle (Lucas number 322) plus 2 rotations.
    fam = enumerate_perturbations(R12K3, F(1, 12))
    assert len(fam) == 324


# -- the enumerator against brute force --------------------------------------

# distances in [1/2, 1] keep the triangle inequality automatic
EXPLICIT_PALETTE = (F(1, 2), F(5, 8), F(3, 4), F(7, 8), F(1))


@st.composite
def explicit_systems(draw, min_n=2, max_n=6, palette=EXPLICIT_PALETTE):
    n = draw(st.integers(min_n, max_n))
    table = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = draw(st.sampled_from(palette))
    return ExplicitSystem(FiniteMetricSpace(table), tuple(draw(st.permutations(range(n)))),
                          name="rand")


def carrier_radius(data, system):
    """A positive distance value of the carrier, so that the closed
    bound c0 <= delta is hit by some map."""
    values = sorted({d for row in distance_table(system) for d in row if d > 0})
    return data.draw(st.sampled_from(values))


def perturbation_oracle(base, delta):
    """The permutations p of base's carrier with c0_distance(base, p) <=
    delta, in lexicographic order. Each index keeps the images within
    delta of its base image by a Fraction compare on the dist table, and
    itertools.product runs through those ascending lists in order."""
    pts, table = base.points(), distance_table(base)
    n, space = len(pts), materialize(base)[0].space
    images = [[v for v in range(n) if table[pts.index(base.image(p))][v] <= delta]
              for p in pts]
    return [p for p in product(*images) if len(set(p)) == n
            and c0_distance(base, ExplicitSystem(space, p)) <= delta]


def assert_family_is(fam, want):
    assert fam.perms == tuple(want) and len(fam) == len(want)
    assert [g.perm for g in fam.systems] == list(want)
    assert [g.name for g in fam.systems] == [
        f"{fam.base.name}~pert{i}" for i in range(len(want))]
    assert fam.systems is fam.systems            # built once, then kept


@settings(max_examples=60, deadline=None)
@given(explicit_systems(), st.data())
def test_enumerator_matches_permutation_oracle(system, data):
    delta = carrier_radius(data, system)
    want = [p for p in permutations(range(system.space.n))
            if c0_distance(system, ExplicitSystem(system.space, p)) <= delta]
    assert perturbation_oracle(system, delta) == want
    assert_family_is(enumerate_perturbations(system, delta), want)


def memoized_perturbations(system, delta, budget=None):
    fam = enumerate_perturbations(system, delta, budget)
    size = len(fam)             # the DAG's root count: no map is built yet
    assert "perms" not in vars(fam) and len(fam.perms) == size
    return fam.perms, fam.nodes


def family_or_refusal(search, system, delta, budget=None):
    """(perms, nodes) from search, or the refusal's type, message and budget."""
    try:
        return search(system, delta, budget)
    except ResourceBudgetError as err:
        return type(err), str(err), err.budget


def assert_agrees_with_dfs(system, delta):
    """The family and nodes of the plain depth-first search, and its
    refusals at budgets 0, size - 1 and size."""
    want = dfs_perturbations(system, delta)
    assert memoized_perturbations(system, delta) == want
    size = len(want[0])
    for budget in (0, size - 1, size):
        assert family_or_refusal(memoized_perturbations, system, delta, budget) == \
            family_or_refusal(dfs_perturbations, system, delta, budget)


@settings(max_examples=80, deadline=None)
@given(explicit_systems(max_n=7), st.data())
def test_enumerator_agrees_with_the_plain_search(system, data):
    # explicit carriers have dead ends: partial maps the forward check
    # passes that extend to no map, which nodes still counts
    assert_agrees_with_dfs(system, carrier_radius(data, system))


def rotation_and_twin(n, data):
    """Z_n with a drawn unit step, and a transported twin under a drawn
    relabeling (a dict of indices)."""
    units = [k for k in range(1, n) if gcd(k, n) == 1]
    rot = build_lattice(n, step=data.draw(st.sampled_from(units)))
    relabel = dict(enumerate(data.draw(st.permutations(range(n)))))
    return rot, conjugate_system(rot, relabel, name="twin", transport_metric=True), relabel


@settings(max_examples=10, deadline=None)
@given(st.integers(8, 24), st.data())
def test_enumerator_matches_oracle_on_rotations_and_twins(n, data):
    rot, twin, relabel = rotation_and_twin(n, data)
    fams = [enumerate_perturbations(system, F(1, n)) for system in (rot, twin)]
    # the search follows shared targets, so labels do not change its size
    assert fams[1].nodes == fams[0].nodes
    for system in (rot, twin):
        assert_agrees_with_dfs(system, F(1, n))
    if n <= 12:
        # the carrier's least distance 1/n; the next one, 2/n, would make
        # the oracle's product 5^n long
        for fam in fams:
            assert_family_is(fam, perturbation_oracle(fam.base, F(1, n)))
        return
    # past n = 12 the oracle's 3^n product is too long: the twin's family
    # is the lattice's, conjugated by the relabeling and sorted
    inv = {v: k for k, v in relabel.items()}
    want = sorted(tuple(relabel[p[inv[i]]] for i in range(n)) for p in fams[0].perms)
    assert fams[1].perms == tuple(want)


@settings(max_examples=10, deadline=None)
@given(st.integers(3, 12), st.data())
def test_enumeration_refuses_exactly_past_its_budget(n, data):
    rot, twin, _ = rotation_and_twin(n, data)
    for system in (rot, twin):
        size = len(enumerate_perturbations(system, F(1, n)))
        with pytest.raises(ResourceBudgetError):
            enumerate_perturbations(system, F(1, n), budget=size - 1)
        assert len(enumerate_perturbations(system, F(1, n), budget=size)) == size


def paired_carrier(n):
    """n points with the 5 pairs (j, n - 1 - j) at distance 1/4 and 1
    between any other two points; f carries the j-th pair to the next,
    cyclically, and fixes every other point."""
    k = 5
    partner = {j: n - 1 - j for j in range(k)}
    partner.update({v: u for u, v in partner.items()})
    rows = tuple(tuple(0 if u == v else 1 if partner.get(u) == v else 4 for v in range(n))
                 for u in range(n))
    perm = list(range(n))
    for j in range(k):
        perm[j], perm[n - 1 - j] = (j + 1) % k, n - 1 - (j + 1) % k
    return ExplicitSystem(FiniteMetricSpace.from_rows(4, rows), tuple(perm), name=f"pairs{n}")


@pytest.mark.parametrize("n", (256, 257, 260))
def test_enumerator_agrees_with_the_plain_search_across_the_digit_width(n):
    # a map's code holds one byte per image up to n = 256 and two bytes
    # past it: image 256 needs the wider digit
    system = paired_carrier(n)
    pts = system.points()
    twin = conjugate_system(system, dict(zip(pts, Random(n).sample(pts, n))),
                            transport_metric=True)
    delta = F(1, 4)
    for s in (system, twin):
        assert len(enumerate_perturbations(s, delta)) == 32
        assert_agrees_with_dfs(s, delta)
    rows = twin.kernel.within(delta, closed=True)
    order = stability._shared_target_order([rows[v] for v in twin.kernel.perm])
    assert order != list(range(n))


@pytest.mark.parametrize("n", range(3, 17))
def test_enumeration_visits_no_dead_end(n):
    # forward checking: every node the search visits extends to a map
    z = build_lattice(n, step=1)
    fam = enumerate_perturbations(z, F(1, n))
    assert fam.nodes == len({p[:k] for p in fam.perms for k in range(n)})
    assert_agrees_with_dfs(z, F(1, n))


def test_z48_enumeration_refuses_within_its_budget():
    # the budget counts maps, so a search that wanders through dead ends
    # between them can run for minutes before it refuses
    with pytest.raises(ResourceBudgetError) as err:
        enumerate_perturbations(build_lattice(48, step=1), F(1, 48), budget=10 ** 5)
    assert err.value.budget == 10 ** 5


def test_enumeration_refusal_builds_no_map():
    # the plain search held the 10^5 maps it had found, tuples of 48
    # (about 40 MB), when it refused; the count over frontier states
    # refuses before any map is built
    z48 = build_lattice(48, step=1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            enumerate_perturbations(z48, F(1, 48), budget=10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("n", (12, 20, 24, 48))
def test_a_family_is_counted_without_listing(n):
    # on Z_n at delta = 1/n the maps are the matchings of the n-cycle
    # (the Lucas number L_n) and the rotations by +1 and -1
    lattice = build_lattice(n, step=1)
    twin = conjugate_system(lattice, dict(zip(range(n), Random(n).sample(range(n), n))),
                            name="twin", transport_metric=True)
    for system in (lattice, twin):
        tracemalloc.start()
        try:
            fam = enumerate_perturbations(system, F(1, n), budget=10 ** 11)
            size = len(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == lucas(n) + 2 and "perms" not in vars(fam)
        assert peak < 2 ** 20
    assert lucas(48) + 2 == 10_749_957_124


def test_a_len_past_sys_maxsize_is_an_overflow_error():
    # Z96 at delta = 1/96 holds L_96 + 2, about 1.2 * 10^20 maps
    fam = enumerate_perturbations(build_lattice(96, step=1), F(1, 96), budget=10 ** 21)
    assert lucas(96) + 2 > sys.maxsize
    with pytest.raises(OverflowError):
        len(fam)
    assert "perms" not in vars(fam)


def test_a_family_lists_alike_whichever_it_reads_first():
    z12 = build_lattice(12, step=1)
    twin = conjugate_system(z12, dict(zip(range(12), Random(12).sample(range(12), 12))),
                            name="twin", transport_metric=True)
    for system, delta in ((ID3, 2), (z12, F(1, 12)), (twin, F(1, 12)),
                          (bundled_system("cat5"), F(1, 10))):
        counted, listed = (enumerate_perturbations(system, delta) for _ in range(2))
        listed.perms
        assert len(counted) == len(listed) and "perms" not in vars(counted)
        assert counted == listed and hash(counted) == hash(listed)
        assert counted.perms == listed.perms
        assert [g.perm for g in counted.systems] == list(listed.perms)
        built = stability.PerturbationFamily(system, listed.points, listed.perms, listed.nodes)
        assert built == counted and hash(built) == hash(counted)
        assert len(built) == len(counted)
    # repr states the count, so a listed family reads as a counted one
    assert repr(built) == repr(counted)


def test_a_counted_family_compares_and_prints_without_listing():
    # Z48 at delta = 1/48 holds L_48 + 2 = 10 749 957 124 maps: a
    # comparison, hash or repr that listed them would not finish
    z48 = build_lattice(48, step=1)
    a, b = (enumerate_perturbations(z48, F(1, 48), budget=10 ** 11) for _ in range(2))
    started = time.perf_counter()
    assert a == b and hash(a) == hash(b)
    assert "maps=10749957124" in repr(a) and "nodes=" in repr(a)
    assert time.perf_counter() - started < 1
    assert "perms" not in vars(a) and "perms" not in vars(b)
    # families of two bases differ before any map is listed
    z24, other = build_lattice(24, step=1), build_lattice(24, step=1)
    c, d = enumerate_perturbations(z24, F(1, 24)), enumerate_perturbations(other, F(1, 24))
    assert c != d and "perms" not in vars(c) and "perms" not in vars(d)


def test_a_family_built_from_perms_compares_by_its_maps():
    z12 = build_lattice(12, step=1)
    fam = enumerate_perturbations(z12, F(1, 12))
    perms = fam.perms
    built = stability.PerturbationFamily(z12, fam.points, perms, fam.nodes)
    assert built == fam and fam == built and hash(built) == hash(fam)
    # the last map swapped for the first keeps the count but not the family
    swapped = stability.PerturbationFamily(z12, fam.points, perms[:-1] + perms[:1],
                                           fam.nodes)
    assert len(swapped) == len(fam) and swapped != fam and fam != swapped
    assert stability.PerturbationFamily(z12, fam.points, perms[1:], fam.nodes) != fam
    assert stability.PerturbationFamily(z12, fam.points, perms, fam.nodes + 1) != fam


def test_a_family_of_another_map_is_checked_against_f():
    # the family of the rotation by 5 shares Z12's carrier, but none of
    # its maps lies within 1/12 of the rotation by 1: its own bound does
    # not vouch for them against f
    fam = enumerate_perturbations(build_lattice(12, step=5), F(1, 12))
    rep = verify_topologically_stable_point(build_lattice(12, step=1), 0, F(1, 4),
                                            F(1, 12), fam)
    assert [e.status for e in rep.entries] == ["skipped"] * 324
    assert rep.result is True


def test_stable_point_identity_only():
    fam = enumerate_perturbations(ID3, F(1, 2))
    for x in (0, 1, 2):
        rep = verify_topologically_stable_point(ID3, x, F(1, 2), F(1, 2), fam)
        assert rep.result
        assert len(rep.entries) == 1 and rep.entries[0].status == "ok"


def test_stable_point_checks_the_family_carrier():
    with pytest.raises(CarrierMismatchError):
        verify_topologically_stable_point(R12K1, 0, F(1, 4), F(1, 12),
                                          enumerate_perturbations(ID3, F(1, 2)))


def test_symbolic_routes_refuse_another_carrier():
    # a symbolic carrier token fixes the map, so these routes admit only
    # g = f and need no refusal of a C0-distant g of their own
    shift2, half = bundled_system("shift2"), F(1, 2)
    x, mu = pure((0, 1)), WeightedMeasure.from_bernoulli((half, half))
    for g in (build_shift(3), bundled_system("satellite3")):
        calls = (lambda: build_conjugacy(shift2, g, x, half, half),
                 lambda: verify_topologically_stable_point(shift2, x, half, half, [g]),
                 lambda: build_tracking_map(shift2, g, x, F(1, 4)),
                 lambda: verify_strong_mu_topological_stability(shift2, mu, x, half, half, g))
        for call in calls:
            with pytest.raises(CarrierMismatchError, match="^carriers differ: shift2"):
                call()


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
            materialize(cat5)[0], cat5.kernel.index[x], F(1, 4), F(1, 10), fam,
            expansivity_c=F(1, 10))
        assert rep.result == ref.result
        assert [e.status for e in rep.entries] == [e.status for e in ref.entries]
        for got, want in zip(rep.entries, ref.entries):
            assert got.conjugacy.domain == tuple(pts[u] for u in want.conjugacy.domain)
            assert got.conjugacy.domain[0] == x
            assert got.conjugacy.mapping == {
                pts[u]: pts[v] for u, v in want.conjugacy.mapping.items()}


def three_routes(f, x, eps, delta, fam, **kw):
    """The stable-point reports against the family itself, its systems,
    and fresh copies of its maps, which take the per-system route."""
    space = materialize(fam.base)[0].space
    copies = [ExplicitSystem(space, p, name=fam.name(i))
              for i, p in enumerate(fam.perms)]
    return [verify_topologically_stable_point(f, x, eps, delta, maps, **kw)
            for maps in (fam, list(fam.systems), copies)]


def assert_same_reports(reports):
    first = reports[0]
    for rep in reports[1:]:
        assert (rep.result, rep.point, rep.eps, rep.delta) == \
            (first.result, first.point, first.eps, first.delta)
        assert len(rep.entries) == len(first.entries)
        for got, want in zip(rep.entries, first.entries):
            assert got == want


def test_a_lattice_family_builds_no_explicit_system(monkeypatch):
    # the family keeps its input system as base and checks its carrier by
    # token; only reading fam.systems materializes the base, once
    built = []
    init = ExplicitSystem.__init__

    def counted(self, *args, **kw):
        built.append(kw.get("name"))
        init(self, *args, **kw)

    monkeypatch.setattr(ExplicitSystem, "__init__", counted)
    z12 = build_lattice(12, step=1)
    fam = enumerate_perturbations(z12, F(1, 12))
    assert fam.base is z12
    for x in z12.points():
        rep = verify_topologically_stable_point(z12, x, F(1, 4), F(1, 12), fam)
        assert len(rep.entries) == len(fam)
    assert built == []
    fam.systems
    assert len(built) == len(fam) + 1


def test_verify_routes_agree_on_z12():
    z12 = build_lattice(12, step=1)
    fam = enumerate_perturbations(z12, F(1, 12))
    for x in z12.points():
        assert_same_reports(three_routes(z12, x, F(1, 4), F(1, 12), fam))


def test_verify_routes_agree_on_cat5():
    cat5 = bundled_system("cat5")
    fam = enumerate_perturbations(cat5, F(1, 10))
    for x in cat5.points():
        assert_same_reports(three_routes(cat5, x, F(1, 4), F(1, 10), fam,
                                         expansivity_c=F(1, 10)))


@settings(max_examples=40, deadline=None)
@given(explicit_systems(2, 5), st.data())
def test_verify_routes_agree_on_random_systems(f, data):
    fam = enumerate_perturbations(f, carrier_radius(data, f))
    x = data.draw(st.integers(0, f.space.n - 1))
    eps, delta = carrier_radius(data, f), carrier_radius(data, f)
    c = data.draw(st.one_of(st.none(), st.sampled_from(EXPLICIT_PALETTE)))
    assert_same_reports(three_routes(f, x, eps, delta, fam, expansivity_c=c))


@st.composite
def small_carriers(draw):
    """Explicit systems, rotations and their transported twins, small
    enough that a family at the largest distance stays short."""
    kind = draw(st.sampled_from(("explicit", "circle", "twin")))
    if kind == "explicit":
        return draw(explicit_systems(2, 5))
    n = draw(st.integers(2, 6))
    rot = build_lattice(n, step=draw(st.integers(0, n - 1)))
    if kind == "circle":
        return rot
    relabel = dict(enumerate(draw(st.permutations(range(n)))))
    return conjugate_system(rot, relabel, name="twin", transport_metric=True)


@settings(max_examples=40, deadline=None)
@given(small_carriers(), st.data())
def test_verify_skips_exactly_beyond_delta(f, data):
    # delta is one of the carrier's own distances, so some maps sit on the
    # closed bound c0 = delta; the family's own radius, drawn apart, often
    # reaches past delta, so that other maps skip
    fam = enumerate_perturbations(f, carrier_radius(data, f))
    delta = carrier_radius(data, f)
    x = data.draw(st.sampled_from(f.points()))
    rep = verify_topologically_stable_point(f, x, F(1, 2), delta, fam)
    assert len(rep.entries) == len(fam)
    for g, entry in zip(fam.systems, rep.entries):
        gap = c0_distance(f, g)
        if gap > delta:
            assert (entry.status, entry.conjugacy) == ("skipped", None)
            assert entry.note == f"c0 distance {format_rational(gap)} exceeds delta"
        else:
            assert entry.status in ("ok", "failed") and entry.conjugacy is not None
            assert entry.note == ("" if entry.status == "ok"
                                  else entry.conjugacy.failed_step)


def test_stable_point_refuses_a_point_off_the_carrier_without_maps():
    # the point is resolved before the first map, so an empty family, or
    # one whose every map is skipped, cannot pass a point off the carrier
    z12 = build_lattice(12, step=1)
    assert c0_distance(z12, R12K3) == F(1, 6)
    for maps in ([], [R12K3]):
        with pytest.raises(PreconditionError, match="99 is not a carrier point"):
            verify_topologically_stable_point(z12, 99, F(1, 4), F(1, 12), maps)


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_carriers(), explicit_systems(2, 7)), st.data())
def test_stable_point_entries_are_single_map_conjugacies(f, data):
    # each admissible entry is what build_conjugacy gives for its map
    # alone, the maps that share an orbit through x share one result, and
    # the report is the one that traces every orbit gives
    # the lesser of two drawn radii keeps most families short
    fam = enumerate_perturbations(f, min(carrier_radius(data, f), carrier_radius(data, f)))
    assume(len(fam) <= 720)
    x = data.draw(st.sampled_from(f.points()))
    eps, delta = carrier_radius(data, f), carrier_radius(data, f)
    eta = data.draw(st.one_of(st.none(), st.sampled_from(EXPLICIT_PALETTE + (F(1, 100),))))
    c = data.draw(st.one_of(st.none(), st.sampled_from(EXPLICIT_PALETTE)))
    rep = verify_topologically_stable_point(f, x, eps, delta, fam, expansivity_c=c, eta=eta)
    shared = {}
    for g, entry in zip(fam.systems, rep.entries):
        if entry.status == "skipped":
            continue
        assert entry.conjugacy == build_conjugacy(f, g, x, eps, delta,
                                                  expansivity_c=c, eta=eta)
        assert shared.setdefault(entry.conjugacy.domain, entry.conjugacy) is entry.conjugacy
    traced_alike(f, x, eps, delta, fam, expansivity_c=c, eta=eta)


# distances from the explicit palette; under (3 2 1 0) at eta 1 the family
# at 7/8 reaches every verdict a tracer can give
VERDICTS4 = ExplicitSystem(FiniteMetricSpace(
    [[0, F(3, 4), F(5, 8), F(7, 8)], [F(3, 4), 0, F(1, 2), 1],
     [F(5, 8), F(1, 2), 0, F(5, 8)], [F(7, 8), 1, F(5, 8), 0]]), (3, 2, 1, 0), name="v4")


def test_one_family_reaches_every_traced_verdict():
    fam = enumerate_perturbations(VERDICTS4, F(7, 8))
    rep = verify_topologically_stable_point(VERDICTS4, 0, F(1, 2), F(7, 8), fam, eta=1)
    notes = [e.note or e.status for e in rep.entries]
    assert len(notes) == 14 and not rep.result
    assert set(notes) == {"ok", "shadowing", "well-definedness", "residual"}
    for g, entry in zip(fam.systems, rep.entries):
        assert entry.conjugacy == build_conjugacy(VERDICTS4, g, 0, F(1, 2), F(7, 8), eta=1)


def test_a_tracer_path_off_the_f_orbit_fails_commutation(monkeypatch):
    # a path laid along the tracer's cycle always commutes, so the
    # commutation check is reached only by a tracer that misreports its path
    k = R12K1.kernel
    trace = k.trace_cycle

    def reversed_path(*args, **kw):
        found, z, path = trace(*args, **kw)
        return found, z, path and path[::-1]

    monkeypatch.setattr(k, "trace_cycle", reversed_path)
    rep = verify_topologically_stable_point(R12K1, 0, F(1, 4), F(1, 12), [R12K1, R12K1])
    first, second = rep.entries
    assert (first.status, first.note) == ("failed", "commutation")
    assert first.conjugacy is second.conjugacy
    assert first.conjugacy.commutation_ok is False


def test_stable_point_traces_each_orbit_through_x_once(monkeypatch):
    # Z12 at 1/12 has 324 maps and 234 distinct orbits through 0; eta =
    # 1/64 lies below every distance, so the one tracer candidate is 0,
    # and only the 3 orbits that its f-orbit follows reach the tracer scan
    traced = []
    scan = FiniteKernel._tracing_classes

    def counted(self, window, near):
        traced.append(tuple(window))
        return scan(self, window, near)

    z12 = build_lattice(12, step=1)
    fam = enumerate_perturbations(z12, F(1, 12))
    monkeypatch.setattr(FiniteKernel, "_tracing_classes", counted)
    rep = verify_topologically_stable_point(z12, 0, F(1, 4), F(1, 12), fam)
    assert len(rep.entries) == 324
    assert len(traced) == len(set(traced)) == 3
    assert len({id(e.conjugacy) for e in rep.entries}) == 234


def traced_alike(f, x, eps, delta, fam, **kw) -> tuple:
    """(refused, traced): the distinct admissible g-orbits of x that the
    verifier refuses before trace_cycle, and those it traces. Its report
    must equal the oracle's, which traces every orbit, and no refused
    orbit may have a tracer."""
    k = f.kernel
    trace, scanned = k.trace_cycle, set()

    def recorded(window, *args, **kwargs):
        scanned.add(tuple(window))
        return trace(window, *args, **kwargs)

    k.trace_cycle = recorded
    try:
        rep = verify_topologically_stable_point(f, x, eps, delta, fam, **kw)
    finally:
        del k.trace_cycle
    assert rep == traced_stable_point(f, x, eps, delta, fam, **kw)
    xi, orbits = k.index[x], {}
    for perm, entry in zip(fam.perms, rep.entries):
        if entry.status != "skipped":
            orb, u = [xi], perm[xi]
            while u != xi:
                orb.append(u)
                u = perm[u]
            orbits[tuple(orb)] = entry.conjugacy
    refused = orbits.keys() - scanned
    for orb in refused:
        assert orbits[orb].failed_step == "shadowing"
        assert trace(orb, orbits[orb].eta) == ([], None, None)
    return len(refused), len(orbits) - len(refused)


def test_candidate_walks_agree_with_tracing_on_the_census():
    # the n <= 3 census at the verifier's eta = min(eps, c)/16 and at two
    # wider schedules, where perturbations move x's orbit and reach the
    # tracer scan
    scales = {(eps, eta) for c, eps in product(PALETTE, PALETTE)
              for eta in (min(eps, c) / 16, min(eps, c), min(eps, 2 * c))}
    refused = traced = 0
    for f in census():
        for delta in PALETTE:
            fam = enumerate_perturbations(f, delta)
            for x, (eps, eta) in product(f.points(), scales):
                got = traced_alike(f, x, eps, delta, fam, eta=eta)
                refused, traced = refused + got[0], traced + got[1]
    assert (len(scales), refused, traced) == (12, 24980, 34744)


def test_candidate_walks_agree_with_tracing_on_z12_and_its_twin():
    z12 = build_lattice(12, step=1)
    pts = z12.points()
    twin = conjugate_system(z12, dict(zip(pts, Random(12).sample(pts, 12))),
                            name="z12-twin", transport_metric=True)
    counts = []
    for f in (z12, twin):
        fam = enumerate_perturbations(f, F(1, 12))
        counts.append({traced_alike(f, x, F(1, 4), F(1, 12), fam) for x in f.points()})
    assert counts == [{(231, 3)}, {(231, 3)}]


def test_search_delta_isometries():
    s3 = ExplicitSystem(discrete_space(3), (0, 1, 2), name="d3")
    assert first_delta_isometry_pair(s3, D2, F(1, 2)) == (None, True)
    # id3 against itself: the scan lists its 6 permutations, the first pair is the identity
    maps, done, _ = scan_map_search(ID3.kernel, ID3.kernel, F(1, 2), False, sys.maxsize)
    assert done and sorted(maps) == sorted(permutations(range(3)))
    pair, settled = first_delta_isometry_pair(ID3, ID3, F(1, 2))
    assert settled and pair.i_map == pair.j_map == (0, 1, 2) and pair.score == 0


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
    fk, gk = X.kernel, Y.kernel
    i_want, j_want = brute_force_maps(X, Y, delta), brute_force_maps(Y, X, delta)
    want = set(product(i_want, j_want))
    # the scan run to the end lists every map both ways, so every pair
    i_maps, i_done, _ = scan_map_search(fk, gk, delta, False, sys.maxsize)
    j_maps, j_done, _ = scan_map_search(gk, fk, delta, False, sys.maxsize)
    assert i_done and j_done
    assert (sorted(i_maps), sorted(j_maps)) == (i_want, j_want)
    assert all(max(_clause_values(m, fk, gk)) < delta for m in i_maps)
    assert all(max(_clause_values(m, gk, fk)) < delta for m in j_maps)
    # the library's search stops at the least map in the order of X's cycles
    order = [i for cyc in fk.cycles for i in cyc]
    least = min(i_want, key=lambda m: [m[i] for i in order], default=None)
    assert _map_search(fk, gk, delta, False, sys.maxsize) == (least, True)
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



# -- the delta-map search against the point-by-point scan ---------------------


def budgets_through(nodes, most):
    """Every budget from 0 to nodes + 1, or most budgets spread evenly
    over that range together with its last three when it is longer."""
    if nodes + 2 <= most:
        return range(nodes + 2)
    return sorted({*range(0, nodes + 2, -(-(nodes + 2) // most)), nodes - 1, nodes, nodes + 1})


def scan_first(fk, gk, delta, closed, budget):
    """(first map or None, complete, nodes) of the scan stopped at one map."""
    maps, done, nodes = scan_map_search(fk, gk, delta, closed, budget, 1)
    return (maps[0] if maps else None), done, nodes


def assert_search_matches_scan(fk, gk, delta, closed, budget, work):
    """_map_search and the scan agree at budget and at the budgets from 0
    to the node count where the scan stops under budget, plus one: every
    one of them, or when nodes * nodes exceeds work about work // nodes
    of them (16 at least), so that both searches visit about work nodes."""
    nodes = scan_first(fk, gk, delta, closed, budget)[2]
    for b in {budget, *budgets_through(nodes, max(16, work // (nodes + 2)))}:
        assert _map_search(fk, gk, delta, closed, b) == \
            scan_first(fk, gk, delta, closed, b)[:2], b


@settings(max_examples=60, deadline=None)
@given(explicit_systems(1, 6), explicit_systems(1, 6), st.data())
def test_map_search_matches_the_scan_at_every_budget(X, Y, data):
    # the same maps in the same order, and the same cut at each budget,
    # pins the positional node count; above about 300 nodes the budgets
    # are spread over the range, since a drawn pair can have 6^6 maps
    values = sorted({d for s in (X, Y) for row in distance_table(s) for d in row})
    delta = data.draw(st.sampled_from(values + [v + F(1, 1000) for v in values]))
    closed = data.draw(st.booleans())
    assert_search_matches_scan(X.kernel, Y.kernel, delta, closed, sys.maxsize, 10 ** 5)


def test_map_search_matches_the_scan_on_benchmark_pairs(monkeypatch):
    # every search gh_distance_bounds makes on the Z16 to Z24 rotation
    # pairs and on cat5 against Z25 step 7 at budget 5 * 10**4, and the
    # exact search on a Z36 twin, each at its own budget
    calls, search = [], stability._map_search

    def recorded(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(stability, "_map_search", recorded)
    for n in (16, 18, 20, 24):
        for a, b in ((1, 5), (1, 7), (5, 7)):
            if gcd(a, n) == gcd(b, n) == 1:
                gh_distance_bounds(build_lattice(n, step=a), build_lattice(n, step=b))
    cat5, z25 = bundled_system("cat5"), build_lattice(25, step=7)
    assert not gh_distance_bounds(cat5, z25, budget=5 * 10 ** 4).complete
    z36 = build_lattice(36, step=1)
    twin = conjugate_system(z36, dict(zip(z36.points(), Random(36).sample(z36.points(), 36))),
                            transport_metric=True)
    assert find_exact_isomorphism(z36, twin) is not None
    assert len(calls) == 38 and calls[-1][2:] == (0, True, sys.maxsize)
    for fk, gk, delta, closed, budget in calls[:-1]:
        assert_search_matches_scan(fk, gk, delta, closed, budget, 0)
    assert_search_matches_scan(*calls[-1], 10 ** 6)


# -- clause values against the metric module ----------------------------------


def fraction_clauses(m, X, Y):
    """The clause values of m: X -> Y by the Fraction route on the
    systems' dist tables."""
    fk, gk = X.kernel, Y.kernel
    src, dst = (FiniteMetricSpace(distance_table(s)) for s in (X, Y))
    comm = max(dst.table[gk.perm[m[u]]][m[fk.perm[u]]] for u in range(src.n))
    return (distortion(m, src, dst), hausdorff_distance(dst, set(m), range(dst.n)),
            comm)


# distances in [a, 2a] keep the triangle inequality automatic; the two
# palettes have coprime denominators
THIRDS = (F(2, 3), F(1), F(4, 3))
FIFTHS = (F(3, 5), F(4, 5), F(6, 5))


@st.composite
def clause_pairs(draw):
    """Two finite systems: explicit ones of different sizes on coprime
    denominators, rotations, a cat map against a rotation, or a system
    and a relabeled twin of it (metric transported or kept)."""
    kind = draw(st.sampled_from(("explicit", "rotations", "cat", "twin")))
    if kind == "explicit":
        X, Y = (draw(explicit_systems(1, 6, palette)) for palette in (THIRDS, FIFTHS))
        assume(X.space.n != Y.space.n)
        return X, Y
    if kind == "twin":
        X = draw(explicit_systems(1, 6, THIRDS))
        pts = X.points()
        return X, conjugate_system(X, dict(zip(pts, draw(st.permutations(pts)))),
                                   transport_metric=draw(st.booleans()))
    Y = build_lattice(draw(st.integers(2, 16)), step=draw(st.integers(0, 15)))
    if kind == "cat":
        X = build_lattice(draw(st.integers(3, 6)), kind="torus", matrix=(2, 1, 1, 1))
    else:
        X = build_lattice(draw(st.integers(2, 16)), step=draw(st.integers(0, 15)))
    return (X, Y) if draw(st.booleans()) else (Y, X)


@settings(max_examples=80, deadline=None)
@given(clause_pairs(), st.data())
def test_clause_values_match_the_fraction_route(pair, data):
    X, Y = pair
    n, m = len(X.kernel.pts), len(Y.kernel.pts)
    mp = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    got = _clause_values(mp, X.kernel, Y.kernel)
    assert all(type(v) is F for v in got)
    assert got == fraction_clauses(mp, X, Y)


def test_clause_values_read_only_integer_rows():
    X, Y = build_lattice(16, step=3), build_lattice(5, kind="torus", matrix=(2, 1, 1, 1))
    mp = (0, 1, 2) * 5 + (24,)
    got = _clause_values(mp, X.kernel, Y.kernel)
    for k in (X.kernel, Y.kernel):      # a kernel has no Fraction table to read
        assert not {"table", "explicit", "system", "_explicit"} & set(dir(k))
    assert got == fraction_clauses(mp, X, Y)


def test_find_exact_isomorphism():
    assert find_exact_isomorphism(ID3, ID3) == {0: 0, 1: 1, 2: 2}
    s3 = ExplicitSystem(discrete_space(3), (0, 1, 2), name="d3")
    assert find_exact_isomorphism(s3, D2) is None


def test_searches_place_a_carrier_past_the_recursion_limit():
    # both searches once recursed once per carrier point, so a carrier of
    # about 1 000 points ended in a RecursionError
    n = 1100
    assert sys.getrecursionlimit() < n
    z = build_lattice(n, step=1)
    assert find_exact_isomorphism(z, z) == {p: p for p in z.kernel.pts}
    fam = enumerate_perturbations(z, F(1, 2 * n))
    assert fam.perms == (tuple(z.kernel.perm),) and fam.nodes == n


def test_map_search_keeps_no_placed_list_per_slot():
    # each suspended slot once kept its own list of (image, distance)
    # pairs for the points placed before it: O(n^2) tuples, a 38 MB peak
    # on two 1 100-point circles; a slot now keeps one candidate mask
    X, Y = build_lattice(1100, step=1), build_lattice(1100, step=1)
    for k in (X.kernel, Y.kernel):
        k.scaled(k.denominator), k.cycles
    tracemalloc.start()
    try:
        assert gh_distance_bounds(X, Y) == (0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("delta", (F(0), F(-1), -1))
def test_first_pair_rejects_nonpositive_delta(delta):
    # the first-pair search once answered (None, True), a complete proof
    # that no pair exists
    with pytest.raises(PreconditionError, match="delta must be positive"):
        first_delta_isometry_pair(ID3, ID3, delta)


def budgeted_calls():
    """Each budgeted entry point, called with the budget b."""
    nearpair4 = bundled_system("nearpair4")
    # gh_distance_bounds(id3, nearpair4, budget=-5) once bracketed (0, 2)
    return (lambda b: gh_distance_bounds(ID3, nearpair4, budget=b),
            lambda b: gh_distance_bounds(ID3, ID3, budget=b),
            lambda b: first_delta_isometry_pair(ID3, nearpair4, F(1, 2), b),
            lambda b: first_delta_isometry_pair(ID3, ID3, F(1, 2), b),
            lambda b: enumerate_perturbations(ID3, 2, budget=b),
            lambda b: enumerate_perturbations(R12K1, F(1, 12), budget=b),
            # this once skipped the budget check on an empty candidate list
            # and reported result=True
            lambda b: gh_stable_point_check(ID3, 0, F(1, 2), F(1, 2), [], b),
            # these once counted 81 windows first and refused them as over
            # the budget, a ResourceBudgetError (exit 3) for a bad input
            lambda b: shadowing.shadowable_windowed(R12K3, 0, F(1, 4), F(1, 6), 2,
                                                    budget=b),
            lambda b: enumerate_pseudo_orbits(R12K3, 0, F(1, 6), 2, budget=b))


def test_searches_reject_a_negative_budget():
    nearpair4 = bundled_system("nearpair4")
    for call in budgeted_calls():
        for budget in (-1, -5):
            with pytest.raises(PreconditionError, match="budget must be nonnegative"):
                call(budget)
    # a zero budget is valid: it allows no search node beyond the first
    assert gh_distance_bounds(ID3, ID3, budget=0) == (0, 0)
    assert first_delta_isometry_pair(ID3, ID3, F(1, 2), 0)[0] is not None
    assert gh_distance_bounds(ID3, nearpair4, budget=0).lower == 0


@pytest.mark.parametrize("budget", (F(3, 2), 1.5, 2.0, 0.5, True, False, "10", [3]))
def test_searches_refuse_a_budget_that_is_not_an_int(budget):
    # the enumerator on Z12 once searched under budget 1.5 and refused with
    # "more than 1.5 admissible perturbations"; True, 3/2 and 2.0 were
    # taken as budgets, "10" raised a bare TypeError and
    # gh_distance_bounds(f, f, budget=0.5) ran
    for call in budgeted_calls():
        with pytest.raises(PreconditionError, match="budget must be an integer"):
            call(budget)
    # the exact search is unbudgeted, so it has no budget to refuse
    assert "budget" not in inspect.signature(find_exact_isomorphism).parameters


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
    # the exact search runs without a budget, so a zero budget still
    # finds the isomorphism
    for budget in (None, 0):
        assert gh_distance_bounds(R12K3, twin, budget) == (0, 0)


def test_gh_bounds_hash_as_the_pair_they_compare_as():
    # equality reads (lower, upper) only; the hash once covered all four
    # fields, so a set kept two equal bounds
    a, b = stability.GHBounds(0, 1, True, None), stability.GHBounds(0, 1, False, None)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a == (0, 1) and hash(a) == hash((0, 1)) and (0, 1) in {a}
    assert a != stability.GHBounds(0, 2, True, None) and a != (0, 1, True)


def test_gh_bounds_close_rotations():
    b = gh_distance_bounds(R12K1, R12K5, budget=40000)
    assert b.lower <= b.upper
    assert b.upper <= F(1, 3) + F(1, 128)


def test_gh_search_reads_each_kernel_at_one_scale_per_pair():
    # the map search compares delta with the rows at lcm(D_f, D_g), which
    # _clause_values reads too; once it rescaled both tables per bisection
    # delta (14 tables left on the Z20 pair, 9 on cat5 against Z25)
    for X, Y, budget in ((build_lattice(20, step=1), build_lattice(20, step=7), None),
                         (bundled_system("cat5"), build_lattice(25, step=7), 5 * 10 ** 4)):
        gh_distance_bounds(X, Y, budget=budget)
        S = lcm(X.kernel.denominator, Y.kernel.denominator)
        for k in (X.kernel, Y.kernel):
            assert {key[1] for key in k._views if key[0] == "scaled"} <= {k.denominator, S}


def test_gh_bisection_searches_each_integer_bound_once(monkeypatch):
    # Z20 step 1 against step 7: the midpoints 273/1024, 585/2048,
    # 1209/4096 and 2457/8192 all meet the rows at bound 5/20, and each
    # once ran the same exhaustive search, which found no pair
    X, Y = build_lattice(20, step=1), build_lattice(20, step=7)
    bounds = []
    search = stability.first_delta_isometry_pair

    def counted(X, Y, delta, budget=None):
        bounds.append(stability.floor_scaled(delta, 20, False))
        return search(X, Y, delta, budget)

    monkeypatch.setattr(stability, "first_delta_isometry_pair", counted)
    b = gh_distance_bounds(X, Y)
    assert (b.lower, b.upper, b.complete) == (F(2457, 8192), F(39, 128), True)
    assert len(bounds) == len(set(bounds)) == 4


def test_gh_bounds_bracket_size_mismatch():
    # 3 points vs 2 points, gap 1 each: any delta <= 1 forces an injective
    # 3->2 map (impossible); delta > 1 admits everything, so d = 1 exactly
    s3 = ExplicitSystem(discrete_space(3), (0, 1, 2), name="d3")
    b = gh_distance_bounds(s3, D2, budget=40000)
    assert b.lower <= 1 <= b.upper


# sha256 of gh_distance_bounds on three bundled pairs at four budgets:
# lower, upper, complete and the witness's six clause values, recorded
# before the clause values moved onto the kernels' integer rows
GH_BOUNDS_PIN = "11b1f04cfe86a5b33c529ba188781781403ec783c86b5c53ab985394f5aba2d5"


def test_gh_bounds_are_pinned():
    digest = hashlib.sha256()
    for a, b in (("r12k1", "r12k5"), ("cat5", "r12k3"), ("id3", "nearpair4")):
        for budget in (50, 10 ** 3, 2 * 10 ** 4, None):
            r = gh_distance_bounds(bundled_system(a), bundled_system(b), budget)
            w = r.witness
            values = () if w is None else (
                w.i_distortion, w.i_density, w.i_commutation,
                w.j_distortion, w.j_density, w.j_commutation)
            line = " ".join([a, b, str(budget), format_rational(r.lower),
                             format_rational(r.upper), str(r.complete)]
                            + [format_rational(v) for v in values])
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GH_BOUNDS_PIN


def test_gh_bounds_leave_the_grid():
    # bisection midpoints halve the first grid point above a score, so
    # neither bound need be a multiple of GH_GRID_STEP
    one = ExplicitSystem(discrete_space(1), (0,), name="one")
    b = gh_distance_bounds(one, ID3)
    assert (b.lower, b.upper, b.complete) == (F(16383, 16384), F(32895, 32768), True)
    assert b.witness.score == 1


@settings(max_examples=40, deadline=None)
@given(explicit_systems(1, 4), explicit_systems(1, 4))
def test_complete_gh_bounds_close_within_a_grid_step(X, Y):
    b = gh_distance_bounds(X, Y, budget=20000)
    assert b.lower <= b.upper
    if b.witness is None:
        assert (b.lower, b.upper) == (0, 0) or not b.complete
        return
    assert b.witness.score < b.upper
    if b.complete:
        assert b.upper - b.lower <= GH_GRID_STEP


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


def test_transported_constant():
    assert transported_constant(ID3, {0: 0, 1: 1, 2: 2}, F(1, 2)) == F(1, 2)
    # non-isometric relabel shrinks the constant to below the worst image gap
    assert transported_constant(NEAR3, {0: 0, 1: 2, 2: 1}, F(1, 2)) == F(1, 128)
    with pytest.raises(PreconditionError):
        transported_constant(ID3, {0: 1, 1: 2, 2: 0}, 2)


@pytest.mark.parametrize("h, c, match", (
    ({i: 0 for i in range(12)}, F(1, 12), "merges"),   # once ValueError: need a positive bound
    ({0: 1}, F(1, 12), "misses 1"),                     # once a bare KeyError
    ({0: 1}, 1, "misses 1"),            # no pair separates beyond 1; every point counts
    ({i: i + 12 for i in range(12)}, F(1, 12), "12 is not a carrier point"),  # once 1/8
    ({i: i for i in range(12)}, 0, "expansivity constant must be positive"),  # once 1/16
    ({i: i for i in range(12)}, F(-1, 2), "expansivity constant must be positive"),
), ids=("merge", "partial", "partial-unseparated", "off-carrier", "zero", "negative"))
def test_transported_constant_needs_a_map_of_the_carrier(h, c, match):
    with pytest.raises(PreconditionError, match=match):
        transported_constant(R12K3, h, c)


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
