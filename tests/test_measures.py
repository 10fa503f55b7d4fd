"""Borel-measure layer: weights, Bernoulli, Phi/Gamma sets, tracking maps."""

import hashlib
from fractions import Fraction as F

import pytest

from pointdyn.bundled import bundled_system
from pointdyn.metric import discrete_space
from pointdyn.rationals import format_rational
from pointdyn.stability import enumerate_perturbations
from pointdyn.systems import (ExplicitSystem, build_explicit, build_lattice,
                              build_shift, build_satellite, c0_distance,
                              materialize, orbit_closure, point_label,
                              Satellite, system_ball)
from pointdyn.shiftspace import parse_ep, pure, ShiftBall
from pointdyn import measures as M
from pointdyn.measures import mu_shadowable_at
from pointdyn.errors import (CarrierMismatchError, MalformedInputError,
                             PreconditionError, UnsupportedBackendError)

from oracles import distance_table, gamma_set, pullback

ID3 = build_explicit(discrete_space(3), (0, 1, 2), name="id3")
R12K3 = build_lattice(12, step=3)
SHIFT2 = build_shift(2)
P01 = pure((0, 1))
P0 = pure((0,))

UNI = M.WeightedMeasure.from_weights({0: 1, 1: 1, 2: 1})
W011 = M.WeightedMeasure.from_weights({0: 0, 1: 1, 2: 1})
BERN = M.WeightedMeasure.from_bernoulli((F(1, 2), F(1, 2)))


def test_measure_constructors_validate():
    assert UNI.total() == 3 and BERN.total() == 1
    with pytest.raises(MalformedInputError):
        M.WeightedMeasure.from_weights({0: 0, 1: 0})
    with pytest.raises(MalformedInputError):
        M.WeightedMeasure.from_bernoulli((F(1, 2), F(1, 3)))
    with pytest.raises(MalformedInputError):
        M.WeightedMeasure.from_weights({0: -1, 1: 2})


def test_pullback_moves_weights():
    w123 = M.WeightedMeasure.from_weights({0: 1, 1: 2, 2: 3})
    assert pullback({0: 0, 1: 1, 2: 2}, w123) == w123
    cyc = pullback({0: 1, 1: 2, 2: 0}, w123)
    assert cyc.weights == {0: 3, 1: 1, 2: 2}
    b13 = M.WeightedMeasure.from_bernoulli((F(1, 3), F(2, 3)))
    assert pullback((1, 0), b13).bernoulli == (F(2, 3), F(1, 3))


def test_measure_of_sets_and_cylinders():
    w123 = M.WeightedMeasure.from_weights({0: 1, 1: 2, 2: 3})
    assert M.measure_of(w123, frozenset({0, 2})) == 4
    assert M.measure_of(BERN, ShiftBall(P01, 2)) == F(1, 8)
    assert M.measure_of(BERN, ShiftBall(P01, 0)) == 1
    assert M.measure_of(BERN, frozenset({P01})) == 0
    assert UNI.total() - M.measure_of(UNI, frozenset({0})) == 2


def test_phi_sets():
    assert M.phi_set(ID3, 0, F(1, 2)) == frozenset({0})
    assert M.phi_set(R12K3, 0, F(1, 12)) == frozenset({11, 0, 1})
    assert M.phi_set(R12K3, 0, F(1, 6)) == frozenset({10, 11, 0, 1, 2})
    assert M.phi_set(SHIFT2, P01, F(1, 2)) == frozenset({P01})
    whole = M.phi_set(SHIFT2, P01, F(1))
    assert isinstance(whole, ShiftBall) and whole.halfwidth == 0


def test_phi_set_on_satellite():
    # Phi-sets are read only under a measure, and the satellite carrier
    # carries none: each point refuses, as measure_of and the mu-checks do
    sat = build_satellite(K=3, t=2, p=P01)
    for x in (Satellite(1, 2, 0), P01):
        with pytest.raises(UnsupportedBackendError,
                           match="no measures are defined on the satellite carrier"):
            M.phi_set(sat, x, F(1, 2))


def test_gamma_sets():
    assert gamma_set(ID3, 0, F(1, 2), 0) == frozenset({0})
    assert gamma_set(R12K3, 0, F(1, 6), 0) == frozenset({11, 0, 1})
    assert gamma_set(SHIFT2, P01, F(1, 2), P01) == frozenset({P01})
    with pytest.raises(PreconditionError):
        gamma_set(R12K3, 0, F(1, 6), 3)  # 3 outside the c-ball of 0


def test_mu_expansivity_classifiers():
    assert M.mu_uniformly_expansive_at(SHIFT2, BERN, P01, F(1, 2)).result is True
    v = M.mu_uniformly_expansive_at(ID3, UNI, 0, F(2))
    assert v.result is False and v.counterexample == (0,)
    assert M.mu_uniformly_expansive_at(ID3, W011, 0, F(1, 2)).result is True
    assert M.mu_expansive_points(ID3, W011, F(1, 2)) == frozenset({0})


def test_expansive_measure_check():
    chk = M.expansive_measure_check(SHIFT2, BERN, F(1, 2), probe={P01, P0})
    assert chk.result is True and chk.failing_point is None
    chk2 = M.expansive_measure_check(ID3, UNI, F(1, 2))
    assert chk2.result is False and chk2.failing_point == 0
    w001 = M.WeightedMeasure.from_weights({0: 0, 1: 0, 2: 1})
    chk3 = M.expansive_measure_check(ID3, w001, F(1, 2))
    assert chk3.result is False and chk3.failing_point == 2
    # one positive atom inside some Phi-set already refutes the property
    chk4 = M.expansive_measure_check(ID3, W011, F(1, 2))
    assert chk4.result is False and chk4.failing_point in (1, 2)


def test_tracking_map_identity():
    H = M.build_tracking_map(ID3, ID3, 0, F(1, 2))
    assert H.images[0] == frozenset({0}) and H.domain == (0,)
    H1 = M.build_tracking_map(ID3, ID3, 0, F(1))
    assert H1.images[0] == frozenset({0, 1, 2})
    assert M.tracking_within_ball(H, ID3)[0]
    assert M.tracking_commutes(H, ID3, ID3)[0]


def test_tracking_map_shift():
    Hs = M.build_tracking_map(SHIFT2, SHIFT2, P01, F(1, 4))
    assert Hs.rule == "identity" and Hs.image_of(P01) == frozenset({P01})
    assert M.tracking_within_ball(Hs, SHIFT2)[0]
    assert M.tracking_commutes(Hs, SHIFT2, SHIFT2)[0]


def test_tracking_map_rotation():
    Hr = M.build_tracking_map(R12K3, R12K3, 0, F(1, 12))
    assert set(Hr.domain) == {0, 3, 6, 9}
    # the eta-tube around the rotating orbit keeps both neighbours
    assert Hr.images[0] == frozenset({11, 0, 1})
    assert M.tracking_commutes(Hr, R12K3, R12K3)[0]


def test_strong_stability_clauses():
    rep_bad = M.verify_strong_mu_topological_stability(ID3, UNI, 0, F(1, 2), F(1, 2), ID3)
    assert rep_bad.result is False
    assert rep_bad.clause("i").result is False
    for name in ("pre:c0", "pre:B", "ii", "iii", "iv", "usc"):
        assert rep_bad.clause(name).result is True

    rep_ok = M.verify_strong_mu_topological_stability(ID3, W011, 0, F(1, 2), F(1, 2), ID3)
    assert rep_ok.result is True

    rep_shift = M.verify_strong_mu_topological_stability(
        SHIFT2, BERN, P01, F(1, 2), F(1, 2), SHIFT2)
    assert rep_shift.result is True


def test_named_measure_errors():
    sat = build_satellite(1, 2, P01)
    half = F(1, 2)
    cases = [
        (lambda: M.WeightedMeasure("weights"), MalformedInputError,
         "weighted measure needs point weights"),
        (lambda: M.WeightedMeasure("bernoulli"), MalformedInputError,
         "Bernoulli measure needs symbol weights"),
        (lambda: M.WeightedMeasure.from_bernoulli((F(0), F(1))), MalformedInputError,
         "Bernoulli weights must be positive"),
        (lambda: M.WeightedMeasure("lebesgue"), MalformedInputError,
         "unknown measure kind 'lebesgue'"),
        (lambda: BERN.weight(P01), UnsupportedBackendError,
         "point weights only exist on finite carriers"),
        (lambda: M.measure_of(BERN, system_ball(sat, P01, half)), UnsupportedBackendError,
         "no measures are defined on the satellite carrier"),
        (lambda: M.measure_of(UNI, ShiftBall(P01, 1)), CarrierMismatchError,
         "shift cylinders need a Bernoulli measure"),
        (lambda: M.measure_of(UNI, orbit_closure(SHIFT2, parse_ep("0~1~0@0"))),
         CarrierMismatchError, "orbit closures need a Bernoulli measure"),
        (lambda: M.measure_of(BERN, [P01, 0]), CarrierMismatchError,
         "0 is not a shift point"),
        (lambda: M.check_measure_backend(sat, BERN), UnsupportedBackendError,
         "no measures are defined on the satellite carrier"),
        (lambda: M.check_measure_backend(SHIFT2, UNI), CarrierMismatchError,
         "the shift carrier needs a Bernoulli measure"),
        (lambda: M.build_tracking_map(sat, sat, P01, half), UnsupportedBackendError,
         "tracking maps are implemented for finite and shift carriers"),
        (lambda: M.build_tracking_map(SHIFT2, SHIFT2, P01, F(1)), UnsupportedBackendError,
         "shift tracking images are only finitely representable below 1"),
        (lambda: M.verify_strong_mu_topological_stability(
            SHIFT2, BERN, P01, half, half, SHIFT2, B=[P01]), UnsupportedBackendError,
         "explicit B sets are only supported on finite carriers"),
        (lambda: M.mu_expansive_points(SHIFT2, BERN, half), PreconditionError,
         "an infinite carrier needs a probe set"),
        (lambda: M.expansive_measure_check(SHIFT2, BERN, half), PreconditionError,
         "an infinite carrier needs a probe set"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message


def test_mass_off_the_carrier_is_refused():
    # all the mass at 99, off id3's carrier, once made every check vacuous:
    # expansive_measure_check and the strong-stability check returned True
    off = M.WeightedMeasure.from_weights({0: 0, 1: 0, 2: 0, 99: 1})
    half = F(1, 2)
    calls = (lambda: M.mu_uniformly_expansive_at(ID3, off, 0, half),
             lambda: M.mu_expansive_points(ID3, off, half),
             lambda: M.expansive_measure_check(ID3, off, half),
             lambda: M.verify_strong_mu_topological_stability(ID3, off, 0, half, half, ID3),
             lambda: mu_shadowable_at(ID3, off, 0, half, half, B=()))
    for call in calls:
        with pytest.raises(PreconditionError, match="99 is not a carrier point"):
            call()
    # the first weighted point off the carrier is the one named
    two_off = M.WeightedMeasure.from_weights({0: 1, 7: 0, 99: 1})
    with pytest.raises(PreconditionError, match="^7 is not a carrier point"):
        M.expansive_measure_check(ID3, two_off, half)


def test_bernoulli_measure_on_a_finite_carrier_is_refused():
    # mu_shadowable_at once read the weights of a Bernoulli measure, which
    # has none, and raised a TypeError; every mu-check now refuses it alike
    half = F(1, 2)
    calls = (lambda: M.mu_uniformly_expansive_at(ID3, BERN, 0, half),
             lambda: M.mu_expansive_points(ID3, BERN, half),
             lambda: M.expansive_measure_check(ID3, BERN, half),
             lambda: M.verify_strong_mu_topological_stability(ID3, BERN, 0, half, half, ID3),
             lambda: mu_shadowable_at(ID3, BERN, 0, half, half, [0, 1, 2]))
    for call in calls:
        with pytest.raises(CarrierMismatchError, match="point-weight measures"):
            call()


def test_partial_point_weights_are_refused():
    # weights at 0 alone once gave answers that hung on the points a check
    # visited: expansive_measure_check returned a verdict and
    # mu_shadowable_at True, while mu_expansive_points raised at 1
    part = M.WeightedMeasure.from_weights({0: 1})
    half = F(1, 2)
    calls = (lambda: M.mu_uniformly_expansive_at(ID3, part, 0, half),
             lambda: M.mu_expansive_points(ID3, part, half),
             lambda: M.expansive_measure_check(ID3, part, half),
             lambda: M.verify_strong_mu_topological_stability(ID3, part, 0, half, half, ID3),
             lambda: mu_shadowable_at(ID3, part, 0, half, half, [0, 1, 2]))
    for call in calls:
        with pytest.raises(CarrierMismatchError, match="^1 carries no weight$"):
            call()
    # mass off the carrier is named before a missing weight
    with pytest.raises(PreconditionError, match="^99 is not a carrier point"):
        M.expansive_measure_check(ID3, M.WeightedMeasure.from_weights({0: 1, 99: 1}), half)


# -- a lattice against perturbations on its indices ---------------------------


def _against_base(f, base, pts, g, x, mu, eps, delta, eta):
    """The tracking-map calls on (f, x) agree with the same calls on the
    index system base at pts.index(x), relabelled through pts."""
    xi = pts.index(x)
    base_mu = M.WeightedMeasure.from_weights(
        {i: mu.weights[p] for i, p in enumerate(pts)})

    def relabel(H):
        return (tuple(pts[u] for u in H.domain),
                {pts[u]: frozenset(pts[z] for z in img)
                 for u, img in H.images.items()})

    H, ref = M.build_tracking_map(f, g, x, eta), M.build_tracking_map(base, g, xi, eta)
    assert (H.domain, H.images) == relabel(ref)
    assert H.domain[0] == x
    assert M.tracking_commutes(H, f, g) == M.tracking_commutes(ref, base, g) \
        == (True, None)
    rep = M.verify_strong_mu_topological_stability(f, mu, x, eps, delta, g)
    want = M.verify_strong_mu_topological_stability(base, base_mu, xi, eps, delta, g)
    assert [(c.name, c.result) for c in rep.clauses] == \
        [(c.name, c.result) for c in want.clauses]
    assert (rep.assignment.domain, rep.assignment.images) == relabel(want.assignment)
    return rep


def test_lattice_against_its_perturbation_family():
    z12 = build_lattice(12, step=1)
    fam = enumerate_perturbations(z12, F(1, 12))
    mu = M.WeightedMeasure.from_weights({p: p % 2 for p in range(12)})
    verdicts = set()
    for g in fam.systems:
        for x in (0, 7):
            rep = _against_base(z12, materialize(z12)[0], fam.points, g, x, mu,
                                F(1, 4), F(1, 12), F(1, 8))
            verdicts.add(rep.result)
    assert verdicts == {True, False}


def test_torus_against_index_perturbations():
    cat5 = bundled_system("cat5")
    k, table = cat5.kernel, distance_table(cat5)
    base, pts = materialize(cat5)
    # cat5 with the images of two points a fifth apart swapped, on indices
    swaps = [(a, b) for a in range(25) for b in range(a + 1, 25)
             if table[k.perm[a]][k.perm[b]] == F(1, 5)][:6]
    perturbations = [ExplicitSystem(base.space, k.perm, name="cat5~same")]
    for a, b in swaps:
        perm = list(k.perm)
        perm[a], perm[b] = perm[b], perm[a]
        perturbations.append(ExplicitSystem(base.space, perm, name=f"cat5~{a}.{b}"))
    mu = M.WeightedMeasure.from_weights({p: p[0] % 2 for p in pts})
    for g in perturbations:
        assert c0_distance(cat5, g) <= F(1, 5)
        for x in ((0, 0), (1, 2), (4, 1)):
            _against_base(cat5, base, pts, g, x, mu, F(1, 2), F(1, 5), F(1, 5))


# sha256 of build_tracking_map(f, f, x, eta) on the finite bundled systems,
# recorded before the tracking map moved onto the shared periodic tracer
TRACKING_PIN = "b059b67a903ebdea13838ee92feb122adc90798eae06fa7ec0b87d4a3219b3ca"


def test_tracking_images_are_pinned():
    digest = hashlib.sha256()
    for name in ("id3", "nearpair4", "r6k2", "r12k1", "r12k3", "r12k5", "cat5"):
        f = bundled_system(name)
        for x in f.points():
            for eta in (F(1, 12), F(1, 5), F(1, 2)):
                H = M.build_tracking_map(f, f, x, eta)
                for u in H.domain:
                    img = " ".join(map(point_label, sorted(H.images[u],
                                                           key=f.kernel.index.get)))
                    digest.update(f"{name}|{point_label(x)}|{format_rational(eta)}|"
                                  f"{point_label(u)}|{img}\n".encode())
    assert digest.hexdigest() == TRACKING_PIN
