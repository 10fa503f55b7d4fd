"""Exact measure layer: weighted measures, separation sets, tracking maps.

Finite carriers take nonnegative rational point weights (zero weights
standing in for null structure, since finite measures cannot be
non-atomic); the shift carrier takes Bernoulli product measures with
positive rational symbol weights, which are genuinely non-atomic. All
values are exact rationals.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import (CarrierMismatchError, MalformedInputError, PointdynError,
                     PreconditionError, UnsupportedBackendError)
from .expansivity import ExpansivityVerdict
from .rationals import ONE, ZERO, as_rational, format_rational, positive
from .shadowing import shadowable_exact_points
from .shiftspace import EPPoint, ShiftBall
from .systems import (SatelliteBall, ShiftOrbitClosure, c0_distance, check_carrier,
                      members, orbit_closure, point_index, point_label,
                      sorted_points, system_ball)


class WeightedMeasure:
    """Per-point rational weights (finite) or a Bernoulli vector (shift)."""

    def __init__(self, kind, *, weights=None, bernoulli=None):
        if kind == "weights":
            if not weights:
                raise MalformedInputError("weighted measure needs point weights")
            self.weights = {p: as_rational(w) for p, w in dict(weights).items()}
            if any(w < 0 for w in self.weights.values()):
                raise MalformedInputError("weights must be nonnegative")
            if sum(self.weights.values()) <= 0:
                raise MalformedInputError("measure must be nontrivial (total > 0)")
            self.bernoulli = None
        elif kind == "bernoulli":
            if not bernoulli:
                raise MalformedInputError("Bernoulli measure needs symbol weights")
            self.bernoulli = tuple(as_rational(w) for w in bernoulli)
            if any(w <= 0 for w in self.bernoulli):
                raise MalformedInputError("Bernoulli weights must be positive")
            if sum(self.bernoulli) != 1:
                raise MalformedInputError("Bernoulli weights must sum to 1")
            self.weights = None
        else:
            raise MalformedInputError(f"unknown measure kind {kind!r}")
        self.kind = kind

    @classmethod
    def from_weights(cls, weights):
        return cls("weights", weights=weights)

    @classmethod
    def from_bernoulli(cls, params):
        return cls("bernoulli", bernoulli=params)

    def total(self) -> Fraction:
        if self.kind == "weights":
            return sum(self.weights.values(), ZERO)
        return ONE

    def weight(self, point) -> Fraction:
        if self.kind != "weights":
            raise UnsupportedBackendError("point weights only exist on finite carriers")
        try:
            return self.weights[point]
        except KeyError:
            raise CarrierMismatchError(
                f"{point_label(point)} carries no weight") from None

    def __eq__(self, other):
        if not isinstance(other, WeightedMeasure):
            return NotImplemented
        return (self.kind == other.kind and self.weights == other.weights
                and self.bernoulli == other.bernoulli)

    def __repr__(self):
        if self.kind == "weights":
            body = ", ".join(f"{point_label(p)}: {format_rational(w)}"
                             for p, w in sorted(self.weights.items(),
                                                key=lambda kv: point_label(kv[0])))
            return f"WeightedMeasure(weights={{{body}}})"
        body = ", ".join(map(format_rational, self.bernoulli))
        return f"WeightedMeasure(bernoulli=({body}))"


_NO_SATELLITE_MEASURES = "no measures are defined on the satellite carrier"


def measure_of(mu: WeightedMeasure, subset) -> Fraction:
    """Exact measure of a finite point set, shift cylinder, or orbit closure."""
    if isinstance(subset, SatelliteBall):
        raise UnsupportedBackendError(_NO_SATELLITE_MEASURES)
    if isinstance(subset, ShiftBall):
        if mu.kind != "bernoulli":
            raise CarrierMismatchError("shift cylinders need a Bernoulli measure")
        value = ONE
        for i in subset.fixed_positions():
            value *= mu.bernoulli[subset.center.value(i)]
        return value
    if isinstance(subset, ShiftOrbitClosure):
        if mu.kind != "bernoulli":
            raise CarrierMismatchError("orbit closures need a Bernoulli measure")
        return ZERO  # countable set, atomless measure
    if mu.kind == "bernoulli":
        for p in subset:
            if not isinstance(p, EPPoint):
                raise CarrierMismatchError(
                    f"{point_label(p)} is not a shift point")
        return ZERO  # finitely many atoms of an atomless measure
    return sum((mu.weight(p) for p in subset), ZERO)


def carrier_set(system, points) -> frozenset:
    """points as a set of the finite carrier's points; PreconditionError
    names the first point off the carrier, in the order points come."""
    points = dict.fromkeys(points)
    for p in points:
        point_index(system, p)
    return frozenset(points)


def _full_measure_part(system, mu, B):
    """B as a set of the finite carrier's points (the whole carrier when B
    is None) and the mu-measure of its complement."""
    carrier = frozenset(system.kernel.pts)
    B = carrier if B is None else carrier_set(system, B)
    return B, measure_of(mu, carrier - B)


# -- separation sets -------------------------------------------------------


def phi_set(system, x, c):
    """Points never separating from x beyond c: {y : sup_n d(f^n x, f^n y) <= c}.
    Phi-sets matter only under a measure, so the satellite carrier, which
    carries none, refuses."""
    c = positive(c, "expansivity constant")
    if system.finite:
        k = system.kernel
        return frozenset(k.pts[j] for j in members(k.inseparable(c)[point_index(system, x)]))
    if system.backend == "satellite":
        raise UnsupportedBackendError(_NO_SATELLITE_MEASURES)
    if c < 1:
        return frozenset([x])  # any disagreement reaches distance 1
    return ShiftBall(x, 0)


# -- pointwise mu-expansivity ----------------------------------------------


def check_measure_backend(system, mu):
    """The check every mu-check makes first: a finite carrier takes point
    weights with no mass off it and a weight at each of its points, the
    shift a Bernoulli measure, and the satellite carrier none."""
    if system.finite and mu.kind != "weights":
        raise CarrierMismatchError("finite carriers need point-weight measures")
    if system.finite:
        carrier_set(system, mu.weights)     # mass off it makes each check vacuous
        for p in system.kernel.pts:         # else only checks that visit p fail
            mu.weight(p)
    else:
        if system.backend != "shift":
            raise UnsupportedBackendError(_NO_SATELLITE_MEASURES)
        if mu.kind != "bernoulli":
            raise CarrierMismatchError("the shift carrier needs a Bernoulli measure")


def mu_uniformly_expansive_at(system, mu, x, c) -> ExpansivityVerdict:
    """Every z in B(x, c) has a mu-null set of c-inseparable ball companions."""
    c = positive(c, "expansivity constant")
    check_measure_backend(system, mu)
    if system.finite:
        found = _massive_companions(system, mu, x, c)
        if found is None:
            return ExpansivityVerdict(x, c, "mu_uniform", True)
        z, mass = found
        return ExpansivityVerdict(
            x, c, "mu_uniform", False, counterexample=(z,),
            detail=f"gamma set of {point_label(z)} has measure {format_rational(mass)}")
    if c < 1:
        return ExpansivityVerdict(
            x, c, "mu_uniform", True,
            detail="every gamma set is a single point, null under Bernoulli")
    return ExpansivityVerdict(
        x, c, "mu_uniform", False, counterexample=(x,),
        detail="the gamma set of the centre is a cylinder of positive measure")


def _massive_companions(system, mu, x, c):
    """(z, mass) for the first z of the open ball B(x, c) on a finite
    carrier whose companions in the ball, the y with sup-separation from z
    at most c, carry mass under mu; None when all of them are mu-null.
    One scan of the kernel rows within(c)[x] and inseparable(c)."""
    k = system.kernel
    ball, rows = k.within(c)[point_index(system, x)], k.inseparable(c)
    for z in members(ball):
        mass = measure_of(mu, [k.pts[y] for y in members(rows[z] & ball)])
        if mass != 0:
            return k.pts[z], mass
    return None


def mu_expansive_points(system, mu, c, probe=None) -> frozenset:
    """The mu-uniformly-expansive points of system.sample(probe)."""
    pts = system.sample(probe)
    if not pts:
        raise PreconditionError("an infinite carrier needs a probe set")
    return frozenset(x for x in pts if mu_uniformly_expansive_at(system, mu, x, c))


class MeasureExpansivityReport(NamedTuple):
    constant: Fraction
    result: bool
    probes: tuple
    failing_point: object = None
    cross_check: str = ""

    def __bool__(self):
        return self.result


def expansive_measure_check(system, mu, c, probe=None) -> MeasureExpansivityReport:
    """Is every Phi-set mu-null at scale c?

    On finite carriers the probe must be the whole carrier. The verdict
    is cross-checked against the pointwise route: a null Phi layer forces
    every point to be mu-uniformly expansive at c.
    """
    c = positive(c, "expansivity constant")
    check_measure_backend(system, mu)
    pts = system.sample(probe)
    if system.finite and set(pts) != set(system.points()):
        raise PreconditionError("finite carriers must be probed in full")
    if not pts:
        raise PreconditionError("an infinite carrier needs a probe set")
    probes = tuple(sorted_points(pts))
    failing = None
    for p in probes:
        if measure_of(mu, phi_set(system, p, c)) != 0:
            failing = p
            break
    result = failing is None
    pointwise = all(mu_uniformly_expansive_at(system, mu, p, c) for p in probes)
    if result and not pointwise:
        raise PointdynError("null Phi-sets must make every point mu-uniformly expansive")
    note = (f"pointwise route at {format_rational(c)}: "
            f"{'agrees' if pointwise == result else 'weaker, as expected'}")
    return MeasureExpansivityReport(c, result, probes, failing, note)


# -- pointwise mu-shadowing -------------------------------------------------


class MuShadowReport(NamedTuple):
    result: bool
    through_points: tuple
    failing_point: object = None

    def __bool__(self):
        return self.result


def mu_shadowable_at(system, mu, x, eps, delta, B) -> MuShadowReport:
    """Every pseudo-orbit through B intersected with B(x, delta) traceable.

    B must carry full measure; the quantifier then decomposes over the
    finitely many admissible through-points, each decided exactly.
    """
    eps, delta = positive(eps, "tracing radius"), positive(delta, "pseudo-orbit gap")
    if not system.finite:
        raise UnsupportedBackendError("the exact decider needs a finite carrier")
    check_measure_backend(system, mu)
    B, defect = _full_measure_part(system, mu, B)
    if defect != 0:
        raise PreconditionError("B must have full measure")
    through = tuple(sorted_points(B & system_ball(system, x, delta)))
    verdicts = shadowable_exact_points(system, through, eps, delta)
    failing = next((x0 for x0, ok in verdicts.items() if not ok), None)
    return MuShadowReport(failing is None, through, failing)


# -- tracking maps ----------------------------------------------------------


class SetValuedAssignment(NamedTuple):
    """Set-valued map u -> H(u) over an orbit, explicit or rule-given.

    Explicit assignments carry one finite image set per orbit point.
    The identity rule stands for H(u) = {u} over an infinite shift
    orbit closure, where the images cannot be tabulated.
    """
    eta: Fraction
    domain: tuple                 # orbit points (empty for rule-based maps)
    images: object = None         # dict point -> frozenset
    rule: str = None              # "identity"
    closure: object = None        # ShiftOrbitClosure for rule-based maps

    def image_of(self, u) -> frozenset:
        if self.rule == "identity":
            if u not in self.closure:
                raise PreconditionError(f"{point_label(u)} is outside the domain")
            return frozenset([u])
        return self.images[u]

    def dom(self):
        """Points with nonempty image."""
        if self.rule == "identity":
            return self.closure
        return tuple(u for u in self.domain if self.images[u])


def build_tracking_map(f, g, x, eta) -> SetValuedAssignment:
    """H(u) = {z : d(f^n z, g^n u) <= eta for all integer n}, u in the g-orbit of x.

    Closed balls, so the comparison is non-strict. f and g share a
    carrier (systems.check_carrier): x is a point of f, and on finite
    carriers g's index i stands for f.kernel.pts[i], so the domain and
    the images are f's points whatever labels g gives its own. Each
    image H(u) is one exact trace by f's kernel (FiniteKernel.trace_cycle,
    the tracer the semiconjugacy and GH checks use) of the periodic
    g-orbit rotated to start at u, so no image is derived from another.
    Empty images are kept: they shrink the domain.
    """
    eta = positive(eta, "tracking radius")
    check_carrier(f, g)
    if not f.finite:
        if f.backend != "shift":
            raise UnsupportedBackendError(
                "tracking maps are implemented for finite and shift carriers")
        if eta >= 1:
            raise UnsupportedBackendError(
                "shift tracking images are only finitely representable below 1")
        return SetValuedAssignment(eta, (), rule="identity",
                                   closure=orbit_closure(f, x))
    k = f.kernel
    orb = g.kernel.orbit(point_index(f, x))
    images = {}
    for i, u in enumerate(orb):
        tracers, _, _ = k.trace_cycle(orb[i:] + orb[:i], eta, closed=True)
        images[k.pts[u]] = frozenset(k.pts[z] for z in tracers)
    return SetValuedAssignment(eta, tuple(k.pts[u] for u in orb), images=images)


def tracking_within_ball(assignment: SetValuedAssignment, system, eta=None):
    """Re-verify H(u) within the closed eta-ball of u; (ok, witness)."""
    eta = assignment.eta if eta is None else as_rational(eta)
    if assignment.rule == "identity":
        return True, None  # d(u, u) = 0 <= eta for every u
    for u in assignment.domain:
        for w in assignment.images[u]:
            if system.dist(u, w) > eta:
                return False, (u, w)
    return True, None


def tracking_commutes(assignment: SetValuedAssignment, f, g):
    """Re-verify f(H(u)) = H(g(u)) as exact set equality; (ok, witness).

    Points are f's; g acts on them through the shared kernel indices."""
    check_carrier(f, g)
    if assignment.rule == "identity":
        # images are {u}; f{u} = {f(u)} equals {g(u)} because g is f here
        return True, None
    pts, index, gperm = f.kernel.pts, f.kernel.index, g.kernel.perm
    for u in assignment.domain:
        pushed = frozenset(f.image(z) for z in assignment.images[u])
        target = assignment.images[pts[gperm[index[u]]]]
        if pushed != target:
            return False, (u, pushed, target)
    return True, None


# -- strong mu-topological stability ----------------------------------------


class ClauseCheck(NamedTuple):
    name: str
    result: bool
    detail: str = ""

    def __bool__(self):
        return self.result


class StabilityReport(NamedTuple):
    result: bool
    clauses: tuple
    eta: Fraction
    assignment: SetValuedAssignment

    def __bool__(self):
        return self.result

    def clause(self, key: str) -> ClauseCheck:
        for c in self.clauses:
            if c.name == key or c.name.split(":")[0] == key:
                return c
        raise KeyError(key)


# On the shift a carrier token fixes the map, so check_carrier admits only
# g = f and H is the identity on x's orbit closure: every clause holds.
_SHIFT_CLAUSES = tuple(ClauseCheck(name, True, detail) for name, detail in (
    ("pre:c0", "shift perturbations must be trivial"),
    ("pre:B", "B defaults to the whole carrier"),
    ("i:null-images", "images are single points, null under a Bernoulli measure"),
    ("ii:displacement", "every image sits inside the closed eps-ball of its argument"),
    ("iii:commutation", "f(H(u)) = H(g(u)) exactly on the whole domain"),
    # Dom(H) is the orbit closure and U sits inside it; both complements
    # carry full measure 1, so the bound is tight.
    ("iv:domain-measure", "both complements have measure 1 under an atomless measure"),
    ("usc", "identity-rule images vary continuously")))


def verify_strong_mu_topological_stability(f, mu, x, eps, delta, g, B=None, *,
                                           eta=None, expansivity_c=None):
    """Check the strong stability clauses for the perturbation g of f at x.

    Builds the canonical tracking map H over the g-orbit of x and
    verifies: (i) mu-null images near x, (ii) displacement within eps,
    (iii) exact commutation, (iv) the domain co-measure bound against
    U = B intersect B(x, delta) intersect the orbit. x is a point of f,
    as in build_tracking_map. Preconditions are reported as named clause
    failures rather than exceptions; a non-positive eps or delta is a
    PreconditionError.
    """
    eps, delta = positive(eps, "tracing radius"), positive(delta, "pseudo-orbit gap")
    check_measure_backend(f, mu)
    c = None if expansivity_c is None else positive(expansivity_c, "expansivity constant")
    if eta is None:
        eta = eps / 2 if c is None else min(c / 16, eps / 2)
    eta = as_rational(eta)

    if not f.finite:
        check_carrier(f, g)
        if B is not None:
            raise UnsupportedBackendError(
                "explicit B sets are only supported on finite carriers")
        return StabilityReport(True, _SHIFT_CLAUSES, eta, build_tracking_map(f, g, x, eta))

    gap = c0_distance(f, g)
    B, b_defect = _full_measure_part(f, mu, B)
    H = build_tracking_map(f, g, x, eta)
    near = [z for z in H.domain if f.dist(x, z) < delta / 4]
    bad = next((z for z in near if measure_of(mu, H.images[z]) != 0), None)
    inside, stray = tracking_within_ball(H, f, eps)
    commutes, where = tracking_commutes(H, f, g)
    carrier = frozenset(f.kernel.pts)
    dom_defect = measure_of(mu, carrier - frozenset(H.dom()))
    U = frozenset(u for u in H.domain if u in B and f.dist(x, u) < delta)
    u_defect = measure_of(mu, carrier - U)
    clauses = (
        ClauseCheck("pre:c0", gap <= delta,
                    f"c0 distance {format_rational(gap)} vs delta {format_rational(delta)}"),
        ClauseCheck("pre:B", b_defect == 0,
                    f"complement of B has measure {format_rational(b_defect)}"),
        ClauseCheck("i:null-images", bad is None,
                    f"checked {len(near)} orbit points in B(x, delta/4)" if bad is None
                    else f"H({point_label(bad)}) has measure "
                         f"{format_rational(measure_of(mu, H.images[bad]))}"),
        ClauseCheck("ii:displacement", inside,
                    "every image sits inside the closed eps-ball of its argument" if inside
                    else f"H({point_label(stray[0])}) strays to {point_label(stray[1])}"),
        ClauseCheck("iii:commutation", commutes,
                    "f(H(u)) = H(g(u)) exactly on the whole domain" if commutes
                    else f"commutation fails at {point_label(where[0])}"),
        ClauseCheck("iv:domain-measure", dom_defect <= u_defect,
                    f"mu off the domain {format_rational(dom_defect)} vs mu off U "
                    f"{format_rational(u_defect)}"),
        ClauseCheck("usc", True,
                    "set-valued maps on a discrete orbit domain are upper semicontinuous"))
    return StabilityReport(all(clauses), clauses, eta, H)
