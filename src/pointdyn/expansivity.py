"""Expansivity classifiers at a point.

All variants quantify the same primitive: the supremum of d(f^n y, f^n z)
over all integer times. A point is expansive when every other point
separates beyond the constant at some time; uniformly expansive when
the map is expansive on the open ball around it; minimally expansive
when the map is expansive on the orbit closure of every ball point.
Each verdict carries either a per-pair certificate or a concrete
counterexample pair. A constant c <= 0 is a PreconditionError.

On finite carriers every verdict is read off the kernel's bitset rows
inseparable(c) (the j with sup-separation at most c from i), built once
per closed bound as the periodic tracers of each cycle at closed radius c:
a point's row, the first pair of a ball's bits, and for minimal
expansivity one verdict per cycle (cycle_failures), shared by every
centre whose ball meets it.
Symbolic carriers answer through pair_sup_separation and their regions;
on their shift part every verdict is one rule (_shift_rule), as distinct
sequences separate to exactly 1.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import PreconditionError
from .rationals import ONE, as_rational, positive
from .shiftspace import ShiftBall, pure, with_symbol
from .systems import (Satellite, SatelliteBall, ShiftOrbitClosure, least, orbit,
                      pair_sup_separation, point_index, point_label, sorted_points,
                      system_ball)


class ExpansivityVerdict(NamedTuple):
    point: object
    constant: Fraction
    variant: str
    result: bool
    counterexample: tuple = None     # (y, z) with sup separation <= constant
    detail: str = ""

    def __bool__(self):
        return self.result


def is_expansive_on(system, domain, c) -> ExpansivityVerdict:
    """Is every distinct pair of `domain` separated beyond c at some time?

    `domain` is a finite point collection or a symbolic region
    (ShiftOrbitClosure, ShiftBall, SatelliteBall). Strict inequality:
    pair_sup_separation must exceed c. The counterexample is the first
    failing pair in point order.
    """
    c = positive(c, "expansivity constant")
    if isinstance(domain, ShiftOrbitClosure):
        y = domain.base
        return _shift_rule(None, c, "expansive_on", _APART, (y, y.shift_by(1)))
    if isinstance(domain, ShiftBall):
        return _shift_rule(None, c, "expansive_on", _APART,
                           _flipped(system, domain.center, domain.halfwidth))
    if isinstance(domain, SatelliteBall):
        return _expansive_on_satellite_ball(system, domain, c)
    if system.finite:
        mask = 0
        for y in domain:
            mask |= 1 << point_index(system, y)
        return _bits_verdict(system, None, c, "expansive_on", mask)
    pts = sorted_points(domain)
    for i, y in enumerate(pts):
        for z in pts[i + 1:]:
            if pair_sup_separation(system, y, z) <= c:
                return ExpansivityVerdict(None, c, "expansive_on", False, (y, z))
    return ExpansivityVerdict(None, c, "expansive_on", True,
                              detail=f"{len(pts)} points, all pairs separate")


def _bits_verdict(system, x, c, variant, mask):
    """Does every pair of the kernel bitset mask separate beyond c?"""
    k = system.kernel
    pair = k.first_inseparable_pair(c, mask)
    if pair is None:
        return ExpansivityVerdict(x, c, variant, True,
                                  detail=f"{mask.bit_count()} points, all pairs separate")
    return ExpansivityVerdict(x, c, variant, False, (k.pts[pair[0]], k.pts[pair[1]]))


_APART = "distinct sequences reach separation 1"


def _shift_rule(x, c, variant, detail, witness, failure=""):
    """A verdict on the shift part of a carrier, where every distinct pair
    separates to exactly 1 (shifting moves its first disagreement to the
    origin): true for every c < 1, with the caller's detail, and false at
    c >= 1 on the caller's witness pair and failure detail."""
    if c < ONE:
        return ExpansivityVerdict(x, c, variant, True, detail=detail)
    return ExpansivityVerdict(x, c, variant, False, witness, failure)


def _flipped(system, x, pos):
    """x and x with the symbol at pos advanced mod the alphabet: a pair of
    the cylinder of halfwidth pos around x."""
    return x, with_symbol(x, pos, (x.value(pos) + 1) % system.alphabet)


def _expansive_on_satellite_ball(system, region, c):
    # a pair of the shift ball separates to exactly 1, and a satellite q and
    # a Y point other than its marked point to 1 + 1/k: past the shift part
    # only q's marked point or another satellite can fail
    if region.y_ball is not None:
        shift_part = _shift_rule(None, c, "expansive_on", "",
                                 _flipped(system, region.y_ball.center, region.y_ball.halfwidth))
        if not shift_part:
            return shift_part
    for idx, q in enumerate(region.satellites):
        # nearest ball partner of a satellite inside Y is the marked point
        base = system.marked(q.j)
        if Fraction(1, q.k) <= c and base in region:
            return ExpansivityVerdict(None, c, "expansive_on", False, (q, base))
        for q2 in region.satellites[idx + 1:]:
            if pair_sup_separation(system, q, q2) <= c:
                return ExpansivityVerdict(None, c, "expansive_on", False, (q, q2))
    return ExpansivityVerdict(None, c, "expansive_on", True,
                              detail="all region pairs separate")


def expansive_point_at(system, x, c) -> ExpansivityVerdict:
    """True iff every y != x satisfies pair_sup_separation(x, y) > c."""
    c = positive(c, "expansivity constant")
    if system.finite:
        i = point_index(system, x)
        hit = system.kernel.inseparable(c)[i] & ~(1 << i)
        if hit:
            return ExpansivityVerdict(x, c, "expansive", False,
                                      (x, system.kernel.pts[least(hit)]))
        return ExpansivityVerdict(x, c, "expansive", True)
    system.check_point(x)
    if system.backend == "satellite":
        return _satellite_expansive_point(system, x, c)
    return _shift_rule(x, c, "expansive", _APART, _flipped(system, x, 0))


def _satellite_expansive_point(system, x, c):
    variant = "expansive"
    if isinstance(x, Satellite):
        # weakest partner: another copy over the same marked point, sup 1/k
        if Fraction(1, x.k) <= c:
            other = Satellite(x.i % system.COPIES + 1, x.k, x.j)
            return ExpansivityVerdict(x, c, variant, False, (x, other))
        return ExpansivityVerdict(x, c, variant, True,
                                  detail=f"nearest orbit pattern separates at 1/{x.k}")
    shift_part = _shift_rule(x, c, variant, "", _flipped(system, x, 0))
    if not shift_part:
        return shift_part
    for q in system.satellite_points():
        if pair_sup_separation(system, x, q) <= c:
            return ExpansivityVerdict(x, c, variant, False, (x, q))
    return shift_part


def uniformly_expansive_at(system, x, c) -> ExpansivityVerdict:
    """Expansive with constant c on the open ball B(x, c)."""
    c = positive(c, "expansivity constant")
    if system.finite:
        ball = system.kernel.within(c)[point_index(system, x)]
        return _bits_verdict(system, x, c, "uniform", ball)
    inner = is_expansive_on(system, system_ball(system, x, c), c)
    return ExpansivityVerdict(x, c, "uniform", inner.result,
                              inner.counterexample, inner.detail)


def minimally_expansive_at(system, x, c) -> ExpansivityVerdict:
    """Expansive with constant c on the orbit closure of every ball point.

    On a finite carrier the orbit closure of y is its cycle, so the
    verdict is that of the first ball point whose cycle fails.
    """
    c = positive(c, "expansivity constant")
    if system.finite:
        k = system.kernel
        failing, pairs = k.cycle_failures(c)
        hit = k.within(c)[point_index(system, x)] & failing
        if not hit:
            return ExpansivityVerdict(x, c, "minimal", True)
        y = least(hit)
        return ExpansivityVerdict(x, c, "minimal", False,
                                  tuple(k.pts[i] for i in pairs[y]),
                                  detail=f"orbit closure of {point_label(k.pts[y])} fails")
    region = system_ball(system, x, c)
    if system.backend == "shift":
        # closures of cylinder points are sets of sequences: pairs separate to 1
        return _shift_rule(x, c, "minimal", "closure pairs reach separation 1",
                           *_closure_fails(system, region))
    # Only the Y part of the open ball can fail, once c >= 1: a satellite
    # orbit, whose pairs separate to 1 + 2/k, fails only when c > 1, and
    # then the open ball has a Y part.
    if region.y_ball is None:
        return ExpansivityVerdict(x, c, "minimal", True)
    return _shift_rule(x, c, "minimal", "", *_closure_fails(system, region.y_ball))


def _closure_fails(system, cylinder):
    """Witness pair and failure detail of a minimal verdict that fails on
    the cylinder: the orbit closure of one of its points y holds y and
    f(y), which never separate beyond 1."""
    y = _non_fixed_cylinder_point(system, cylinder)
    return (y, y.shift_by(1)), f"orbit closure of {point_label(y)} fails"


def _non_fixed_cylinder_point(system, region):
    """A point of the cylinder whose orbit has at least two elements."""
    x = region.center
    h = region.halfwidth
    if h == 0:
        return pure([0, 1])
    # position h is free; making it differ from position h-1 rules out
    # constant sequences, the only shift-fixed points
    y = with_symbol(x, h, (x.value(h - 1) + 1) % system.alphabet)
    assert y.shift_by(1) != y and y in region
    return y


_VARIANTS = {
    "expansive": expansive_point_at,
    "uniform": uniformly_expansive_at,
    "minimal": minimally_expansive_at,
}


def point_verdicts(system, variant: str, c, probe=None) -> dict:
    """Verdict at c for every point of system.sample(probe), keyed in the
    canonical point order."""
    if variant not in _VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r}")
    c, check = positive(c, "expansivity constant"), _VARIANTS[variant]
    pts = system.sample(probe)
    if not pts:
        raise PreconditionError("an infinite carrier needs a probe set")
    return {p: check(system, p, c) for p in sorted_points(pts)}


def classify_points(system, variant: str, c, probe=None):
    """Points of the carrier (or probe set) whose verdict is true at c."""
    return [p for p, verdict in point_verdicts(system, variant, c, probe).items()
            if verdict.result]


def separation_horizon(system, x, c, y, eps) -> int:
    """Smallest N with: any orbit(y) pair staying within c for |n| <= N
    must already be eps-close at time 0.

    The premise is the minimal-expansivity hypothesis at (x, c); the
    scan is exact over the finite orbit of y.
    """
    c, eps = as_rational(c), as_rational(eps)
    if not (0 < eps < c):
        raise PreconditionError("need 0 < eps < c")
    if not minimally_expansive_at(system, x, c).result:
        raise PreconditionError("map is not minimally expansive at (x, c)")
    ball = system_ball(system, x, c)
    if y not in ball:
        raise PreconditionError("y must lie in the open c-ball around x")
    ob = orbit(system, y)
    if not ob.finite:
        raise PreconditionError(f"orbit of {point_label(y)} is infinite")
    pts = ob.points
    horizon = 0
    for i, u in enumerate(pts):
        for j in range(i + 1, len(pts)):
            if system.dist(u, pts[j]) < eps:
                continue
            horizon = max(horizon, _first_separation_time(system, pts, i, j, c))
    return horizon


def _first_separation_time(system, pts, i, j, c) -> int:
    """min{|n| : d(f^n u, f^n v) >= c} for u = pts[i] and v = pts[j] on the
    periodic orbit pts, read as f^n(pts[i]) = pts[(i + n) % p]; it exists
    under minimal expansivity."""
    p = len(pts)
    for n in range(p // 2 + 1):
        for s in (n, -n):
            if system.dist(pts[(i + s) % p], pts[(j + s) % p]) >= c:
                return n
    raise PreconditionError(
        f"pair ({point_label(pts[i])}, {point_label(pts[j])}) never separates to {c}")
