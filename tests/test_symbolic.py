"""Pinned answers on the two symbolic carriers: the full 2-shift and the
satellite construction.

Each entry renders one result field by field (points by their labels,
rationals as p/q, records by type name and fields), so a change to any
verdict, counterexample, detail, region, sample or conjugacy shows as a
changed line. The values were recorded before the shift carried its own
probes and the satellite carrier became a subclass of the shift, except
the point_verdicts pin: it was recorded again when the library's default
sample came to hold the satellite's probes (40 points, as in the CLI).
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction as F
from itertools import product

import pytest

from pointdyn.bundled import bundled_measure, bundled_system, mixed_sample
from pointdyn.cli import main
from pointdyn.errors import PreconditionError
from pointdyn.expansivity import (expansive_point_at, is_expansive_on,
                                  minimally_expansive_at, point_verdicts,
                                  uniformly_expansive_at)
from pointdyn.measures import expansive_measure_check, mu_expansive_points, phi_set
from pointdyn.rationals import Frozen, format_rational
from pointdyn.shiftspace import EPPoint, parse_ep
from pointdyn.stability import build_conjugacy
from pointdyn.systems import (Satellite, SatelliteBall, orbit_closure, pair_sup_separation,
                              point_key, point_label, sorted_points, system_ball)


def render(value) -> str:
    """One line per result: every field, in a notation that does not
    depend on object identity or on set iteration order."""
    if isinstance(value, F):
        return format_rational(value)
    if isinstance(value, (EPPoint, Satellite)):
        return point_label(value)
    if isinstance(value, (frozenset, set)):
        return "{" + " ".join(map(render, sorted(value, key=point_key))) + "}"
    if isinstance(value, dict):
        return "{" + " ".join(f"{render(k)}:{render(v)}" for k, v in value.items()) + "}"
    if isinstance(value, Frozen):
        return type(value).__name__ + render(value._values())
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return type(value).__name__ + render(tuple(value))
    if isinstance(value, (tuple, list)):
        return "(" + " ".join(map(render, value)) + ")"
    return repr(value)


SHIFT_POINTS = ("01~~01@0", "0~1~0@0")
SATELLITE_POINTS = ("01~~01@0", "q(1,1,0)", "q(2,3,1)", "0~1~0@0")
SATELLITE_SCALES = ("1/4", "1/2", "1", "3/2", "2", "5/2")
CLASSIFIERS = {"expansive": expansive_point_at, "uniform": uniformly_expansive_at,
               "minimal": minimally_expansive_at}


def _point(text):
    if text.startswith("q("):
        return Satellite(*(int(v) for v in text[2:-1].split(",")))
    return parse_ep(text)


def _results():
    """(key, result) for every pinned call."""
    shift, sat = bundled_system("shift2"), bundled_system("satellite3")
    for text in SHIFT_POINTS:
        x = _point(text)
        for c in ("1/2", "1"):
            for name, check in CLASSIFIERS.items():
                yield f"shift2 {name} {text} {c}", check(shift, x, F(c))
            yield (f"shift2 closure {text} {c}",
                   is_expansive_on(shift, orbit_closure(shift, x), F(c)))
    for text in SATELLITE_POINTS:
        x = _point(text)
        for c in SATELLITE_SCALES:
            for name, check in CLASSIFIERS.items():
                yield f"satellite3 {name} {text} {c}", check(sat, x, F(c))
            yield f"satellite3 ball {text} {c}", system_ball(sat, x, F(c))
    yield ("shift2 conjugacy 0~1~0@0",
           build_conjugacy(shift, shift, parse_ep("0~1~0@0"), F(1, 2), F(1, 2)))
    yield "satellite3 point_verdicts minimal 1/2", point_verdicts(sat, "minimal", F(1, 2))
    yield "shift2 mixed_sample", mixed_sample(shift)
    yield "satellite3 mixed_sample", mixed_sample(sat)
    # balls no system_ball call builds: two satellites with no Y part reach
    # the satellite-pair loop
    a, b = Satellite(1, 1, 0), Satellite(1, 2, 1)
    for c in ("2", "5/2"):
        yield (f"satellite3 hand-ball q(1,1,0) q(1,2,1) y=- {c}",
               is_expansive_on(sat, SatelliteBall(a, (a, b)), F(c)))


def test_symbolic_results_are_pinned():
    got = {key: render(value) for key, value in _results()}
    assert got.keys() == PINS.keys()
    for key, text in PINS.items():
        assert got[key] == text, key


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv.split())
    return code, out.getvalue()


def test_point_verdicts_are_the_classify_certificates():
    # point_verdicts once read the satellite points only (18), the CLI
    # the probes as well (40)
    verdicts = point_verdicts(bundled_system("satellite3"), "minimal", F(1, 2))
    code, out = _report("classify bundled:satellite3 --variant minimal --c 1/2")
    certificates = json.loads(out)["results"]["certificates"]
    assert code == 0 and len(verdicts) == 40
    assert certificates.keys() == {point_label(p) for p in verdicts}
    for p, verdict in verdicts.items():
        cert = certificates[point_label(p)]
        assert cert["result"] == verdict.result
        assert cert.get("counterexample") == (
            verdict.counterexample and [point_label(q) for q in verdict.counterexample])
        assert cert.get("detail", "") == verdict.detail


def test_shift_classifiers_read_the_shift_probes():
    # each once raised "needs a probe set", though shift2 carries probes
    shift, mu, c = bundled_system("shift2"), bundled_measure("bernoulli_half"), F(1, 2)
    probes = sorted_points(shift.probes)
    assert list(point_verdicts(shift, "uniform", c)) == probes
    assert mu_expansive_points(shift, mu, c) == frozenset(probes)
    assert list(expansive_measure_check(shift, mu, c).probes) == probes
    _, out = _report("classify bundled:shift2 --variant mu-uniform --c 1/2 "
                     "--measure bundled:bernoulli_half")
    assert json.loads(out)["results"]["points"] == [point_label(p) for p in probes]


def test_a_probe_narrows_a_finite_sample():
    # on a finite carrier a probe was once widened to the whole carrier by
    # point_verdicts, mu_expansive_points and classify --variant shadow
    id3, mu, c = bundled_system("id3"), bundled_measure("nullpoint3"), F(1, 2)
    assert id3.sample([2, 1]) == [2, 1] and id3.sample() == [0, 1, 2]
    assert list(point_verdicts(id3, "uniform", c, probe=[2])) == [2]
    assert mu_expansive_points(id3, mu, c) == frozenset({0})
    assert mu_expansive_points(id3, mu, c, probe=[2, 1]) == frozenset()
    shadow = "classify bundled:id3 --variant shadow --eps 1/2 --delta 1/2"
    for probe, want in (("", ["0", "1", "2"]), (" --probe 2 --probe 1", ["1", "2"])):
        code, out = _report(shadow + probe)
        assert code == 0 and sorted(json.loads(out)["results"]["certificates"]) == want
    # the Phi-set check still asks at the whole finite carrier
    with pytest.raises(PreconditionError, match="probed in full"):
        expansive_measure_check(id3, mu, c, probe=[2, 1])
    assert expansive_measure_check(id3, mu, c, probe=[2, 1, 0]).probes == (0, 1, 2)


def test_a_repeated_probe_point_is_sampled_once():
    # each point once, at its first place, as point_verdicts keys by point
    id3, mu, c = bundled_system("id3"), bundled_measure("nullpoint3"), F(1, 2)
    assert id3.sample([2, 0, 2, 1, 0]) == [2, 0, 1]
    assert expansive_measure_check(id3, mu, c, probe=[0, 0, 1, 2]).probes == (0, 1, 2)
    shift2, coin = bundled_system("shift2"), bundled_measure("bernoulli_half")
    probes = list(shift2.probes)
    assert shift2.sample(probes * 2) == probes
    report = expansive_measure_check(shift2, coin, c, probe=probes * 2)
    assert report.probes == tuple(sorted_points(probes))
    assert list(point_verdicts(shift2, "uniform", c, probe=probes * 2)) == sorted_points(probes)
    # a satellite probe comes first and is not listed again among the satellites
    sat, q = bundled_system("satellite3"), Satellite(1, 1, 0)
    assert sat.sample([q]) == [q] + [p for p in sat.satellite_points() if p != q]
    assert sat.sample([q, q]) == sat.sample([q])


def test_membership_has_a_second_route():
    # `y in region` on each symbolic region against the metric and the
    # sup-separation it is cut from
    shift, sat = bundled_system("shift2"), bundled_system("satellite3")
    marked = [sat.marked(j) for j in range(sat.t)]
    checks = 0
    for system, pts in ((shift, shift.sample()), (sat, sat.sample() + marked)):
        pts = list(dict.fromkeys(pts))
        for x, y, r in product(pts, pts, map(F, SATELLITE_SCALES)):
            assert (y in system_ball(system, x, r)) == (system.dist(x, y) < r), (x, y, r)
            checks += 1
    for x, y, c in product(shift.sample(), shift.sample(), map(F, SATELLITE_SCALES)):
        assert (y in phi_set(shift, x, c)) == (pair_sup_separation(shift, x, y) <= c)
    # 12 shift points and 40 satellite points (the marked orbit is among
    # them), each pair at 6 radii
    assert checks == 6 * (12 ** 2 + 40 ** 2)


@pytest.mark.parametrize("argv, digest", (
    ("validate bundled:shift2",
     "7aa78a82033bcf46c6ab4fb7a8bc01d9ff4a1162c8c138a1266f09886d5e0f1f"),
    ("classify bundled:shift2 --variant uniform --c 1/2",
     "5eff9ccbc3571adc1cc88095b27b69b774e1be914b3cdf879bb49d6d10032084"),
))
def test_shift_reports_are_pinned(argv, digest):
    code, out = _report(argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


PINS = {
    'shift2 expansive 01~~01@0 1/2':
        "ExpansivityVerdict(01~~01@0 1/2 'expansive' True None 'distinct sequences reach separation 1')",
    'shift2 uniform 01~~01@0 1/2':
        "ExpansivityVerdict(01~~01@0 1/2 'uniform' True None 'distinct sequences reach separation 1')",
    'shift2 minimal 01~~01@0 1/2':
        "ExpansivityVerdict(01~~01@0 1/2 'minimal' True None 'closure pairs reach separation 1')",
    'shift2 closure 01~~01@0 1/2':
        "ExpansivityVerdict(None 1/2 'expansive_on' True None '2 points, all pairs separate')",
    'shift2 expansive 01~~01@0 1':
        "ExpansivityVerdict(01~~01@0 1/1 'expansive' False (01~~01@0 01~1~10@0) '')",
    'shift2 uniform 01~~01@0 1':
        "ExpansivityVerdict(01~~01@0 1/1 'uniform' False (01~~01@0 10~0~01@1) '')",
    'shift2 minimal 01~~01@0 1':
        "ExpansivityVerdict(01~~01@0 1/1 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'shift2 closure 01~~01@0 1':
        "ExpansivityVerdict(None 1/1 'expansive_on' False (01~~01@0 10~~10@0) '')",
    'shift2 expansive 0~1~0@0 1/2':
        "ExpansivityVerdict(0~1~0@0 1/2 'expansive' True None 'distinct sequences reach separation 1')",
    'shift2 uniform 0~1~0@0 1/2':
        "ExpansivityVerdict(0~1~0@0 1/2 'uniform' True None 'distinct sequences reach separation 1')",
    'shift2 minimal 0~1~0@0 1/2':
        "ExpansivityVerdict(0~1~0@0 1/2 'minimal' True None 'closure pairs reach separation 1')",
    'shift2 closure 0~1~0@0 1/2':
        "ExpansivityVerdict(None 1/2 'expansive_on' True None 'distinct sequences reach separation 1')",
    'shift2 expansive 0~1~0@0 1':
        "ExpansivityVerdict(0~1~0@0 1/1 'expansive' False (0~1~0@0 0~~0@0) '')",
    'shift2 uniform 0~1~0@0 1':
        "ExpansivityVerdict(0~1~0@0 1/1 'uniform' False (0~1~0@0 0~11~0@0) '')",
    'shift2 minimal 0~1~0@0 1':
        "ExpansivityVerdict(0~1~0@0 1/1 'minimal' False (0~1~0@0 0~1~0@-1) 'orbit closure of 0~1~0@0 fails')",
    'shift2 closure 0~1~0@0 1':
        "ExpansivityVerdict(None 1/1 'expansive_on' False (0~1~0@0 0~1~0@-1) '')",
    'satellite3 expansive 01~~01@0 1/4':
        "ExpansivityVerdict(01~~01@0 1/4 'expansive' True None '')",
    'satellite3 uniform 01~~01@0 1/4':
        "ExpansivityVerdict(01~~01@0 1/4 'uniform' True None 'all region pairs separate')",
    'satellite3 minimal 01~~01@0 1/4':
        "ExpansivityVerdict(01~~01@0 1/4 'minimal' True None '')",
    'satellite3 ball 01~~01@0 1/4':
        'SatelliteBall(01~~01@0 () ShiftBall(01~~01@0 3))',
    'satellite3 expansive 01~~01@0 1/2':
        "ExpansivityVerdict(01~~01@0 1/2 'expansive' False (01~~01@0 q(1,2,0)) '')",
    'satellite3 uniform 01~~01@0 1/2':
        "ExpansivityVerdict(01~~01@0 1/2 'uniform' False (q(1,3,0) 01~~01@0) '')",
    'satellite3 minimal 01~~01@0 1/2':
        "ExpansivityVerdict(01~~01@0 1/2 'minimal' True None '')",
    'satellite3 ball 01~~01@0 1/2':
        'SatelliteBall(01~~01@0 (q(1,3,0) q(2,3,0) q(3,3,0)) ShiftBall(01~~01@0 2))',
    'satellite3 expansive 01~~01@0 1':
        "ExpansivityVerdict(01~~01@0 1/1 'expansive' False (01~~01@0 01~1~10@0) '')",
    'satellite3 uniform 01~~01@0 1':
        "ExpansivityVerdict(01~~01@0 1/1 'uniform' False (01~~01@0 10~0~01@1) '')",
    'satellite3 minimal 01~~01@0 1':
        "ExpansivityVerdict(01~~01@0 1/1 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'satellite3 ball 01~~01@0 1':
        'SatelliteBall(01~~01@0 (q(1,2,0) q(2,2,0) q(3,2,0) q(1,3,0) q(2,3,0) q(3,3,0)) ShiftBall(01~~01@0 1))',
    'satellite3 expansive 01~~01@0 3/2':
        "ExpansivityVerdict(01~~01@0 3/2 'expansive' False (01~~01@0 01~1~10@0) '')",
    'satellite3 uniform 01~~01@0 3/2':
        "ExpansivityVerdict(01~~01@0 3/2 'uniform' False (01~~01@0 01~1~10@0) '')",
    'satellite3 minimal 01~~01@0 3/2':
        "ExpansivityVerdict(01~~01@0 3/2 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'satellite3 ball 01~~01@0 3/2':
        'SatelliteBall(01~~01@0 (q(1,1,0) q(2,1,0) q(3,1,0) q(1,2,0) q(2,2,0) q(3,2,0) q(1,3,0) q(2,3,0) q(3,3,0) q(1,3,1) q(2,3,1) q(3,3,1)) ShiftBall(01~~01@0 0))',
    'satellite3 expansive 01~~01@0 2':
        "ExpansivityVerdict(01~~01@0 2/1 'expansive' False (01~~01@0 01~1~10@0) '')",
    'satellite3 uniform 01~~01@0 2':
        "ExpansivityVerdict(01~~01@0 2/1 'uniform' False (01~~01@0 01~1~10@0) '')",
    'satellite3 minimal 01~~01@0 2':
        "ExpansivityVerdict(01~~01@0 2/1 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'satellite3 ball 01~~01@0 2':
        'SatelliteBall(01~~01@0 (q(1,1,0) q(2,1,0) q(3,1,0) q(1,2,0) q(2,2,0) q(3,2,0) q(1,2,1) q(2,2,1) q(3,2,1) q(1,3,0) q(2,3,0) q(3,3,0) q(1,3,1) q(2,3,1) q(3,3,1)) ShiftBall(01~~01@0 0))',
    'satellite3 expansive 01~~01@0 5/2':
        "ExpansivityVerdict(01~~01@0 5/2 'expansive' False (01~~01@0 01~1~10@0) '')",
    'satellite3 uniform 01~~01@0 5/2':
        "ExpansivityVerdict(01~~01@0 5/2 'uniform' False (01~~01@0 01~1~10@0) '')",
    'satellite3 minimal 01~~01@0 5/2':
        "ExpansivityVerdict(01~~01@0 5/2 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'satellite3 ball 01~~01@0 5/2':
        'SatelliteBall(01~~01@0 (q(1,1,0) q(2,1,0) q(3,1,0) q(1,1,1) q(2,1,1) q(3,1,1) q(1,2,0) q(2,2,0) q(3,2,0) q(1,2,1) q(2,2,1) q(3,2,1) q(1,3,0) q(2,3,0) q(3,3,0) q(1,3,1) q(2,3,1) q(3,3,1)) ShiftBall(01~~01@0 0))',
    'satellite3 expansive q(1,1,0) 1/4':
        "ExpansivityVerdict(q(1,1,0) 1/4 'expansive' True None 'nearest orbit pattern separates at 1/1')",
    'satellite3 uniform q(1,1,0) 1/4':
        "ExpansivityVerdict(q(1,1,0) 1/4 'uniform' True None 'all region pairs separate')",
    'satellite3 minimal q(1,1,0) 1/4':
        "ExpansivityVerdict(q(1,1,0) 1/4 'minimal' True None '')",
    'satellite3 ball q(1,1,0) 1/4':
        'SatelliteBall(q(1,1,0) (q(1,1,0)) None)',
    'satellite3 expansive q(1,1,0) 1/2':
        "ExpansivityVerdict(q(1,1,0) 1/2 'expansive' True None 'nearest orbit pattern separates at 1/1')",
    'satellite3 uniform q(1,1,0) 1/2':
        "ExpansivityVerdict(q(1,1,0) 1/2 'uniform' True None 'all region pairs separate')",
    'satellite3 minimal q(1,1,0) 1/2':
        "ExpansivityVerdict(q(1,1,0) 1/2 'minimal' True None '')",
    'satellite3 ball q(1,1,0) 1/2':
        'SatelliteBall(q(1,1,0) (q(1,1,0)) None)',
    'satellite3 expansive q(1,1,0) 1':
        "ExpansivityVerdict(q(1,1,0) 1/1 'expansive' False (q(1,1,0) q(2,1,0)) '')",
    'satellite3 uniform q(1,1,0) 1':
        "ExpansivityVerdict(q(1,1,0) 1/1 'uniform' True None 'all region pairs separate')",
    'satellite3 minimal q(1,1,0) 1':
        "ExpansivityVerdict(q(1,1,0) 1/1 'minimal' True None '')",
    'satellite3 ball q(1,1,0) 1':
        'SatelliteBall(q(1,1,0) (q(1,1,0)) None)',
    'satellite3 expansive q(1,1,0) 3/2':
        "ExpansivityVerdict(q(1,1,0) 3/2 'expansive' False (q(1,1,0) q(2,1,0)) '')",
    'satellite3 uniform q(1,1,0) 3/2':
        "ExpansivityVerdict(q(1,1,0) 3/2 'uniform' False (01~~01@0 01~1~10@2) '')",
    'satellite3 minimal q(1,1,0) 3/2':
        "ExpansivityVerdict(q(1,1,0) 3/2 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'satellite3 ball q(1,1,0) 3/2':
        'SatelliteBall(q(1,1,0) (q(1,1,0) q(2,1,0) q(3,1,0) q(1,3,0) q(2,3,0) q(3,3,0)) ShiftBall(01~~01@0 2))',
    'satellite3 expansive q(1,1,0) 2':
        "ExpansivityVerdict(q(1,1,0) 2/1 'expansive' False (q(1,1,0) q(2,1,0)) '')",
    'satellite3 uniform q(1,1,0) 2':
        "ExpansivityVerdict(q(1,1,0) 2/1 'uniform' False (01~~01@0 10~0~01@1) '')",
    'satellite3 minimal q(1,1,0) 2':
        "ExpansivityVerdict(q(1,1,0) 2/1 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'satellite3 ball q(1,1,0) 2':
        'SatelliteBall(q(1,1,0) (q(1,1,0) q(2,1,0) q(3,1,0) q(1,2,0) q(2,2,0) q(3,2,0) q(1,3,0) q(2,3,0) q(3,3,0)) ShiftBall(01~~01@0 1))',
    'satellite3 expansive q(1,1,0) 5/2':
        "ExpansivityVerdict(q(1,1,0) 5/2 'expansive' False (q(1,1,0) q(2,1,0)) '')",
    'satellite3 uniform q(1,1,0) 5/2':
        "ExpansivityVerdict(q(1,1,0) 5/2 'uniform' False (01~~01@0 01~1~10@0) '')",
    'satellite3 minimal q(1,1,0) 5/2':
        "ExpansivityVerdict(q(1,1,0) 5/2 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'satellite3 ball q(1,1,0) 5/2':
        'SatelliteBall(q(1,1,0) (q(1,1,0) q(2,1,0) q(3,1,0) q(1,2,0) q(2,2,0) q(3,2,0) q(1,3,0) q(2,3,0) q(3,3,0) q(1,3,1) q(2,3,1) q(3,3,1)) ShiftBall(01~~01@0 0))',
    'satellite3 expansive q(2,3,1) 1/4':
        "ExpansivityVerdict(q(2,3,1) 1/4 'expansive' True None 'nearest orbit pattern separates at 1/3')",
    'satellite3 uniform q(2,3,1) 1/4':
        "ExpansivityVerdict(q(2,3,1) 1/4 'uniform' True None 'all region pairs separate')",
    'satellite3 minimal q(2,3,1) 1/4':
        "ExpansivityVerdict(q(2,3,1) 1/4 'minimal' True None '')",
    'satellite3 ball q(2,3,1) 1/4':
        'SatelliteBall(q(2,3,1) (q(2,3,1)) None)',
    'satellite3 expansive q(2,3,1) 1/2':
        "ExpansivityVerdict(q(2,3,1) 1/2 'expansive' False (q(2,3,1) q(3,3,1)) '')",
    'satellite3 uniform q(2,3,1) 1/2':
        "ExpansivityVerdict(q(2,3,1) 1/2 'uniform' False (q(1,3,1) 10~~10@0) '')",
    'satellite3 minimal q(2,3,1) 1/2':
        "ExpansivityVerdict(q(2,3,1) 1/2 'minimal' True None '')",
    'satellite3 ball q(2,3,1) 1/2':
        'SatelliteBall(q(2,3,1) (q(1,3,1) q(2,3,1) q(3,3,1)) ShiftBall(10~~10@0 3))',
    'satellite3 expansive q(2,3,1) 1':
        "ExpansivityVerdict(q(2,3,1) 1/1 'expansive' False (q(2,3,1) q(3,3,1)) '')",
    'satellite3 uniform q(2,3,1) 1':
        "ExpansivityVerdict(q(2,3,1) 1/1 'uniform' False (10~~10@0 01~1~10@1) '')",
    'satellite3 minimal q(2,3,1) 1':
        "ExpansivityVerdict(q(2,3,1) 1/1 'minimal' False (10~~10@0 01~~01@0) 'orbit closure of 10~~10@0 fails')",
    'satellite3 ball q(2,3,1) 1':
        'SatelliteBall(q(2,3,1) (q(1,2,1) q(2,2,1) q(3,2,1) q(1,3,1) q(2,3,1) q(3,3,1)) ShiftBall(10~~10@0 1))',
    'satellite3 expansive q(2,3,1) 3/2':
        "ExpansivityVerdict(q(2,3,1) 3/2 'expansive' False (q(2,3,1) q(3,3,1)) '')",
    'satellite3 uniform q(2,3,1) 3/2':
        "ExpansivityVerdict(q(2,3,1) 3/2 'uniform' False (10~~10@0 10~0~01@0) '')",
    'satellite3 minimal q(2,3,1) 3/2':
        "ExpansivityVerdict(q(2,3,1) 3/2 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'satellite3 ball q(2,3,1) 3/2':
        'SatelliteBall(q(2,3,1) (q(1,1,1) q(2,1,1) q(3,1,1) q(1,2,1) q(2,2,1) q(3,2,1) q(1,3,1) q(2,3,1) q(3,3,1)) ShiftBall(10~~10@0 0))',
    'satellite3 expansive q(2,3,1) 2':
        "ExpansivityVerdict(q(2,3,1) 2/1 'expansive' False (q(2,3,1) q(3,3,1)) '')",
    'satellite3 uniform q(2,3,1) 2':
        "ExpansivityVerdict(q(2,3,1) 2/1 'uniform' False (10~~10@0 10~0~01@0) '')",
    'satellite3 minimal q(2,3,1) 2':
        "ExpansivityVerdict(q(2,3,1) 2/1 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'satellite3 ball q(2,3,1) 2':
        'SatelliteBall(q(2,3,1) (q(1,1,1) q(2,1,1) q(3,1,1) q(1,2,0) q(2,2,0) q(3,2,0) q(1,2,1) q(2,2,1) q(3,2,1) q(1,3,0) q(2,3,0) q(3,3,0) q(1,3,1) q(2,3,1) q(3,3,1)) ShiftBall(10~~10@0 0))',
    'satellite3 expansive q(2,3,1) 5/2':
        "ExpansivityVerdict(q(2,3,1) 5/2 'expansive' False (q(2,3,1) q(3,3,1)) '')",
    'satellite3 uniform q(2,3,1) 5/2':
        "ExpansivityVerdict(q(2,3,1) 5/2 'uniform' False (10~~10@0 10~0~01@0) '')",
    'satellite3 minimal q(2,3,1) 5/2':
        "ExpansivityVerdict(q(2,3,1) 5/2 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'satellite3 ball q(2,3,1) 5/2':
        'SatelliteBall(q(2,3,1) (q(1,1,0) q(2,1,0) q(3,1,0) q(1,1,1) q(2,1,1) q(3,1,1) q(1,2,0) q(2,2,0) q(3,2,0) q(1,2,1) q(2,2,1) q(3,2,1) q(1,3,0) q(2,3,0) q(3,3,0) q(1,3,1) q(2,3,1) q(3,3,1)) ShiftBall(10~~10@0 0))',
    'satellite3 expansive 0~1~0@0 1/4':
        "ExpansivityVerdict(0~1~0@0 1/4 'expansive' True None '')",
    'satellite3 uniform 0~1~0@0 1/4':
        "ExpansivityVerdict(0~1~0@0 1/4 'uniform' True None 'all region pairs separate')",
    'satellite3 minimal 0~1~0@0 1/4':
        "ExpansivityVerdict(0~1~0@0 1/4 'minimal' True None '')",
    'satellite3 ball 0~1~0@0 1/4':
        'SatelliteBall(0~1~0@0 () ShiftBall(0~1~0@0 3))',
    'satellite3 expansive 0~1~0@0 1/2':
        "ExpansivityVerdict(0~1~0@0 1/2 'expansive' True None '')",
    'satellite3 uniform 0~1~0@0 1/2':
        "ExpansivityVerdict(0~1~0@0 1/2 'uniform' True None 'all region pairs separate')",
    'satellite3 minimal 0~1~0@0 1/2':
        "ExpansivityVerdict(0~1~0@0 1/2 'minimal' True None '')",
    'satellite3 ball 0~1~0@0 1/2':
        'SatelliteBall(0~1~0@0 () ShiftBall(0~1~0@0 2))',
    'satellite3 expansive 0~1~0@0 1':
        "ExpansivityVerdict(0~1~0@0 1/1 'expansive' False (0~1~0@0 0~~0@0) '')",
    'satellite3 uniform 0~1~0@0 1':
        "ExpansivityVerdict(0~1~0@0 1/1 'uniform' False (0~1~0@0 0~11~0@0) '')",
    'satellite3 minimal 0~1~0@0 1':
        "ExpansivityVerdict(0~1~0@0 1/1 'minimal' False (0~1~0@0 0~1~0@-1) 'orbit closure of 0~1~0@0 fails')",
    'satellite3 ball 0~1~0@0 1':
        'SatelliteBall(0~1~0@0 (q(1,2,1) q(2,2,1) q(3,2,1) q(1,3,1) q(2,3,1) q(3,3,1)) ShiftBall(0~1~0@0 1))',
    'satellite3 expansive 0~1~0@0 3/2':
        "ExpansivityVerdict(0~1~0@0 3/2 'expansive' False (0~1~0@0 0~~0@0) '')",
    'satellite3 uniform 0~1~0@0 3/2':
        "ExpansivityVerdict(0~1~0@0 3/2 'uniform' False (0~1~0@0 0~~0@0) '')",
    'satellite3 minimal 0~1~0@0 3/2':
        "ExpansivityVerdict(0~1~0@0 3/2 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'satellite3 ball 0~1~0@0 3/2':
        'SatelliteBall(0~1~0@0 (q(1,1,1) q(2,1,1) q(3,1,1) q(1,2,1) q(2,2,1) q(3,2,1) q(1,3,0) q(2,3,0) q(3,3,0) q(1,3,1) q(2,3,1) q(3,3,1)) ShiftBall(0~1~0@0 0))',
    'satellite3 expansive 0~1~0@0 2':
        "ExpansivityVerdict(0~1~0@0 2/1 'expansive' False (0~1~0@0 0~~0@0) '')",
    'satellite3 uniform 0~1~0@0 2':
        "ExpansivityVerdict(0~1~0@0 2/1 'uniform' False (0~1~0@0 0~~0@0) '')",
    'satellite3 minimal 0~1~0@0 2':
        "ExpansivityVerdict(0~1~0@0 2/1 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'satellite3 ball 0~1~0@0 2':
        'SatelliteBall(0~1~0@0 (q(1,1,1) q(2,1,1) q(3,1,1) q(1,2,0) q(2,2,0) q(3,2,0) q(1,2,1) q(2,2,1) q(3,2,1) q(1,3,0) q(2,3,0) q(3,3,0) q(1,3,1) q(2,3,1) q(3,3,1)) ShiftBall(0~1~0@0 0))',
    'satellite3 expansive 0~1~0@0 5/2':
        "ExpansivityVerdict(0~1~0@0 5/2 'expansive' False (0~1~0@0 0~~0@0) '')",
    'satellite3 uniform 0~1~0@0 5/2':
        "ExpansivityVerdict(0~1~0@0 5/2 'uniform' False (0~1~0@0 0~~0@0) '')",
    'satellite3 minimal 0~1~0@0 5/2':
        "ExpansivityVerdict(0~1~0@0 5/2 'minimal' False (01~~01@0 10~~10@0) 'orbit closure of 01~~01@0 fails')",
    'satellite3 ball 0~1~0@0 5/2':
        'SatelliteBall(0~1~0@0 (q(1,1,0) q(2,1,0) q(3,1,0) q(1,1,1) q(2,1,1) q(3,1,1) q(1,2,0) q(2,2,0) q(3,2,0) q(1,2,1) q(2,2,1) q(3,2,1) q(1,3,0) q(2,3,0) q(3,3,0) q(1,3,1) q(2,3,1) q(3,3,1)) ShiftBall(0~1~0@0 0))',
    'shift2 conjugacy 0~1~0@0':
        "ConjugacyResult(True None () None 0/1 True 1/32 'unperturbed map: h is the identity on the orbit closure')",
    'satellite3 point_verdicts minimal 1/2':
        "{001~~001@0:ExpansivityVerdict(001~~001@0 1/2 'minimal' True None '') 011~~011@0:ExpansivityVerdict(011~~011@0 1/2 'minimal' True None '') 01~~01@0:ExpansivityVerdict(01~~01@0 1/2 'minimal' True None '') 01~~10@1:ExpansivityVerdict(01~~10@1 1/2 'minimal' True None '') 0~~0@0:ExpansivityVerdict(0~~0@0 1/2 'minimal' True None '') 0~~1@1:ExpansivityVerdict(0~~1@1 1/2 'minimal' True None '') 100~~100@0:ExpansivityVerdict(100~~100@0 1/2 'minimal' True None '') 10~~01@1:ExpansivityVerdict(10~~01@1 1/2 'minimal' True None '') 10~~10@0:ExpansivityVerdict(10~~10@0 1/2 'minimal' True None '') 110~~110@0:ExpansivityVerdict(110~~110@0 1/2 'minimal' True None '') 1~~0@1:ExpansivityVerdict(1~~0@1 1/2 'minimal' True None '') 1~~1@0:ExpansivityVerdict(1~~1@0 1/2 'minimal' True None '') 01~1~10@0:ExpansivityVerdict(01~1~10@0 1/2 'minimal' True None '') 01~1~10@5:ExpansivityVerdict(01~1~10@5 1/2 'minimal' True None '') 0~1~0@0:ExpansivityVerdict(0~1~0@0 1/2 'minimal' True None '') 10~0~01@1:ExpansivityVerdict(10~0~01@1 1/2 'minimal' True None '') 1~0~1@0:ExpansivityVerdict(1~0~1@0 1/2 'minimal' True None '') 0~11~0@0:ExpansivityVerdict(0~11~0@0 1/2 'minimal' True None '') 1~00~1@0:ExpansivityVerdict(1~00~1@0 1/2 'minimal' True None '') 01~100~01@-2:ExpansivityVerdict(01~100~01@-2 1/2 'minimal' True None '') 0~101~0@-1:ExpansivityVerdict(0~101~0@-1 1/2 'minimal' True None '') 1~010~1@-1:ExpansivityVerdict(1~010~1@-1 1/2 'minimal' True None '') q(1,1,0):ExpansivityVerdict(q(1,1,0) 1/2 'minimal' True None '') q(2,1,0):ExpansivityVerdict(q(2,1,0) 1/2 'minimal' True None '') q(3,1,0):ExpansivityVerdict(q(3,1,0) 1/2 'minimal' True None '') q(1,1,1):ExpansivityVerdict(q(1,1,1) 1/2 'minimal' True None '') q(2,1,1):ExpansivityVerdict(q(2,1,1) 1/2 'minimal' True None '') q(3,1,1):ExpansivityVerdict(q(3,1,1) 1/2 'minimal' True None '') q(1,2,0):ExpansivityVerdict(q(1,2,0) 1/2 'minimal' True None '') q(2,2,0):ExpansivityVerdict(q(2,2,0) 1/2 'minimal' True None '') q(3,2,0):ExpansivityVerdict(q(3,2,0) 1/2 'minimal' True None '') q(1,2,1):ExpansivityVerdict(q(1,2,1) 1/2 'minimal' True None '') q(2,2,1):ExpansivityVerdict(q(2,2,1) 1/2 'minimal' True None '') q(3,2,1):ExpansivityVerdict(q(3,2,1) 1/2 'minimal' True None '') q(1,3,0):ExpansivityVerdict(q(1,3,0) 1/2 'minimal' True None '') q(2,3,0):ExpansivityVerdict(q(2,3,0) 1/2 'minimal' True None '') q(3,3,0):ExpansivityVerdict(q(3,3,0) 1/2 'minimal' True None '') q(1,3,1):ExpansivityVerdict(q(1,3,1) 1/2 'minimal' True None '') q(2,3,1):ExpansivityVerdict(q(2,3,1) 1/2 'minimal' True None '') q(3,3,1):ExpansivityVerdict(q(3,3,1) 1/2 'minimal' True None '')}",
    'shift2 mixed_sample':
        '(0~~0@0 1~~1@0 01~~01@0 10~~10@0 001~~001@0 011~~011@0 0~1~0@0 1~0~1@0 0~11~0@0 0~10~1@-1 01~1~10@0 1~00~01@2)',
    'satellite3 mixed_sample':
        '(01~~01@0 10~~10@0 0~~0@0 1~~1@0 001~~001@0 011~~011@0 110~~110@0 100~~100@0 0~1~0@0 1~0~1@0 10~~01@1 01~~10@1 01~1~10@0 10~0~01@1 0~11~0@0 1~00~1@0 0~~1@1 1~~0@1 0~101~0@-1 1~010~1@-1 01~100~01@-2 01~1~10@5 q(1,1,0) q(2,1,0) q(3,1,0) q(1,1,1) q(2,1,1) q(3,1,1) q(1,2,0) q(2,2,0) q(3,2,0) q(1,2,1) q(2,2,1) q(3,2,1) q(1,3,0) q(2,3,0) q(3,3,0) q(1,3,1) q(2,3,1) q(3,3,1))',
    'satellite3 hand-ball q(1,1,0) q(1,2,1) y=- 2':
        "ExpansivityVerdict(None 2/1 'expansive_on' True None 'all region pairs separate')",
    'satellite3 hand-ball q(1,1,0) q(1,2,1) y=- 5/2':
        "ExpansivityVerdict(None 5/2 'expansive_on' False (q(1,1,0) q(1,2,1)) '')",
}
