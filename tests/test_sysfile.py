"""Stanza text format: round trips and line-numbered parse errors."""

import inspect
from fractions import Fraction as F

import pytest

from pointdyn import sysfile
from pointdyn.bundled import bundled_system, bundled_measure, shift_probes
from pointdyn.systems import build_satellite, build_shift, c0_distance, Satellite
from pointdyn.shiftspace import pure
from pointdyn.errors import MalformedInputError

FINITE = ("id3", "nearpair4", "r6k2", "r12k1", "r12k3", "r12k5", "cat5")


def test_bundled_systems_round_trip():
    for name in FINITE + ("shift2", "satellite3"):
        s = bundled_system(name)
        sf = sysfile.loads(sysfile.dumps(system=s))
        assert sf.system.name == s.name
        assert sf.system.carrier_token() == s.carrier_token()
        assert c0_distance(s, sf.system) == 0


def test_explicit_stanza_parses_distances():
    text = """\
explicit {
  n = 3
  d 0 1 1/2
  d 0 2 1
  d 1 2 1
  map = 1 2 0
  name = tri
}
"""
    sf = sysfile.loads(text)
    s = sf.system
    assert s.name == "tri"
    assert s.dist(0, 1) == F(1, 2) and s.dist(1, 2) == 1
    assert s.image(0) == 1 and s.image(2) == 0


def test_shift_stanza_with_probes():
    text = sysfile.dumps(system=build_shift(2, name="shift2", probes=shift_probes()[:3]))
    sf = sysfile.loads(text)
    assert sf.system.backend == "shift"
    assert sf.system.probes == tuple(shift_probes()[:3])


def test_satellite_stanza_keeps_marked_word_and_probes():
    sat = bundled_system("satellite3")
    sf = sysfile.loads(sysfile.dumps(system=sat))
    assert sf.system.K == 3 and sf.system.t == 2
    assert sf.system.p == pure((0, 1))
    assert sf.system.image(Satellite(1, 2, 1)) == Satellite(1, 2, 0)
    assert len(sf.system.probes) == len(sat.probes)


def test_satellite_stanza_keeps_its_alphabet():
    # the stanza once dropped the alphabet, so a satellite over three
    # symbols read back over two; alphabet 2 is still written as before
    sat = build_satellite(1, 2, pure((0, 1)), alphabet=3)
    text = sysfile.dumps(system=sat)
    assert "  alphabet = 3\n" in text
    back = sysfile.loads(text).system
    assert back.alphabet == 3 and back.carrier_token() == sat.carrier_token()
    two = sysfile.dumps(system=build_satellite(1, 2, pure((0, 1))))
    assert "alphabet" not in two and sysfile.loads(two).system.alphabet == 2


def test_measure_stanzas_round_trip():
    for name in ("uniform3", "nullpoint3", "bernoulli_half"):
        mu = bundled_measure(name)
        sf = sysfile.loads(sysfile.dumps(measure=mu))
        assert sf.measure == mu


def test_combined_file():
    text = sysfile.dumps(system=bundled_system("shift2"),
                         measure=bundled_measure("bernoulli_half"))
    sf = sysfile.loads(text)
    assert sf.system is not None and sf.measure is not None


def error_line(text):
    with pytest.raises(MalformedInputError) as err:
        sysfile.loads(text)
    return str(err.value)


def test_parse_errors_carry_line_numbers():
    msg = error_line("explicit {\n  n = x\n}\n")
    assert "line 2" in msg

    msg = error_line("lattice {\n  n = 12\n  map = rot 3\n  map = rot 4\n}\n")
    assert "line 4" in msg and "duplicate" in msg

    msg = error_line("lattice {\n  n = 12\n  wibble = 3\n}\n")
    assert "line 3" in msg

    msg = error_line("lattice {\n  n = 12\n  map = rot 3\n")
    assert "unterminated" in msg


LATTICE = "lattice {\n  n = 12\n  map = rot 1\n}\n"
BERNOULLI = "measure {\n  bernoulli = 1/2 1/2\n}\n"
# one text per _fail call of sysfile.py, in source order, and its message
FAIL_CASES = [
    ("lattice\n", "line 1: expected a stanza header like 'lattice {', got 'lattice'"),
    ("\nlattice {\n  n = 12\n", "line 2: unterminated 'lattice' stanza"),
    ("lattice {\n  n 12\n}\n", "line 2: expected 'key = value', got 'n 12'"),
    ("lattice {\n  n =\n}\n", "line 2: expected 'key = value', got 'n ='"),
    ("lattice {\n  n = 12\n  n = 6\n}\n", "line 3: duplicate key 'n'"),
    ("lattice {\n  n = 12\n}\n", "line 1: missing required key 'map'"),
    ("lattice {\n  n = 12\n  wibble = 3\n  map = rot 1\n}\n",
     "line 3: unknown key 'wibble' in 'lattice' stanza"),
    ("lattice {\n  n = x\n  map = rot 1\n}\n", "line 2: n must be an integer, got 'x'"),
    ("shift {\n  alphabet = 2\n  probes = 0~~0@0 zz\n}\n",
     "line 3: EPPoint needs left~center~right: 'zz'"),
    ("explicit {\n  n = 0\n  map = 0\n}\n", "line 2: n must be positive"),
    ("explicit {\n  n = 2\n  d 0 1\n  map = 0 1\n}\n",
     "line 3: distance rows read 'd i j p/q', got 'd 0 1'"),
    ("explicit {\n  n = 2\n  d 0 0 1\n  map = 0 1\n}\n",
     "line 3: distance indices must be distinct carrier points, got 0 0"),
    ("explicit {\n  n = 2\n  d 0 1 1\n  d 1 0 1\n  map = 0 1\n}\n",
     "line 4: distance for pair 1 0 given twice"),
    ("explicit {\n  n = 2\n  d 0 1 x\n  map = 0 1\n}\n", "line 3: not a rational: 'x'"),
    ("explicit {\n  n = 3\n  d 0 1 1\n  map = 0 1 2\n}\n",
     "line 1: missing distance for pair 0 2"),
    ("explicit {\n  n = 2\n  d 0 1 1\n  map = 0\n}\n", "line 4: map needs 2 entries, got 1"),
    ("lattice {\n  n = 12\n  map = flip 1\n}\n",
     "line 3: map must be 'rot k' or 'mat a b c d', got 'flip 1'"),
    ("satellite {\n  K = 1\n  t = 2\n  p = zz\n}\n",
     "line 4: EPPoint needs left~center~right: 'zz'"),
    ("measure {\n}\n", "line 1: measure stanza needs exactly one of 'weights', 'bernoulli'"),
    ("measure {\n  weights = 0\n}\n", "line 2: weights entries read 'point:p/q', got '0'"),
    ("measure {\n  weights = 0:1 0:1\n}\n", "line 2: weight for point 0 given twice"),
    ("measure {\n  weights = 0:x\n}\n", "line 2: not a rational: 'x'"),
    ("measure {\n  weights = 0:0\n}\n", "line 2: measure must be nontrivial (total > 0)"),
    ("measure {\n  bernoulli = 1/2 1/3\n}\n", "line 2: Bernoulli weights must sum to 1"),
    (LATTICE + LATTICE, "line 5: a file may hold only one system stanza"),
    (BERNOULLI + LATTICE + BERNOULLI, "line 8: a file may hold only one measure stanza"),
    ("wibble {\n}\n", "line 1: unknown stanza kind 'wibble'"),
]


def test_every_fail_message_names_its_line():
    source = inspect.getsource(sysfile)
    assert len(FAIL_CASES) == source.count("_fail(") - 1    # less the definition
    for text, message in FAIL_CASES:
        assert error_line(text) == message


def test_two_system_stanzas_rejected():
    text = (sysfile.dumps(system=bundled_system("id3"))
            + sysfile.dumps(system=bundled_system("r12k3")))
    with pytest.raises(MalformedInputError):
        sysfile.loads(text)


def test_explicit_stanza_requires_all_pairs():
    text = """\
explicit {
  n = 3
  d 0 1 1/2
  map = 0 1 2
}
"""
    with pytest.raises(MalformedInputError):
        sysfile.loads(text)


def test_load_file(tmp_path):
    path = tmp_path / "sys.pdl"
    path.write_text(sysfile.dumps(system=bundled_system("r6k2")))
    sf = sysfile.load_file(str(path))
    assert sf.system.name == "r6k2"
