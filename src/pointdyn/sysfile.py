"""Declarative text files describing systems and measures.

A file holds at most one system stanza and at most one measure stanza::

    # a 12-point rotation
    lattice {
      n = 12
      map = rot 3
    }

    measure {
      weights = 0:1 1:0 2:2
    }

Stanza kinds: ``explicit`` (metric table rows ``d i j p/q`` plus
``map = ...``), ``lattice`` (circle ``map = rot k`` or torus
``map = mat a b c d``), ``shift`` (``alphabet = n``), ``satellite``
(``K``, ``t``, marked point ``p``, ``alphabet = n`` unless n = 2).
Shift and satellite stanzas may carry a ``probes =`` list of points
written ``left~center~right@offset``; they become the system's ``probes``.
Weighted measures in files use integer carrier points only; richer
carriers are constructed programmatically. All parse failures carry
the 1-based line number.
"""

from typing import NamedTuple

from .errors import MalformedInputError
from .metric import FiniteMetricSpace
from .rationals import format_rational, parse_rational
from .shiftspace import format_ep, parse_ep
from .systems import (build_explicit, build_lattice, build_satellite,
                      build_shift)


class SystemFile(NamedTuple):
    system: object              # None for measure-only files
    measure: object             # None unless a measure stanza is present


def _fail(lineno, message):
    raise MalformedInputError(f"line {lineno}: {message}")


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _stanzas(text: str):
    """Yield (kind, opening lineno, [(lineno, line), ...]) per stanza."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno, line = i + 1, _strip(lines[i])
        i += 1
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] != "{":
            _fail(lineno, f"expected a stanza header like 'lattice {{', got {line!r}")
        kind = parts[0]
        body, closed = [], False
        while i < len(lines):
            inner_no, inner = i + 1, _strip(lines[i])
            i += 1
            if inner == "}":
                closed = True
                break
            if inner:
                body.append((inner_no, inner))
        if not closed:
            _fail(lineno, f"unterminated {kind!r} stanza")
        yield kind, lineno, body


def _keyvalues(body, lineno, *, allow_d=False):
    """Split stanza lines into a key->(lineno, value) dict plus d-rows."""
    fields, rows = {}, []
    for no, line in body:
        if allow_d and line.split()[0] == "d":
            rows.append((no, line))
            continue
        if "=" not in line:
            _fail(no, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            _fail(no, f"expected 'key = value', got {line!r}")
        if key in fields:
            _fail(no, f"duplicate key {key!r}")
        fields[key] = (no, value)
    return fields, rows


def _take(fields, key, lineno, required=True):
    if key in fields:
        return fields.pop(key)
    if required:
        _fail(lineno, f"missing required key {key!r}")
    return None


def _check_keys(fields, kind, known):
    for key, (no, _value) in fields.items():
        if key not in known:
            _fail(no, f"unknown key {key!r} in {kind!r} stanza")


def _parse_int(text, lineno, what):
    try:
        return int(text)
    except ValueError:
        _fail(lineno, f"{what} must be an integer, got {text!r}")


def _parse_points(text, lineno):
    try:
        return tuple(parse_ep(tok) for tok in text.split())
    except MalformedInputError as exc:
        _fail(lineno, str(exc))


def _parse_explicit(lineno, body):
    fields, rows = _keyvalues(body, lineno, allow_d=True)
    _check_keys(fields, "explicit", {"n", "map", "name"})
    no_n, n_text = _take(fields, "n", lineno)
    n = _parse_int(n_text, no_n, "n")
    if n < 1:
        _fail(no_n, "n must be positive")
    no_map, map_text = _take(fields, "map", lineno)
    name = _take(fields, "name", lineno, required=False)
    table = [[None] * n for _ in range(n)]
    for a in range(n):
        table[a][a] = parse_rational("0")
    for no, line in rows:
        parts = line.split()
        if len(parts) != 4:
            _fail(no, f"distance rows read 'd i j p/q', got {line!r}")
        i = _parse_int(parts[1], no, "row index")
        j = _parse_int(parts[2], no, "column index")
        if not (0 <= i < n and 0 <= j < n) or i == j:
            _fail(no, f"distance indices must be distinct carrier points, got {i} {j}")
        if table[i][j] is not None:
            _fail(no, f"distance for pair {i} {j} given twice")
        try:
            value = parse_rational(parts[3])
        except MalformedInputError as exc:
            _fail(no, str(exc))
        table[i][j] = table[j][i] = value
    missing = [(a, b) for a in range(n) for b in range(a + 1, n)
               if table[a][b] is None]
    if missing:
        _fail(lineno, f"missing distance for pair {missing[0][0]} {missing[0][1]}")
    perm = tuple(_parse_int(tok, no_map, "map entry") for tok in map_text.split())
    if len(perm) != n:
        _fail(no_map, f"map needs {n} entries, got {len(perm)}")
    name_text = name[1] if name else "explicit"
    return build_explicit(FiniteMetricSpace(table), perm, name=name_text)


def _parse_lattice(lineno, body):
    fields, _ = _keyvalues(body, lineno)
    _check_keys(fields, "lattice", {"n", "map", "name"})
    no_n, n_text = _take(fields, "n", lineno)
    n = _parse_int(n_text, no_n, "n")
    no_map, map_text = _take(fields, "map", lineno)
    name = _take(fields, "name", lineno, required=False)
    parts = map_text.split()
    name_text = name[1] if name else None
    if parts and parts[0] == "rot" and len(parts) == 2:
        step = _parse_int(parts[1], no_map, "rotation step")
        return build_lattice(n, kind="circle", step=step, name=name_text)
    if parts and parts[0] == "mat" and len(parts) == 5:
        matrix = tuple(_parse_int(tok, no_map, "matrix entry")
                       for tok in parts[1:])
        return build_lattice(n, kind="torus", matrix=matrix, name=name_text)
    _fail(no_map, f"map must be 'rot k' or 'mat a b c d', got {map_text!r}")


def _parse_shift(lineno, body):
    fields, _ = _keyvalues(body, lineno)
    _check_keys(fields, "shift", {"alphabet", "probes", "name"})
    no_a, a_text = _take(fields, "alphabet", lineno)
    alphabet = _parse_int(a_text, no_a, "alphabet")
    probes = _take(fields, "probes", lineno, required=False)
    name = _take(fields, "name", lineno, required=False)
    pts = _parse_points(probes[1], probes[0]) if probes else ()
    return build_shift(alphabet, name=name[1] if name else None, probes=pts)


def _parse_satellite(lineno, body):
    fields, _ = _keyvalues(body, lineno)
    _check_keys(fields, "satellite", {"K", "t", "p", "alphabet", "probes", "name"})
    no_k, k_text = _take(fields, "K", lineno)
    K = _parse_int(k_text, no_k, "K")
    no_t, t_text = _take(fields, "t", lineno)
    t = _parse_int(t_text, no_t, "t")
    no_p, p_text = _take(fields, "p", lineno)
    alphabet = _take(fields, "alphabet", lineno, required=False)
    probes = _take(fields, "probes", lineno, required=False)
    name = _take(fields, "name", lineno, required=False)
    try:
        p = parse_ep(p_text)
    except MalformedInputError as exc:
        _fail(no_p, str(exc))
    pts = _parse_points(probes[1], probes[0]) if probes else ()
    alphabet = _parse_int(alphabet[1], alphabet[0], "alphabet") if alphabet else 2
    return build_satellite(K, t, p, probes=pts, alphabet=alphabet,
                           name=name[1] if name else None)


# stanza kind -> its parser
SYSTEM_KINDS = {"explicit": _parse_explicit, "lattice": _parse_lattice,
                "shift": _parse_shift, "satellite": _parse_satellite}


def _parse_measure(lineno, body):
    # imported here, so a file that holds no measure loads no decider
    from .measures import WeightedMeasure
    fields, _ = _keyvalues(body, lineno)
    _check_keys(fields, "measure", {"weights", "bernoulli"})
    weights = _take(fields, "weights", lineno, required=False)
    bernoulli = _take(fields, "bernoulli", lineno, required=False)
    if (weights is None) == (bernoulli is None):
        _fail(lineno, "measure stanza needs exactly one of 'weights', 'bernoulli'")
    if weights is not None:
        no, text = weights
        table = {}
        for tok in text.split():
            if ":" not in tok:
                _fail(no, f"weights entries read 'point:p/q', got {tok!r}")
            point, _, value = tok.partition(":")
            point = _parse_int(point, no, "weight carrier point")
            if point in table:
                _fail(no, f"weight for point {point} given twice")
            try:
                table[point] = parse_rational(value)
            except MalformedInputError as exc:
                _fail(no, str(exc))
        try:
            return WeightedMeasure.from_weights(table)
        except MalformedInputError as exc:
            _fail(no, str(exc))
    no, text = bernoulli
    try:
        probs = tuple(parse_rational(tok) for tok in text.split())
        return WeightedMeasure.from_bernoulli(probs)
    except MalformedInputError as exc:
        _fail(no, str(exc))


def loads(text: str) -> SystemFile:
    system, measure = None, None
    for kind, lineno, body in _stanzas(text):
        if kind in SYSTEM_KINDS:
            if system is not None:
                _fail(lineno, "a file may hold only one system stanza")
            system = SYSTEM_KINDS[kind](lineno, body)
        elif kind == "measure":
            if measure is not None:
                _fail(lineno, "a file may hold only one measure stanza")
            measure = _parse_measure(lineno, body)
        else:
            _fail(lineno, f"unknown stanza kind {kind!r}")
    return SystemFile(system, measure)


def load_file(path) -> SystemFile:
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())


def dumps(system=None, measure=None) -> str:
    """Canonical text for the given pieces; parses back to equal objects."""
    chunks = []
    if system is not None:
        chunks.append(_dump_system(system))
    if measure is not None:
        chunks.append(_dump_measure(measure))
    return "\n\n".join(chunks) + "\n"


def _dump_system(system):
    backend = system.backend
    if backend == "explicit":
        lines = [f"explicit {{", f"  n = {system.space.n}"]
        for a in range(system.space.n):
            for b in range(a + 1, system.space.n):
                lines.append(f"  d {a} {b} {format_rational(system.space.table[a][b])}")
        lines.append("  map = " + " ".join(str(v) for v in system.perm))
        lines.append(f"  name = {system.name}")
        lines.append("}")
        return "\n".join(lines)
    if backend == "lattice":
        if hasattr(system, "matrix"):
            map_text = "mat " + " ".join(str(v) for v in system.matrix)
        else:
            map_text = f"rot {system.step}"
        return "\n".join([
            "lattice {", f"  n = {system.n}", f"  map = {map_text}",
            f"  name = {system.name}", "}"])
    if backend in ("shift", "satellite"):
        lines = (["shift {", f"  alphabet = {system.alphabet}"] if backend == "shift" else
                 ["satellite {", f"  K = {system.K}", f"  t = {system.t}",
                  f"  p = {format_ep(system.p)}"]
                 + [f"  alphabet = {system.alphabet}"] * (system.alphabet != 2))
        if system.probes:
            lines.append("  probes = " + " ".join(map(format_ep, system.probes)))
        return "\n".join(lines + [f"  name = {system.name}", "}"])
    raise MalformedInputError(f"no file form for backend {backend!r}")


def _dump_measure(measure):
    if measure.kind == "weights":
        body = " ".join(f"{p}:{format_rational(w)}"
                        for p, w in sorted(measure.weights.items()))
        return "\n".join(["measure {", f"  weights = {body}", "}"])
    body = " ".join(format_rational(q) for q in measure.bernoulli)
    return "\n".join(["measure {", f"  bernoulli = {body}", "}"])
