"""Deterministic JSON report assembly.

Reports are plain dicts rendered with sorted keys and fixed separators
so identical invocations yield byte-identical output. Rationals appear
as "p/q" strings, carrier points by their labels, point sets sorted by
the canonical point order. Wall-clock timing never enters the payload;
the command line prints it to stderr instead.
"""

import json

from . import __version__
from .rationals import as_rational, format_rational
from .systems import point_label, sorted_points

TOOL = "pointdyn"


def rat(value) -> str:
    return format_rational(as_rational(value))


def opt_rat(value):
    return None if value is None else rat(value)


def labels(points) -> list:
    return [point_label(p) for p in sorted_points(points)]


def table(mapping) -> dict:
    """Point-to-point dict with labeled keys/values, key-sorted by point."""
    return {point_label(k): point_label(mapping[k])
            for k in sorted_points(mapping)}


def system_info(system) -> dict:
    return {"name": system.name, "backend": system.backend,
            "digest": system.digest()}


def assemble(verb: str, echo: dict, results: dict, systems) -> dict:
    """The report of verb: the echo of its arguments with the absent ones
    dropped, its results, and the systems it read, the primary one first."""
    payload = {
        "tool": TOOL,
        "version": __version__,
        "verb": verb,
        "command": {k: echo[k] for k in sorted(echo) if echo[k] is not None},
        "results": results,
        "system": system_info(systems[0]),
    }
    if systems[1:]:
        payload["others"] = [system_info(s) for s in systems[1:]]
    return payload


def render(payload: dict, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(payload, sort_keys=True, indent=2)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
