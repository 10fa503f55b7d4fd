"""Command-line front end.

Verbs load systems from stanza files (or ``bundled:<name>``), run the
classifiers and pipelines, and return their results, exit code and the
systems they read; main alone echoes the parsed arguments and prints the
one JSON report to stdout. Exit codes: 0 clean pass, 1 property or
clause failure, 2 usage/parse problem, 3 exhausted resource budget.
Timing goes to stderr so reports stay byte-identical across runs.

A pdl process pays for every module it imports, compiled from source
when no bytecode is cached: so only what every verb reads is imported
here, and each verb imports its deciders in the branch that calls them.
"""

import argparse
import os
import sys
import time
from fractions import Fraction

from .errors import (MalformedInputError, PointdynError, PreconditionError,
                     ResourceBudgetError)
from .rationals import dyadic_below, parse_rational, positive
from .report import assemble, labels, opt_rat, rat, render, table
from .shiftspace import parse_ep, shift_metric
from .systems import Satellite, point_label
from . import sysfile

DEFAULT_BUDGET_ENV = "PDL_BUDGET"


# -- input resolution --------------------------------------------------------


def _load(spec: str, stanza: str = "system") -> sysfile.SystemFile:
    """The SystemFile of a stanza file, of ``bundled:<name>`` or of a bare
    bundled name, holding a `stanza` stanza ("system" or "measure"). A file
    that cannot be read as UTF-8 text is a usage error too."""
    if not spec.startswith("bundled:") and os.path.exists(spec):
        try:
            loaded = sysfile.load_file(spec)
        except (OSError, UnicodeDecodeError) as exc:
            raise MalformedInputError(f"cannot read {spec!r}: {exc}") from None
        if getattr(loaded, stanza) is None:
            raise MalformedInputError(f"{spec!r} holds no {stanza} stanza")
        return loaded
    from .bundled import bundled_measure, bundled_system
    bundled = bundled_system if stanza == "system" else bundled_measure
    if spec.startswith("bundled:"):
        value = bundled(spec.split(":", 1)[1])
    else:
        try:
            value = bundled(spec)
        except MalformedInputError:
            raise MalformedInputError(
                f"no such file or bundled {stanza}: {spec!r}") from None
    return sysfile.SystemFile(None, None)._replace(**{stanza: value})


def parse_point(system, text: str):
    """Read a carrier point in the system's own notation; the point must
    belong to the carrier."""
    t = text.strip()
    if not system.finite:
        if system.backend == "satellite" and t.startswith("q(") and t.endswith(")"):
            try:
                i, k, j = (int(v) for v in t[2:-1].split(","))
            except ValueError:
                raise MalformedInputError(f"satellite points read q(i,k,j): {text!r}") from None
            return system.check_point(Satellite(i, k, j))
        return system.check_point(parse_ep(t))
    try:
        if t.startswith("(") and t.endswith(")"):
            point = tuple(int(v) for v in t[1:-1].split(","))
        else:
            point = int(t)
    except ValueError:
        raise MalformedInputError(f"not a carrier point: {text!r}") from None
    if point not in system.kernel.index:
        raise MalformedInputError(f"{text!r} is not a point of the carrier")
    return point


def _scale(text, what, required=True):
    """The rational of the scale flag --what; an absent optional flag is None."""
    if text is None:
        if not required:
            return None
        raise MalformedInputError(f"missing required scale --{what}")
    try:
        return parse_rational(text)
    except MalformedInputError:
        raise MalformedInputError(f"--{what} must be a rational p/q, got {text!r}") from None


def _budget(args):
    """The budget of --budget, else of PDL_BUDGET, else None. Every verb
    that takes a budget reads it first: a negative one is a usage error."""
    budget, source = args.budget, "--budget"
    if budget is None:
        env, source = os.environ.get(DEFAULT_BUDGET_ENV), DEFAULT_BUDGET_ENV
        try:
            budget = int(env) if env else None
        except ValueError:
            raise MalformedInputError(
                f"{DEFAULT_BUDGET_ENV} must be an integer, got {env!r}") from None
    if budget is not None and budget < 0:
        raise MalformedInputError(f"{source} must be nonnegative, got {budget}")
    return budget


def _probe_points(system, args):
    """The system's own probes, then the points of --probe."""
    return list(system.probes) + [parse_point(system, text) for text in args.probe or ()]


# -- verbs --------------------------------------------------------------------


def cmd_validate(args):
    from .bundled import mixed_sample, sampled_space
    from .metric import validate_metric
    system = _load(args.system).system
    sample = system.sample(_probe_points(system, args)) or mixed_sample(system)
    space = sampled_space(system, sample)
    violations = validate_metric(space)
    bijection = all(system.preimage(system.image(x)) == x for x in sample)
    results = {
        "sample_size": len(sample),
        "violations": [
            {"axiom": v.axiom,
             "witness": [point_label(sample[i]) for i in v.witness],
             "detail": v.detail}
            for v in violations
        ],
        "bijection_on_sample": bijection,
        "ok": not violations and bijection,
    }
    return results, 0 if results["ok"] else 1, (system,)


def cmd_classify(args):
    loaded = _load(args.system)
    system = loaded.system
    probe = _probe_points(system, args) or None
    if args.variant == "shadow":
        eps, delta = _scale(args.eps, "eps"), _scale(args.delta, "delta")
        if not system.finite:
            raise MalformedInputError(
                "the exact shadowing classifier needs a finite carrier")
        from .shadowing import shadowable_exact_points
        verdicts = shadowable_exact_points(system, system.sample(probe), eps, delta)
        points = [p for p, ok in verdicts.items() if ok]
        results = {
            "points": labels(points),
            "certificates": {point_label(p): {"result": ok}
                             for p, ok in verdicts.items()},
        }
        return results, 0, (system,)
    c = _scale(args.c, "c")
    if args.variant == "mu-uniform":
        mu = _resolve_measure(args, loaded)
        from .measures import mu_expansive_points
        points = mu_expansive_points(system, mu, c, probe=probe)
        return {"points": labels(points)}, 0, (system,)
    from .expansivity import point_verdicts
    verdicts = point_verdicts(system, args.variant, c, probe=probe)
    points = [p for p, verdict in verdicts.items() if verdict.result]
    certificates = {}
    for p, verdict in verdicts.items():
        entry = {"result": verdict.result}
        if verdict.counterexample:
            entry["counterexample"] = [point_label(q) for q in verdict.counterexample]
        if verdict.detail:
            entry["detail"] = verdict.detail
        certificates[point_label(p)] = entry
    return {"points": labels(points), "certificates": certificates}, 0, (system,)


def cmd_shadow(args):
    budget = _budget(args)
    system = _load(args.system).system
    x = parse_point(system, args.x)
    eps, delta = _scale(args.eps, "eps"), _scale(args.delta, "delta")
    if args.window is not None:
        from .shadowing import shadowable_windowed
        rep = shadowable_windowed(system, x, eps, delta, args.window,
                                  budget=budget)
        results = {
            "mode": "windowed",
            "result": rep.result,
            "radius": rep.radius,
            "windows_checked": rep.windows_checked,
        }
        if rep.worst_window is not None:
            results["worst_window"] = [point_label(p) for p in rep.worst_window.entries]
            results["worst_tracer_count"] = rep.worst_tracer_count
    else:
        from .shadowing import shadowable_exact
        ok = shadowable_exact(system, x, eps, delta)
        results = {"mode": "exact", "result": ok}
    return results, 0 if results["result"] else 1, (system,)


def cmd_conjugacy(args):
    f = _load(args.f).system
    g = _load(args.g).system
    x = parse_point(f, args.x)
    eps, delta = _scale(args.eps, "eps"), _scale(args.delta, "delta")
    c = _scale(args.c, "c", required=False)
    eta = _scale(args.eta, "eta", required=False)
    from .stability import build_conjugacy
    res = build_conjugacy(f, g, x, eps, delta, expansivity_c=c, eta=eta)
    results = {
        "success": res.success,
        "failed_step": res.failed_step,
        "domain": [point_label(p) for p in res.domain],
        "h": None if res.mapping is None else table(res.mapping),
        "residual": opt_rat(res.residual),
        "commutation": res.commutation_ok,
        "eta": rat(res.eta),
        "detail": res.detail,
    }
    return results, 0 if res.success else 1, (f, g)


def cmd_trackmap(args):
    f = _load(args.f).system
    g = _load(args.g).system if args.g else f
    x = parse_point(f, args.x)
    eta = _scale(args.eta, "eta")
    from .measures import build_tracking_map, tracking_commutes, tracking_within_ball
    assignment = build_tracking_map(f, g, x, eta)
    within_ok, within_witness = tracking_within_ball(assignment, f)
    commute_ok, commute_witness = tracking_commutes(assignment, f, g)
    if assignment.rule == "identity":
        images = "identity"
    else:
        images = {point_label(u): labels(assignment.image_of(u))
                  for u in assignment.domain}
    results = {
        "eta": rat(assignment.eta),
        "domain": [point_label(p) for p in assignment.domain],
        "images": images,
        "within_ball": {"ok": within_ok,
                        "witness": None if within_witness is None
                        else point_label(within_witness)},
        "commutes": {"ok": commute_ok,
                     "witness": None if commute_witness is None
                     else point_label(commute_witness)},
        "ok": within_ok and commute_ok,
    }
    return results, 0 if results["ok"] else 1, (f, g) if g is not f else (f,)


def _pair_payload(pair, xpts, ypts):
    if pair is None:
        return None
    return {
        "i": {point_label(xpts[a]): point_label(ypts[pair.i_map[a]])
              for a in range(len(xpts))},
        "j": {point_label(ypts[b]): point_label(xpts[pair.j_map[b]])
              for b in range(len(ypts))},
        "clauses": {
            "i_distortion": rat(pair.i_distortion),
            "i_density": rat(pair.i_density),
            "i_commutation": rat(pair.i_commutation),
            "j_distortion": rat(pair.j_distortion),
            "j_density": rat(pair.j_density),
            "j_commutation": rat(pair.j_commutation),
        },
        "score": rat(pair.score),
    }


def cmd_ghdist(args):
    budget = _budget(args)
    X = _load(args.x_system).system
    Y = _load(args.y_system).system
    from .stability import gh_distance_bounds
    bounds = gh_distance_bounds(X, Y, budget=budget)
    results = {
        "lower": rat(bounds.lower),
        "upper": rat(bounds.upper),
        "complete": bounds.complete,
        "witness": _pair_payload(bounds.witness, X.kernel.pts, Y.kernel.pts),
    }
    return results, 0, (X, Y)


def cmd_ghstable(args):
    budget = _budget(args)
    f = _load(args.f).system
    x = parse_point(f, args.x)
    eps, delta = _scale(args.eps, "eps"), _scale(args.delta, "delta")
    eta = _scale(args.eta, "eta", required=False)
    candidates = [_load(spec).system for spec in args.candidates]
    from .stability import gh_stable_point_check
    rep = gh_stable_point_check(f, x, eps, delta, candidates,
                                budget=budget, eta=eta)
    results = {
        "result": rep.result,
        "entries": [
            {"candidate": e.name, "status": e.status,
             "preimages": [point_label(p) for p in e.preimages],
             "detail": e.detail}
            for e in rep.entries
        ],
    }
    return results, 0 if rep.result else 1, (f, *candidates)


def _resolve_measure(args, loaded: sysfile.SystemFile):
    """The measure of --measure, else of the system file's measure stanza."""
    if args.measure:
        return _load(args.measure, "measure").measure
    if loaded.measure is not None:
        return loaded.measure
    raise MalformedInputError(
        "no measure: pass --measure or add a measure stanza to the system file")


def cmd_mustable(args):
    loaded = _load(args.f)
    f = loaded.system
    g = _load(args.g).system if args.g else f
    mu = _resolve_measure(args, loaded)
    x = parse_point(f, args.x)
    eps, delta = _scale(args.eps, "eps"), _scale(args.delta, "delta")
    eta = _scale(args.eta, "eta", required=False)
    c = _scale(args.c, "c", required=False)
    B = None
    if args.through:
        B = frozenset(parse_point(f, t) for t in args.through)
    from .measures import verify_strong_mu_topological_stability
    rep = verify_strong_mu_topological_stability(
        f, mu, x, eps, delta, g, B, eta=eta, expansivity_c=c)
    results = {
        "result": rep.result,
        "eta": rat(rep.eta),
        "clauses": [{"name": cl.name, "result": cl.result, "detail": cl.detail}
                    for cl in rep.clauses],
    }
    return results, 0 if rep.result else 1, (f, g) if g is not f else (f,)


def cmd_satellite(args):
    system = _load(args.system if args.system else "bundled:satellite3").system
    if system.backend != "satellite":
        raise MalformedInputError("the satellite verb needs a satellite system")
    shift_c = positive(_scale("1/2" if args.c is None else args.c, "c"),
                       "expansivity constant")
    from .expansivity import minimally_expansive_at
    marked = [system.marked(j) for j in range(system.t)]
    sample = system.sample() + marked
    entries, ok = [], True
    for q in system.satellite_points():
        nearest = min(system.dist(q, y) for y in sample if y != q)
        isolated = nearest >= Fraction(1, q.k)
        constant = dyadic_below(Fraction(1, q.k))
        verdict = minimally_expansive_at(system, q, constant)
        good = isolated and verdict.result
        ok = ok and good
        entries.append({
            "point": point_label(q), "kind": "satellite",
            "nearest_distinct": rat(nearest), "isolated": isolated,
            "constant": rat(constant), "minimally_expansive": verdict.result,
            "ok": good,
        })
    for y in system.probes:
        gap = min(shift_metric(m, y) for m in marked)
        bound = min(shift_c, gap)
        if bound <= 0:
            entries.append({"point": point_label(y), "kind": "marked-orbit",
                            "ok": True, "note":
                            "on the marked orbit: no admissible constant"})
            continue
        constant = dyadic_below(bound)
        verdict = minimally_expansive_at(system, y, constant)
        ok = ok and verdict.result
        entries.append({
            "point": point_label(y), "kind": "core",
            "bound": rat(bound), "constant": rat(constant),
            "minimally_expansive": verdict.result, "ok": verdict.result,
        })
    results = {"result": ok, "entries": entries,
               "satellite_count": len(system.satellite_points())}
    return results, 0 if ok else 1, (system,)


# -- argument plumbing ---------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pdl", description="pointwise-dynamics workbench")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON report")
    sub = parser.add_subparsers(dest="verb", required=True)

    def scales(p, *names):
        for name in names:
            p.add_argument(f"--{name}")

    p = sub.add_parser("validate", help="metric axioms + bijection on a sample")
    p.add_argument("system")
    p.add_argument("--probe", action="append")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("classify", help="classified point set at a constant")
    p.add_argument("system")
    p.add_argument("--variant", required=True,
                   choices=["expansive", "uniform", "minimal", "shadow",
                            "mu-uniform"])
    scales(p, "c", "eps", "delta")
    p.add_argument("--measure")
    p.add_argument("--probe", action="append")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("shadow", help="shadowable point check (exact or windowed)")
    p.add_argument("system")
    p.add_argument("--x", required=True)
    scales(p, "eps", "delta")
    p.add_argument("--window", type=int)
    p.add_argument("--budget", type=int)
    p.set_defaults(run=cmd_shadow)

    p = sub.add_parser("conjugacy", help="semiconjugacy builder f vs g at x")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--x", required=True)
    scales(p, "eps", "delta", "c", "eta")
    p.set_defaults(run=cmd_conjugacy)

    p = sub.add_parser("trackmap", help="set-valued tracking map H at eta")
    p.add_argument("f")
    p.add_argument("g", nargs="?")
    p.add_argument("--x", required=True)
    scales(p, "eta")
    p.set_defaults(run=cmd_trackmap)

    p = sub.add_parser("ghdist", help="GH0 distance bounds between two systems")
    p.add_argument("x_system")
    p.add_argument("y_system")
    p.add_argument("--budget", type=int)
    p.set_defaults(run=cmd_ghdist)

    p = sub.add_parser("ghstable", help="GH-stable point check against candidates")
    p.add_argument("f")
    p.add_argument("candidates", nargs="+")
    p.add_argument("--x", required=True)
    scales(p, "eps", "delta", "eta")
    p.add_argument("--budget", type=int)
    p.set_defaults(run=cmd_ghstable)

    p = sub.add_parser("mustable", help="strong measure-stability clause check")
    p.add_argument("f")
    p.add_argument("--g")
    p.add_argument("--x", required=True)
    scales(p, "eps", "delta", "eta", "c")
    p.add_argument("--measure")
    p.add_argument("--through", action="append",
                   help="carrier point of the full-measure set B (repeatable)")
    p.set_defaults(run=cmd_mustable)

    p = sub.add_parser("satellite", help="isolation + expansivity sweep of a satellite system")
    p.add_argument("system", nargs="?")
    scales(p, "c")
    p.set_defaults(run=cmd_satellite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        results, code, systems = args.run(args)
        # the command block echoes every argument as parsed; PDL_BUDGET
        # is not argv, so it stays out
        echo = {k: v for k, v in vars(args).items()
                if k not in ("run", "verb", "pretty")}
        payload = assemble(args.verb, echo, results, systems)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    except PointdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(render(payload, pretty=args.pretty), flush=True)
    except BrokenPipeError:     # the reader left: quiet the exit flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    elapsed = time.perf_counter() - started
    print(f"{args.verb}: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
