"""Constructive stability checks.

The semiconjugacy builder follows the classical recipe: the perturbed
orbit of x is a pseudo-orbit of f, a tracer supplies the image of the
orbit, and expansivity makes the assignment well defined. Every claim
the builder makes (well-definedness, commutation, displacement) is
re-verified independently of the construction. The Gromov-Hausdorff
layer searches for delta-isometry pairs by branch and bound and turns
found pairs / exhausted searches into exact upper / lower bounds.
"""

import sys
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, islice, repeat
from math import lcm
from operator import sub
from struct import Struct
from typing import NamedTuple

from .errors import PreconditionError, ResourceBudgetError
from .rationals import (Frozen, ZERO, dyadic_below, format_rational, positive,
                        resolve_budget)
from .systems import (ExplicitSystem, c0_distance, check_carrier, floor_scaled,
                      gatherer, least, materialize, members, orbit_closure,
                      pair_sup_separation, point_index, point_label)

DEFAULT_ENUMERATION_BUDGET = 10 ** 6
DEFAULT_SEARCH_BUDGET = 500_000
GH_GRID_STEP = Fraction(1, 128)


# -- semiconjugacy builder --------------------------------------------------


class ConjugacyResult(NamedTuple):
    success: bool
    failed_step: str            # None | "shadowing" | "well-definedness" |
                                # "commutation" | "residual"
    domain: tuple               # orbit of x under g
    mapping: object             # dict point -> point (None on early failure)
    residual: Fraction          # sup d(h(z), z) over the domain, when built
    commutation_ok: object      # bool once h exists
    eta: Fraction
    detail: str = ""

    def __bool__(self):
        return self.success


def build_conjugacy(f, g, x, eps, delta, *, expansivity_c=None, eta=None):
    """Semiconjugacy h from the g-orbit of x into X with f o h = h o g.

    Requires c0_distance(f, g) <= delta. The tracing radius defaults to
    the min(eps, c)/16 schedule (eps/16 without a declared expansivity
    constant); at that radius well-definedness needs separation only
    beyond 2*eta, which the schedule keeps below c. x is a point of f;
    on finite carriers g may label its points differently, and its index
    i stands for f's point f.kernel.pts[i] (systems.check_carrier). The
    result reads g only through its orbit of x (_semiconjugacies).
    """
    eps, delta = positive(eps, "tracing radius"), positive(delta, "pseudo-orbit gap")
    gap = c0_distance(f, g)
    if gap > delta:
        raise PreconditionError(
            f"c0 distance {format_rational(gap)} exceeds delta")
    step = _semiconjugacies(f, x, eps, _tracing_radius(eps, expansivity_c, eta))
    return step(g.kernel.perm if g.finite else None)


def _tracing_radius(eps, expansivity_c, eta):
    if expansivity_c is not None:
        eps = min(eps, positive(expansivity_c, "expansivity constant"))
    return eps / 16 if eta is None else positive(eta, "eta")


def _semiconjugacies(f, x, eps, eta):
    """The step gperm -> build_conjugacy's result at x for a map g on f's
    carrier within delta of f, gperm being g's index permutation (None on
    infinite carriers, where a carrier token fixes the map, so g is f).
    x's index, the shadowing failure text and the tracer candidates are
    resolved once; the step walks g's orbit through x and settles each
    orbit once, so maps that share it share one result, on kernel
    indices, labeled at the end. A tracer of the orbit lies within eta of
    x, so an orbit that no candidate's f-orbit follows fails at shadowing
    before trace_cycle, by integer compares on the kernel rows."""
    if not f.finite:
        def unperturbed(gperm):
            dom = orbit_closure(f, x)
            dom_t = dom if isinstance(dom, tuple) else ()
            return ConjugacyResult(True, None, dom_t,
                                   {u: u for u in dom_t} or None, ZERO, True, eta,
                                   "unperturbed map: h is the identity on the orbit closure")
        return unperturbed
    fk = f.kernel
    pts, fperm = fk.pts, fk.perm
    xi = point_index(f, x)
    lost = f"no orbit of f stays within {format_rational(eta)} of the perturbed orbit"
    cap = floor_scaled(eta, fk.denominator, False)
    walks = [tuple(fk.rows[u] for u in cyc) * (len(pts) // len(cyc) + 1)
             for cyc in map(fk.orbit, members(fk.within(eta)[xi]))]

    def followed(orb):
        # a tracer stays within eta of orb[n] for n < P, and P is at most
        # the point count: each candidate's rows along its f-orbit,
        # repeated that far, walk orb to their first miss
        for rows in walks:
            for row, v in zip(rows, orb):
                if row[v] > cap:
                    break
            else:
                return True
        return False

    @cache
    def trace(orb):
        dom = tuple(map(pts.__getitem__, orb))
        tracers, z, path = (fk.trace_cycle(orb, eta, prefer=xi) if followed(orb)
                            else ([], None, None))
        if not tracers:
            return ConjugacyResult(False, "shadowing", dom, None, None, None, eta, lost)
        if path is None:
            P, cyc = len(orb), fk.orbit(z)
            sep = pair_sup_separation(f, pts[z], pts[cyc[P % len(cyc)]])
            return ConjugacyResult(
                False, "well-definedness", dom, None, None, None, eta,
                f"tracer {point_label(pts[z])} does not close up over the orbit "
                f"period {P}: the competing branch images separate by only "
                f"{format_rational(sep)} (at most 2*eta), below any usable "
                f"expansivity constant")
        h = dict(zip(orb, path))
        commutation = all(fperm[h[u]] == h[v] for u, v in zip(orb, orb[1:] + orb[:1]))
        residual = Fraction(max(fk.rows[h[u]][u] for u in orb), fk.denominator)
        mapping = {pts[u]: pts[v] for u, v in h.items()}
        if not commutation:
            return ConjugacyResult(
                False, "commutation", dom, mapping, residual, False, eta,
                "f o h differs from h o g")
        if residual > eps:
            return ConjugacyResult(
                False, "residual", dom, mapping, residual, True, eta,
                f"sup displacement {format_rational(residual)} exceeds eps")
        return ConjugacyResult(
            True, None, dom, mapping, residual, True, eta,
            f"tracer {point_label(pts[z])}, {len(tracers)} candidates")

    def step(gperm):
        orb, u = [xi], gperm[xi]
        while u != xi:
            orb.append(u)
            u = gperm[u]
        return trace(tuple(orb))

    return step


# -- perturbation enumeration ------------------------------------------------


class PerturbationFamily(Frozen):
    """The admissible perturbations of base (the input system) as the
    index permutations perms within c0 distance delta: index i stands for
    points[i] in every map. nodes counts the partial maps, the empty one
    included, that a plain depth-first search in the enumerator's slot
    order would extend; the enumerator counts them per frontier state
    and visits each state once.

    A family from enumerate_perturbations is its state DAG: it keeps the
    slot order, the states and the closed integer bound of its delta on
    base's rows, builds no map until perms is first read, and counts its
    maps by the DAG's root count, so len reads no map and len of a
    family past sys.maxsize maps raises Python's OverflowError (the
    count itself is exact). Built from perms directly, a family counts
    its tuple and has no bound. Equality and hash go by base, points,
    nodes and the map count first, two equal DAGs (slot order and states)
    are equal without a listing, and only other families compare their
    perms; repr states the count, not the maps. No __slots__: perms and
    the cached `systems` need a __dict__."""
    _fields = ("base", "points", "perms", "nodes")
    _order = _states = _bound = None

    def __init__(self, base, points: tuple, perms: tuple, nodes: int):
        self._set(base, points, perms, nodes)

    def _count(self) -> int:
        """The map count, exact past sys.maxsize, read without a listing."""
        return len(self.perms) if self._states is None else self._states[0][0][0]

    def _key(self) -> tuple:
        return self.base, self.points, self.nodes, self._count()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._key() != other._key():
            return False
        if self._states is not None and (self._order, self._states) == (
                other._order, other._states):
            return True
        return self.perms == other.perms

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"{type(self).__qualname__}(base={self.base!r}, points={self.points!r}, "
                f"maps={self._count()}, nodes={self.nodes!r})")

    @classmethod
    def _of_dag(cls, base, points, nodes, order, states, bound):
        fam = cls.__new__(cls)
        for name, value in zip(("base", "points", "nodes", "_order", "_states", "_bound"),
                               (base, points, nodes, order, states, bound)):
            object.__setattr__(fam, name, value)
        return fam

    def __len__(self):
        return self._count()

    @cached_property
    def perms(self) -> tuple:
        """The maps in lexicographic order, joined from the DAG on first
        read (enumerate_perturbations)."""
        return _listing(self._order, self._states)

    def name(self, i) -> str:
        return f"{self.base.name}~pert{i}"

    @cached_property
    def systems(self) -> tuple:
        """The perturbations as ExplicitSystems on the space of base,
        materialized once, on first access."""
        space = materialize(self.base)[0].space
        return tuple(ExplicitSystem(space, p, self.name(i)) for i, p in enumerate(self.perms))


def enumerate_perturbations(system, delta, budget=None) -> PerturbationFamily:
    """All self-maps g of the carrier with c0_distance(f, g) <= delta.

    Perturbations stay within the homeomorphism class, so on a finite
    carrier they are exactly the permutations moving each f-image by at
    most delta. The bound is closed, while pseudo-orbit steps are strict
    (d(f(w_n), w_(n+1)) < delta): a perturbation with a step of exactly
    delta is admitted here, though its orbits are not delta-pseudo-orbits.

    The images of the indices are placed slot by slot in the order of
    _shared_target_order, which depends on the admissible targets only,
    not on how the carrier is labeled, and each placement is checked
    forward: due[t] holds the targets that no slot after the t-th may
    take, and an image that leaves one of them unused is refused. What
    follows slot t depends only on key = used & fut[t], the used targets
    that slots t.. can still take, so each (t, key) state is expanded
    once, on an explicit stack, and keeps its map count, its node count
    and its live edges (image, next key). nodes counts the partial maps
    a plain depth-first search in slot order extends, the empty one
    included. The budget caps the maps: the search refuses once the maps
    known on its stack exceed it, before any map is built.

    The family returned holds that DAG: its len is the root's map count,
    its perms are joined by _listing when first read, and it records the
    closed bound floor_scaled(delta, D, closed=True) on the kernel's
    denominator D, which _perturbation_maps can trust in place of each
    map's C0 distance.
    """
    delta = positive(delta, "perturbation radius")
    budget = resolve_budget(budget, DEFAULT_ENUMERATION_BUDGET)
    k = system.kernel
    n = len(k.pts)
    rows = k.within(delta, closed=True)
    bits = [rows[v] for v in k.perm]
    order = _shared_target_order(bits)
    due, fut = [0] * n, [0] * (n + 1)
    for t in reversed(range(n)):
        due[t] = bits[order[t]] & ~fut[t + 1]
        fut[t] = fut[t + 1] | bits[order[t]]
    allowed = [members(bits[u]) for u in order]
    # states[t][key] = (maps, nodes, live edges); every full map is one state
    states = [{} for _ in range(n)] + [{0: (1, 0, ())}]
    # per slot up to the t-th: used targets, untried images, the image
    # placed, and the edges (image, next key) tried so far
    useds, untried, chosen, edges = [0] * n, [None] * n, [None] * n, [None] * n
    t, known, untried[0], edges[0] = 0, 0, iter(allowed[0]), []
    while t >= 0:
        used, need, later, below, out = useds[t], due[t], fut[t + 1], states[t + 1], edges[t]
        for v in untried[t]:
            bit = 1 << v
            if used & bit or need & ~(used | bit):
                continue
            key = (used | bit) & later
            if key not in below:
                chosen[t] = v
                t += 1
                useds[t], untried[t], edges[t] = used | bit, iter(allowed[t]), []
                break
            out.append((v, key))
            known += below[key][0]
            if known > budget:
                raise ResourceBudgetError(
                    f"more than {budget} admissible perturbations",
                    budget=budget)
        else:
            key = used & fut[t]
            states[t][key] = (sum(below[c][0] for _, c in out),
                              1 + sum(below[c][1] for _, c in out),
                              tuple(e for e in out if below[e[1]][0]))
            t -= 1
            if t >= 0:
                edges[t].append((chosen[t], key))
    return PerturbationFamily._of_dag(system, k.pts, states[0][0][1], order, states,
                                      floor_scaled(delta, k.denominator, closed=True))


def _listing(order, states) -> tuple:
    """The maps of the DAG states in slot order order, as index-order
    tuples in lexicographic order.

    The maps are joined from the prefixes of the first n // 2 slots and
    the suffixes of each middle state, in search order, which is
    lexicographic when slot t places index t. Under any other slot order
    each map is joined as an integer code that holds index i's image as
    a fixed-width digit, index 0 the most significant, so the codes
    sorted as integers list the maps in lexicographic order; each code
    is then unpacked into its tuple.
    """
    n = len(order)
    # under any other slot order a map is an integer code: index i's image
    # is its digit at 8 * w * (n - 1 - i), so the codes sort as the maps do
    if order == list(range(n)):
        empty, shifts = (), None
    else:
        w, digit = (1, "B") if n <= 1 << 8 else (2, "H") if n <= 1 << 16 else (4, "I")
        empty, shifts = 0, [8 * w * (n - 1 - u) for u in order]
    heads = _grow(states, [(empty, 0)], 0, n // 2, shifts)
    tails = {key: [s for s, _ in _grow(states, [(empty, key)], n // 2, n, shifts)]
             for key in {key for _, key in heads}}
    # the digits of a head and a tail do not overlap, so + joins codes too
    perms = chain.from_iterable(map(p.__add__, tails[key]) for p, key in heads)
    if shifts is not None:
        perms = map(Struct(f">{n}{digit}").unpack,
                    map(int.to_bytes, sorted(perms), repeat(n * w), repeat("big")))
    return tuple(perms)


def _grow(states, blocks, start, stop, shifts=None) -> list:
    """blocks, pairs (images of slots start.., key of the state they
    reach), extended along the live edges of states through slot stop - 1,
    in search order. The images are a tuple in slot order, or with shifts
    an integer code holding slot t's image v as v << shifts[t]."""
    for t in range(start, stop):
        if shifts is None:
            blocks = [(p + (v,), c) for p, key in blocks for v, c in states[t][key][2]]
        else:
            s = shifts[t]
            blocks = [(p | v << s, c) for p, key in blocks for v, c in states[t][key][2]]
    return blocks


def _shared_target_order(bits) -> list:
    """The indices of the target bitsets bits in search order.

    Each next index is the unplaced one whose targets overlap most with
    the targets already placed; ties go to the larger overlap with the
    last placed index's targets, then to the lower index, so the least
    index comes first. On a lattice this is the identity order; on a
    relabeled twin it follows the same chain of shared targets, so both
    visit the same number of partial maps.
    """
    order, placed, last = [], 0, 0
    rest = list(range(len(bits)))
    while rest:
        u = max(rest, key=lambda w: ((bits[w] & placed).bit_count(),
                                     (bits[w] & last).bit_count(), -w))
        rest.remove(u)
        order.append(u)
        last = bits[u]
        placed |= last
    return order


class PerturbationVerdict(NamedTuple):
    name: str
    status: str                 # "ok" | "failed" | "skipped"
    conjugacy: object
    note: str = ""


class StablePointReport(NamedTuple):
    result: bool
    point: object
    eps: Fraction
    delta: Fraction
    entries: tuple

    def __bool__(self):
        return self.result


def verify_topologically_stable_point(f, x, eps, delta, perturbations, *,
                                      expansivity_c=None, eta=None):
    """Does every admissible perturbation admit a verified semiconjugacy at x?

    perturbations is a PerturbationFamily or an iterable of systems on
    f's carrier. A perturbation is admissible at c0_distance(f, g) <=
    delta (closed), while the pseudo-orbits that tracing follows are
    strict (steps below delta), as in enumerate_perturbations.
    Perturbations beyond the delta bound are recorded as skipped, not
    failed; the verdict quantifies over the admissible ones only. x is
    resolved before the first map, so a point off the carrier is refused
    even when no map is admissible. Each g-orbit of x is traced once:
    entries whose maps share that orbit share one ConjugacyResult.
    """
    eps, delta = positive(eps, "tracing radius"), positive(delta, "pseudo-orbit gap")
    step = _semiconjugacies(f, x, eps, _tracing_radius(eps, expansivity_c, eta))
    entries, ok = [], True
    for name, gperm, gap, skip in _perturbation_maps(f, perturbations, delta):
        if skip:
            entries.append(PerturbationVerdict(
                name, "skipped", None, f"c0 distance {format_rational(gap)} exceeds delta"))
        elif res := step(gperm):
            entries.append(PerturbationVerdict(name, "ok", res))
        else:
            ok = False
            entries.append(PerturbationVerdict(name, "failed", res, res.failed_step))
    return StablePointReport(ok, x, eps, delta, tuple(entries))


def _perturbation_maps(f, perturbations, delta):
    """(name, index permutation, c0 distance from f, whether it exceeds
    delta) per perturbation.

    A family's carrier is checked once, against its base. Its maps compare
    their integer C0 sup top with delta as top > floor_scaled(delta, D,
    closed=True), and build the distance only beyond delta (None for an
    admissible map). A family from enumerate_perturbations holds only maps
    within its own closed bound of its base's map; when that bound is at
    most delta's and the base has f's index map (check_carrier compares
    carriers only), no map lies beyond delta and none is rechecked.
    Each system of any other iterable is checked by c0_distance, and
    carries no index permutation on an infinite carrier (None).
    """
    if isinstance(perturbations, PerturbationFamily):
        check_carrier(f, perturbations.base)
        k, D = f.kernel, f.kernel.denominator
        bound = floor_scaled(delta, D, closed=True)
        # equal carriers share D, so the two bounds are on one scale
        bounded = perturbations._bound is not None and perturbations._bound <= bound \
            and perturbations.base.kernel.perm == k.perm
        for i, p in enumerate(perturbations.perms):
            skip = not bounded and (top := k.c0_scaled(p)) > bound
            yield perturbations.name(i), p, Fraction(top, D) if skip else None, skip
        return
    for g in perturbations:
        gap = c0_distance(f, g)
        yield g.name, g.kernel.perm if g.finite else None, gap, gap > delta


# -- delta-isometry search ---------------------------------------------------


class IsometryPair(NamedTuple):
    i_map: tuple                # X index -> Y index
    j_map: tuple                # Y index -> X index
    delta: Fraction
    i_distortion: Fraction
    i_density: Fraction
    i_commutation: Fraction
    j_distortion: Fraction
    j_density: Fraction
    j_commutation: Fraction

    @property
    def score(self) -> Fraction:
        return max(self.i_distortion, self.i_density, self.i_commutation,
                   self.j_distortion, self.j_density, self.j_commutation)


def _clause_values(m, fk, gk):
    """(distortion, image density defect, commutation defect) of one map
    m from fk's system to gk's, read off the integer rows scaled(S) of
    both kernels at S = lcm of their denominators: the largest change of
    a distance under m, the farthest point of Y from the image, and the
    largest d(g(m(u)), m(f(u))). Only the three values are Fractions."""
    S = lcm(fk.denominator, gk.denominator)
    stab, dtab = fk.scaled(S), gk.scaled(S)
    take = gatherer(m)
    dist = max(max(map(abs, map(sub, take(dtab[v]), row))) for v, row in zip(m, stab))
    density = max(map(min, zip(*map(dtab.__getitem__, set(m)))))
    gperm = gk.perm
    comm = max(dtab[gperm[v]][m[w]] for v, w in zip(m, fk.perm))
    return Fraction(dist, S), Fraction(density, S), Fraction(comm, S)


class _Rows(dict):
    """rows[s]: the bitset of v with |dw[v] - s| <= bound, built at first
    use. For dw the integer row of a point w, rows[0] is the ball of
    radius bound around w."""
    __slots__ = ("dw", "bound")

    def __init__(self, dw, bound):
        self.dw, self.bound = dw, bound

    def __missing__(self, s):
        lo, hi = s - self.bound, s + self.bound
        self[s] = r = sum(1 << v for v, d in enumerate(self.dw) if lo <= d <= hi)
        return r


def _map_search(fk, gk, delta, closed, budget):
    """(first map or None, complete): branch and bound over the maps from
    fk's system to gk's with all clauses below delta (at most delta when
    closed), which returns its first map. complete is False when the
    search stopped past budget nodes, True when it found a map or ran to
    the end without one.

    Assignments follow the f-cycles, each point after its preimage, so
    the commutation clause prunes each new image to a ball around
    g(previous image); the distortion clause prunes against the points
    already placed. Both partial quantities are monotone under
    extension, so pruning is admissible. Every image index tried at a
    slot is a node, admitted or not. At a leaf the image is dense when
    the delta balls around its points cover Y.

    A slot's candidates are the set bits of one mask, ascending: the ball
    around g(image of the preimage), or for a fixed point the v with
    d(g(v), v) within delta, cut by the row rows[w][s] of each placed
    image w at distance s until at most one candidate is left, which is
    then tested against the remaining points directly. Balls and rows
    are built once per search, as they are first read.

    The node checks compare integers on the rows scaled(S) of both
    kernels, S = lcm of their denominators, as _clause_values does: a
    value v fails when v > floor_scaled(delta, S, closed).
    """
    fperm, finv, gperm = fk.perm, fk.inv, gk.perm
    n, m = len(fk.pts), len(gk.pts)
    scale = lcm(fk.denominator, gk.denominator)
    stab, dtab = fk.scaled(scale), gk.scaled(scale)
    bound = floor_scaled(delta, scale, closed)
    order = [i for cyc in fk.cycles for i in cyc]
    full, rows = (1 << m) - 1, [_Rows(dw, bound) for dw in dtab]
    fixed = sum(1 << v for v in range(m) if dtab[gperm[v]][v] <= bound)

    def candidates(t):
        """The images of the t-th point in order, ascending, that keep
        every clause within delta against the points placed before it."""
        x = order[t]
        fx, px, sx = fperm[x], finv[x], stab[x]
        mask = fixed if fx == x else full if (w := image[px]) is None else rows[gperm[w]][0]
        to, placed = image[fx], islice(order, t)
        if mask & (mask - 1):
            for y in placed:
                mask &= rows[image[y]][sx[y]]
                if not mask & (mask - 1):
                    break
        if mask:
            dv = dtab[least(mask)]
            for y in placed:
                if abs(dv[image[y]] - sx[y]) > bound:
                    mask = 0
                    break
        while mask:
            low = mask & -mask
            mask ^= low
            v = low.bit_length() - 1
            if to is None or dtab[gperm[v]][to] <= bound:
                yield v

    # per point in order up to the t-th: its candidates, the last one tried
    image, slots, tried = [None] * n, [None] * n, [-1] * n
    nodes, t, slots[0] = 0, 0, candidates(0)
    while t >= 0:
        x = order[t]
        for v in slots[t]:
            nodes += v - tried[t]
            if nodes > budget:
                return None, False
            tried[t] = image[x] = v
            if t + 1 < n:
                t += 1
                slots[t], tried[t] = candidates(t), -1
                break
            cover = 0
            for w in image:
                cover |= rows[w][0]
            if cover == full:
                return tuple(image), True
        else:
            nodes += m - 1 - tried[t]
            if nodes > budget:
                return None, False
            image[x] = None
            t -= 1
    return None, True


def _make_pair(i_map, j_map, delta, fk, gk) -> IsometryPair:
    i_d, i_h, i_c = _clause_values(i_map, fk, gk)
    j_d, j_h, j_c = _clause_values(j_map, gk, fk)
    return IsometryPair(i_map, j_map, delta, i_d, i_h, i_c, j_d, j_h, j_c)


def first_delta_isometry_pair(X, Y, delta, budget=None):
    """One certifying pair (or None); second value reports completeness."""
    delta = positive(delta, "delta")
    budget = resolve_budget(budget, DEFAULT_SEARCH_BUDGET)
    fk, gk = X.kernel, Y.kernel
    if len(fk.pts) == len(gk.pts):
        ident = tuple(range(len(fk.pts)))
        pair = _make_pair(ident, ident, delta, fk, gk)
        if pair.score < delta:
            return pair, True
    i_map, i_done = _map_search(fk, gk, delta, False, budget)
    if i_map is None:
        return None, i_done
    j_map, j_done = _map_search(gk, fk, delta, False, budget)
    if j_map is None:
        return None, j_done
    return _make_pair(i_map, j_map, delta, fk, gk), True


# -- exact isomorphism and GH0 bounds ---------------------------------------


def find_exact_isomorphism(X, Y):
    """Distance-preserving bijection with exact commutation, or None.

    The delta-map search at distance 0 under the closed rule, stopped at
    its first map: every clause must read 0. Zero distortion makes the
    map injective and the within(0) rows are single points, so a dense
    leaf is a bijection; zero commutation forces each f-cycle onto the
    g-orbit of its first image, so the search branches only over cycle
    representatives. No budget applies.
    """
    fk, gk = X.kernel, Y.kernel
    if len(fk.pts) != len(gk.pts):
        return None
    # unbudgeted: no search reaches sys.maxsize nodes
    found, _ = _map_search(fk, gk, ZERO, True, sys.maxsize)
    if found is None:
        return None
    return dict(zip(fk.pts, map(gk.pts.__getitem__, found)))


class GHBounds(Frozen):
    """Compares and hashes as the pair (lower, upper), and unpacks to it."""
    __slots__ = _fields = ("lower", "upper", "complete", "witness")

    def __init__(self, lower: Fraction, upper: Fraction, complete: bool, witness):
        self._set(lower, upper, complete, witness)    # witness: IsometryPair certifying upper

    def __iter__(self):
        return iter((self.lower, self.upper))

    def __eq__(self, other):
        if isinstance(other, tuple):
            return (self.lower, self.upper) == other
        if isinstance(other, GHBounds):
            return (self.lower, self.upper) == (other.lower, other.upper)
        return NotImplemented

    def __hash__(self):
        return hash((self.lower, self.upper))


def _grid_above(value, step) -> Fraction:
    """Least multiple of step strictly above value."""
    k = value / step
    floor = k.numerator // k.denominator
    return step * (floor + 1)


def gh_distance_bounds(X, Y, budget=None) -> GHBounds:
    """Bounds lower <= d_GH0(X, Y) <= upper, with a witness pair.

    An exact isomorphism collapses the bounds to (0, 0), with no witness.
    Otherwise a pair found at a delta above both diameters gives hi, the
    least multiple of GH_GRID_STEP above its score (its worst clause
    value), and [0, hi] is bisected. A pair found at the midpoint brings
    upper down to the midpoint or to the grid point above the best score
    so far, whichever is lower; a complete search that finds none there
    raises lower to the midpoint. So lower is 0 or a midpoint, upper is a
    grid point or a midpoint: both are dyadic, but need not lie on the
    grid (nearpair4 against cat5 gives lower 129/256). Midpoints of one
    bound floor_scaled(mid, S), S = lcm of the denominators, search alike,
    so each bound is searched once. The witness is the best pair found,
    and its score is below upper. A complete result has upper - lower <=
    GH_GRID_STEP. An exhausted budget stops the bisection and leaves the
    bounds valid but wider, with complete False.
    """
    budget = resolve_budget(budget, DEFAULT_SEARCH_BUDGET)
    if find_exact_isomorphism(X, Y) is not None:
        return GHBounds(ZERO, ZERO, True, None)
    start = 1 + max(Fraction(max(map(max, k.rows)), k.denominator)
                    for k in (X.kernel, Y.kernel))
    pair, _ = first_delta_isometry_pair(X, Y, start, budget)
    if pair is None:
        # even the coarsest scale found nothing within budget
        return GHBounds(ZERO, start, False, None)
    best = pair
    hi = _grid_above(best.score, GH_GRID_STEP)
    lo, complete, searched = ZERO, True, {}
    S = lcm(X.kernel.denominator, Y.kernel.denominator)
    while hi - lo > GH_GRID_STEP:
        mid = (lo + hi) / 2
        if (key := floor_scaled(mid, S, False)) not in searched:
            searched[key] = first_delta_isometry_pair(X, Y, mid, budget)
        found, done = searched[key]
        if found is not None:
            if found.score < best.score:
                best = found
            hi = min(_grid_above(best.score, GH_GRID_STEP), mid)
        elif done:
            lo = mid
        else:
            complete = False
            break
    return GHBounds(lo, hi, complete, best)


# -- GH-stable points ---------------------------------------------------------


class CandidateVerdict(NamedTuple):
    name: str
    status: str                 # "pass" | "vacuous" | "fail" | "skipped"
    preimages: tuple
    detail: str = ""


class GHStableReport(NamedTuple):
    result: bool
    point: object
    eps: Fraction
    delta: Fraction
    entries: tuple

    def __bool__(self):
        return self.result


def gh_stable_point_check(f, x, eps, delta, candidates, budget=None, *,
                          eta=None) -> GHStableReport:
    """Stable-point check against GH-near systems.

    Each candidate must be certified delta-near by a delta-isometry
    pair; its j then selects the preimages of x, and every preimage
    orbit must admit a traced conjugacy staying within eps of j.
    Candidates without a certificate are skipped, an empty preimage is
    the recorded vacuous pass.
    """
    eps, delta = positive(eps, "tracing radius"), positive(delta, "pseudo-orbit gap")
    eta = eps if eta is None else positive(eta, "eta")
    budget = resolve_budget(budget, DEFAULT_SEARCH_BUDGET)
    fk = f.kernel
    xi = point_index(f, x)
    entries, ok = [], True
    for cand in candidates:
        pair, settled = first_delta_isometry_pair(f, cand, delta, budget)
        if pair is None:
            entries.append(CandidateVerdict(
                cand.name, "skipped", (),
                "no certifying isometry pair" if settled
                else "certificate search exhausted its budget"))
            continue
        gk = cand.kernel
        ypts = gk.pts
        pre = tuple(y for y in range(len(ypts)) if pair.j_map[y] == xi)
        if not pre:
            entries.append(CandidateVerdict(
                cand.name, "vacuous", (), "j never hits the point"))
            continue
        failures = []
        for y in pre:
            verdict = _gh_trace(fk, gk, pair.j_map, y, eta, eps)
            if verdict is not None:
                failures.append(f"{point_label(ypts[y])}: {verdict}")
        if failures:
            ok = False
            entries.append(CandidateVerdict(
                cand.name, "fail", tuple(ypts[y] for y in pre),
                "; ".join(failures)))
        else:
            entries.append(CandidateVerdict(
                cand.name, "pass", tuple(ypts[y] for y in pre),
                f"{len(pre)} preimage orbit(s) traced within "
                f"{format_rational(eta)}"))
    return GHStableReport(ok, x, eps, delta, tuple(entries))


def _gh_trace(fk, gk, j_map, y, eta, eps):
    """Trace the j-image of the g-orbit of y; None on success, else reason.

    fk and gk are the kernels of f and g. The conjugacy h(g^n y) = f^n z
    is rebuilt explicitly and its closeness to j (strict, below eps) and
    commutation with the maps are verified independently of how the
    tracer was found.
    """
    fperm, gperm, near = fk.perm, gk.perm, fk.within(eps)
    orb = gk.orbit(y)
    tracers, _, path = fk.trace_cycle([j_map[v] for v in orb], eta)
    if not tracers:
        return "no orbit of f traces the transported pseudo-orbit"
    if path is None:
        return "tracer does not close up over the orbit period"
    h = dict(zip(orb, path))
    if any(not near[h[v]] >> j_map[v] & 1 for v in orb):
        return "conjugacy image strays to eps or beyond from j"
    if any(fperm[h[v]] != h[gperm[v]] for v in orb):
        return "conjugacy fails to commute with the maps"
    return None


# -- conjugation transport ----------------------------------------------------


def transported_constant(system, h, c) -> Fraction:
    """A constant d with d(h(a), h(b)) > d whenever d(a, b) > c.

    The largest dyadic step strictly below the minimum separation of
    h-images over c-separated pairs; h need not be an isometry, but a map
    that misses a carrier point, takes one off the carrier or merges a
    c-separated pair is refused.
    """
    c = positive(c, "expansivity constant")
    move = h if callable(h) else h.__getitem__
    pts = system.points()
    try:
        image = dict(zip(pts, map(move, pts)))
    except KeyError as exc:
        raise PreconditionError(f"h misses {point_label(exc.args[0])}") from None
    for value in image.values():
        point_index(system, value)      # PreconditionError off the carrier
    gaps = [system.dist(image[a], image[b])
            for i, a in enumerate(pts) for b in pts[i + 1:]
            if system.dist(a, b) > c]
    if not gaps:
        raise PreconditionError("no pair separates beyond c")
    if not min(gaps):
        raise PreconditionError("h merges two points that separate beyond c")
    return dyadic_below(min(gaps))
