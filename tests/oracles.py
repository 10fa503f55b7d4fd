"""Second routes that only the tests read.

The library answers each of these questions another way; the tests
compare the two. Distance tables are filled one dist call per pair,
apart from the kernel's integer rows. The library keeps tracer sets as
current positions and never computes the order of f; here the order is
the lcm of the cycle lengths, and the pull-back rows, the tracers at time
0 of each row of within(r) at each exponent below the order, are built
in one pass. A periodic window is traced here by a walk of lcm(order, P)
steps, apart from the kernel's test over the orbits of f^P.
Pseudo-orbit windows are enumerated here walk by walk over a graph built
on Fraction distances, apart from the kernel's step rows and the layered
halves of shadowable_windowed. The exact decider's verdict is rebuilt,
apart from its one forward walk over current tracer sets, from the same
walk over time-zero sets and exponents, and from both halves of a
pseudo-orbit: the tracer sets each half reaches, and the limit sets
trimmed out of them; the backward half's steps are read off
within(delta) bit by bit here, as the kernel keeps forward steps only.
Separation windows are listed time by time with iterate and dist. Gamma
sets are cut from phi sets and balls point by point, apart from the
measure layer's scan of kernel rows. Measures are transported point by
point, and shift balls are sampled by single-symbol edits. Perturbations
are listed by a plain depth-first search that visits every partial map,
apart from the library's count over memoized frontier states. The
delta-map search tests each candidate image against every placed point,
apart from the library's masks of commutation and distortion rows.
Balls, Hausdorff distances, distortion and the delta-isometry check read
a space's Fraction table, apart from the kernels' integer rows that the
library's balls and _clause_values read.
"""

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from pointdyn.errors import (PreconditionError, ResourceBudgetError,
                             UnsupportedBackendError)
from pointdyn.measures import WeightedMeasure, phi_set
from pointdyn.metric import FiniteMetricSpace
from pointdyn.rationals import ZERO, as_rational, format_rational, positive, resolve_budget
from pointdyn.shadowing import (DEFAULT_WINDOW_BUDGET, PseudoOrbitWindow,
                                _check_budget, count_pseudo_orbits)
from pointdyn.shiftspace import with_symbol
from pointdyn.stability import DEFAULT_ENUMERATION_BUDGET, _shared_target_order
from pointdyn.systems import (floor_scaled, gatherer, members, orbit, point_index,
                              point_label, system_ball)


# -- perturbation enumeration ------------------------------------------------


def dfs_perturbations(system, delta, budget=None):
    """(perms, nodes): the admissible perturbations of system, sorted, and
    the partial maps a plain depth-first search extends, the empty one
    included; ResourceBudgetError past budget maps. The search visits
    every partial map in the order of _shared_target_order, with the
    forward check of due[t] (the targets that no slot after the t-th may
    take), and refuses at the first map past the budget."""
    delta = positive(delta, "perturbation radius")
    budget = resolve_budget(budget, DEFAULT_ENUMERATION_BUDGET)
    k = system.kernel
    n = len(k.pts)
    rows = k.within(delta, closed=True)
    bits = [rows[v] for v in k.perm]
    order = _shared_target_order(bits)
    due, later = [0] * n, 0
    for t in reversed(range(n)):
        due[t] = bits[order[t]] & ~later
        later |= bits[order[t]]
    allowed = [members(bits[u]) for u in order]
    # the untried images and the used targets of each slot up to the t-th
    perms, chosen, nodes = [], [None] * n, 1
    untried, useds = [None] * n, [0] * n
    t, untried[0] = 0, iter(allowed[0])
    while t >= 0:
        u, need, used = order[t], due[t], useds[t]
        for v in untried[t]:
            bit = 1 << v
            if used & bit or need & ~(used | bit):
                continue
            chosen[u] = v
            if t + 1 < n:
                t += 1
                untried[t], useds[t] = iter(allowed[t]), used | bit
                nodes += 1
                break
            perms.append(tuple(chosen))
            if len(perms) > budget:
                raise ResourceBudgetError(
                    f"more than {budget} admissible perturbations",
                    budget=budget)
        else:
            t -= 1
    perms.sort()
    return tuple(perms), nodes


# -- the delta-map search, point by point -----------------------------------


def scan_map_search(fk, gk, delta, closed, budget, limit=None):
    """(maps found, whether the search ran to the end, nodes): the
    library's _map_search with each slot's candidates scanned one image
    at a time, every clause compared against each placed point, apart
    from its candidate masks cut by commutation and distortion rows. The
    traversal, the positional node count and the budget cut are the
    library's, so both searches stop at the same node; nodes is the count
    where this one stopped, past budget when it was cut."""
    fperm, finv, gperm = fk.perm, fk.inv, gk.perm
    n, m = len(fk.pts), len(gk.pts)
    scale = lcm(fk.denominator, gk.denominator)
    stab, dtab = fk.scaled(scale), gk.scaled(scale)
    bound = floor_scaled(delta, scale, closed)
    order = [i for cyc in fk.cycles for i in cyc]

    def candidates(t):
        """The images of the t-th point in order, ascending, that keep
        every clause within delta against the points placed before it."""
        x = order[t]
        fx, px, sx = fperm[x], finv[x], stab[x]
        placed = [(image[y], sx[y]) for y in order[:t]]
        for v in range(m):
            if fx == x:
                if dtab[gperm[v]][v] > bound:
                    continue
            else:
                if image[px] is not None and dtab[gperm[image[px]]][v] > bound:
                    continue
                if image[fx] is not None and dtab[gperm[v]][image[fx]] > bound:
                    continue
            dv = dtab[v]
            for w, s in placed:
                if abs(dv[w] - s) > bound:
                    break
            else:
                yield v

    # per point in order up to the t-th: its candidates, the last one tried
    found, image, slots, tried = [], [None] * n, [None] * n, [-1] * n
    nodes, near, full = 0, None, (1 << m) - 1
    t, slots[0] = 0, candidates(0)
    while t >= 0:
        x = order[t]
        for v in slots[t]:
            nodes += v - tried[t]
            if nodes > budget:
                return found, False, nodes
            tried[t] = image[x] = v
            if t + 1 < n:
                t += 1
                slots[t], tried[t] = candidates(t), -1
                break
            if near is None:
                near = gk.within(delta, closed)
            cover = 0
            for w in image:
                cover |= near[w]
            if cover == full:
                found.append(tuple(image))
                if limit is not None and len(found) >= limit:
                    return found, True, nodes
        else:
            nodes += m - 1 - tried[t]
            if nodes > budget:
                return found, False, nodes
            image[x] = None
            t -= 1
    return found, True, nodes


# -- distance tables ---------------------------------------------------------


def distance_table(system) -> tuple:
    """table[i][j] = d(p_i, p_j) over the points p of a finite carrier,
    in system.points() order."""
    pts = system.points()
    return tuple(tuple(system.dist(p, q) for q in pts) for p in pts)


def map_order(kernel) -> int:
    """The least L >= 1 with f^L the identity: the lcm of the cycle lengths."""
    return lcm(*map(len, kernel.cycles))


def eager_pullbacks(kernel, r, closed=False) -> tuple:
    """pull[e][v], 0 <= e < order: the bitset of z with f^e z in
    within(r, closed)[v], every row built in one pass over the exponents:
    f^-e advances by one whole-row gather of inv per exponent, and each
    row member adds one bit."""
    rows = [members(w) for w in kernel.within(r, closed)]
    at, back, pull = tuple(range(len(kernel.perm))), gatherer(kernel.inv), []
    for _ in range(map_order(kernel)):
        pull.append(tuple(sum(1 << at[y] for y in row) for row in rows))
        at = back(at)                       # at[y] = f^-e y
    return tuple(pull)


def traced_separation(kernel, c) -> tuple:
    """FiniteKernel._separation's (rows, paired, (bits, pairs)) point by
    point: row a holds the tracers of a's orbit at closed radius c
    (trace_cycle), paired the points whose row holds another, and the
    pair of a cycle is its least (i, j), i < j, with j in row i."""
    rows = tuple(sum(1 << z for z in kernel.trace_cycle(kernel.orbit(a), c, closed=True)[0])
                 for a in range(len(kernel.perm)))
    paired = sum(1 << a for a, row in enumerate(rows) if row != 1 << a)
    bits, pairs = 0, [None] * len(rows)
    for cyc in kernel.cycles:
        on = sorted(cyc)
        pair = next(((i, j) for i in on for j in on if i < j and rows[i] >> j & 1), None)
        if pair is not None:
            bits |= sum(1 << i for i in cyc)
            for i in cyc:
                pairs[i] = pair
    return rows, paired, (bits, tuple(pairs))


def walked_cycle(kernel, window, radius, closed=False, prefer=None) -> tuple:
    """FiniteKernel.trace_cycle's (tracers, z, h) by a bitset walk of
    L = lcm(order, P) steps, after which both sides repeat: A keeps the
    current positions, f(A) & within(r)[w[n % P]] at step n < L, and f(A)
    after the last step is the tracer set at time 0 again, as f^L is the
    identity. h walks z P steps by perm."""
    P, near, perm = len(window), kernel.within(radius, closed), kernel.perm

    def image(bits):
        return sum(1 << perm[z] for z in members(bits))

    found = near[window[0]]
    for n in range(1, lcm(map_order(kernel), P)):
        found = image(found) & near[window[n % P]]
    tracers = members(image(found))
    if not tracers:
        return [], None, None
    z = prefer if prefer in tracers else tracers[0]
    h = [z]
    for _ in range(P - 1):
        h.append(perm[h[-1]])
    return tracers, z, (tuple(h) if perm[h[-1]] == z else None)


def half_steps(kernel, delta, forward: bool):
    """The delta steps in one direction of time: the kernel's rows
    forward, and backward row u holds the w with d(f(w), u) < delta,
    ascending, the w with f(w) in within(delta)[u]."""
    if forward:
        return kernel.steps(delta)
    near, perm, rng = kernel.within(delta), kernel.perm, range(len(kernel.perm))
    return [[w for w in rng if near[u] >> perm[w] & 1] for u in rng]


# -- Fraction tables: balls, Hausdorff distance, delta-isometries ----------


def _indices(space: FiniteMetricSpace, points) -> tuple:
    """points as a tuple, each in range(space.n): the table reads -1 as n - 1."""
    points = tuple(points)
    for i in points:
        if i not in range(space.n):
            raise PreconditionError(f"{i!r} is not a point of the space (n = {space.n})")
    return points


def ball(space: FiniteMetricSpace, x: int, radius, closed: bool = False):
    """Indices within radius of x; strict by default, closed on request."""
    _indices(space, (x,))
    r = as_rational(radius)
    if closed:
        return frozenset(y for y in space.points() if space.table[x][y] <= r)
    return frozenset(y for y in space.points() if space.table[x][y] < r)


def hausdorff_distance(space: FiniteMetricSpace, a, b) -> Fraction:
    a, b = _indices(space, a), _indices(space, b)
    if not a or not b:
        raise PreconditionError("hausdorff_distance needs nonempty sets")
    d_ab = max(min(space.table[i][j] for j in b) for i in a)
    d_ba = max(min(space.table[i][j] for i in a) for j in b)
    return max(d_ab, d_ba)


def _as_total_map(mapping, src: FiniteMetricSpace, dst: FiniteMetricSpace):
    m = mapping if isinstance(mapping, dict) else dict(enumerate(mapping))
    missing = [i for i in range(src.n) if i not in m]
    if missing:
        raise PreconditionError(f"map not total on source carrier, missing {missing[:4]}")
    _indices(dst, m.values())
    return m


def distortion(mapping, src: FiniteMetricSpace, dst: FiniteMetricSpace) -> Fraction:
    """sup over pairs of |d_dst(f(a), f(b)) - d_src(a, b)|, exact."""
    m = _as_total_map(mapping, src, dst)
    worst = ZERO
    for a in range(src.n):
        for b in range(a + 1, src.n):
            gap = abs(dst.table[m[a]][m[b]] - src.table[a][b])
            if gap > worst:
                worst = gap
    return worst


def is_delta_isometry(mapping, src: FiniteMetricSpace, dst: FiniteMetricSpace, delta):
    """Check max(image Hausdorff gap, distortion) < delta, strictly.

    Returns (verdict, detail). The detail names the violated clause
    with its exact value when the verdict is False, and carries both
    values when True.
    """
    d = as_rational(delta)
    m = _as_total_map(mapping, src, dst)
    dist = distortion(m, src, dst)
    image = sorted(set(m.values()))
    density = hausdorff_distance(dst, image, tuple(range(dst.n)))
    if dist >= d:
        return False, f"distortion {format_rational(dist)} >= delta"
    if density >= d:
        return False, f"image not delta-dense: hausdorff {format_rational(density)} >= delta"
    return True, (f"distortion {format_rational(dist)}, "
                  f"image hausdorff {format_rational(density)}")


# -- orbits and relabelings, point by point ----------------------------------


def iterate(system, x, n: int):
    """f^n(x); a point off the carrier raises, as in orbit."""
    point_index(system, x) if system.finite else system.check_point(x)
    step = system.image if n >= 0 else system.preimage
    for _ in range(abs(n)):
        x = step(x)
    return x


def is_self_isometry(system, relabel: dict) -> bool:
    """Is relabel a bijection of the finite carrier that keeps every distance?
    A dict's keys are distinct, so equal key and value sets make a bijection."""
    if not system.finite:
        return False
    try:
        if not set(relabel) == set(relabel.values()) == set(system.kernel.pts):
            return False
    except TypeError:               # an unhashable value is no carrier point
        return False
    pts = list(relabel)
    return all(system.dist(relabel[a], relabel[b]) == system.dist(a, b)
               for i, a in enumerate(pts) for b in pts[i + 1:])


# -- pseudo-orbits, window by window ---------------------------------------


class PseudoOrbitGraph(NamedTuple):
    delta: Fraction
    successors: dict      # point -> tuple of admissible next points

    def out_degree(self, u) -> int:
        return len(self.successors[u])


def pseudo_orbit_graph(system, delta) -> PseudoOrbitGraph:
    delta = positive(delta, "pseudo-orbit gap")
    if not system.finite:
        raise UnsupportedBackendError(
            f"{system.backend} carrier has no finite pseudo-orbit graph")
    pts = system.points()
    succ = {u: tuple(v for v in pts if system.dist(system.image(u), v) < delta)
            for u in pts}
    return PseudoOrbitGraph(delta, succ)


def _reverse(graph, pts):
    rev = {u: [] for u in pts}
    for u in pts:
        for v in graph.successors[u]:
            rev[v].append(u)
    return PseudoOrbitGraph(graph.delta, {u: tuple(vs) for u, vs in rev.items()})


def _walks(graph, start, length):
    """All walks of `length` steps from start, start excluded from output."""
    if length == 0:
        yield ()
        return
    for v in graph.successors[start]:
        for rest in _walks(graph, v, length - 1):
            yield (v,) + rest


def enumerate_pseudo_orbits(system, x, delta, N, budget=None):
    """All delta-pseudo-orbit windows x_{-N}..x_N with x_0 = x, in the
    order shadowable_windowed reports them.

    Counts first and refuses beyond the window budget, as
    shadowable_windowed does.
    """
    budget = resolve_budget(budget, DEFAULT_WINDOW_BUDGET)
    _check_budget(count_pseudo_orbits(system, x, delta, N), budget)
    graph = pseudo_orbit_graph(system, delta)
    rev = _reverse(graph, system.points())
    return (PseudoOrbitWindow(tuple(reversed(back)) + (x,) + tuple(out), graph.delta)
            for back in _walks(rev, x, N) for out in _walks(graph, x, N))


def reachable_sets(kernel, x: int, eps, delta, forward: bool):
    """The tracer sets of the states reachable in one time direction, as
    bitsets, or None when the empty set is reachable.

    States are (point u, surviving time-zero tracer set A, exponent e
    mod order). A step to v at exponent e' keeps A & pull[e'][v], the
    eager_pullbacks rows, for each of the kernel's delta steps v from u in
    that direction.
    x is shadowable exactly when neither half reaches the empty set and
    every forward set meets every backward set: the second route to
    shadowable_exact's one forward walk.
    """
    pull = eager_pullbacks(kernel, eps)
    order = len(pull)
    succ, kstep = half_steps(kernel, delta, forward), 1 if forward else -1
    start = (x, pull[0][x], 0)      # holds x: eps > 0
    seen, stack = {start}, [start]
    while stack:
        u, A, e = stack.pop()
        e = (e + kstep) % order
        row = pull[e]
        for v in succ[u]:
            B = A & row[v]
            if not B:
                return None
            state = (v, B, e)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return {A for _, A, _ in seen}


def time_zero_verdicts(kernel, points, eps, delta) -> dict:
    """{x: verdict} for the indices x in points, in order: the second route
    to shadowable_exact_points, whose states hold the tracers' current
    positions. Here a state is (point u, time-zero tracer set A, exponent
    e mod order), a step to v keeps A & pull[e + 1][v] for each
    delta step v from u, and each walk skips the states of the earlier
    walks that ended without the empty set."""
    pull = eager_pullbacks(kernel, eps)
    order = len(pull)
    succ = kernel.steps(delta)

    def walk(x, safe):
        start = (x, pull[0][x], 0)      # holds x: eps > 0
        seen, stack = set(safe), [start]
        seen.add(start)
        while stack:
            u, A, e = stack.pop()
            e = (e + 1) % order
            row = pull[e]
            for v in succ[u]:
                B = A & row[v]
                if not B:
                    return None
                state = (v, B, e)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
        return seen

    verdicts, safe = {}, frozenset()
    for x in points:
        seen = walk(x, safe)
        verdicts[x] = seen is not None
        safe = safe if seen is None else seen
    return verdicts


def trimmed_limit_sets(kernel, x: int, eps, delta, forward: bool):
    """The limit tracer sets of one time direction, as bitsets, or None
    when the empty set is reachable: the walk of reachable_sets, then a
    counter-based trim over the set-keeping edges.

    A is a limit set when some reachable walk keeps it forever. The trim
    removes every state with no set-keeping successor left; the sets of
    the states that remain are the limits.
    """
    pull = eager_pullbacks(kernel, eps)
    order = len(pull)
    succ, kstep = half_steps(kernel, delta, forward), 1 if forward else -1
    start = (x, pull[0][x], 0)
    ids, states, left, preds, stack = {start: 0}, [start], [0], [[]], [0]
    while stack:
        s = stack.pop()
        u, A, e = states[s]
        e = (e + kstep) % order
        row = pull[e]
        for v in succ[u]:
            B = A & row[v]
            if not B:
                return None
            state = (v, B, e)
            j = ids.setdefault(state, len(states))
            if j == len(states):
                states.append(state)
                left.append(0)
                preds.append([])
                stack.append(j)
            if B == A:
                left[s] += 1
                preds[j].append(s)
    dead = [s for s, k in enumerate(left) if not k]
    while dead:
        for s in preds[dead.pop()]:
            left[s] -= 1
            if not left[s]:
                dead.append(s)
    return {states[s][1] for s, k in enumerate(left) if k}


# -- separation windows ----------------------------------------------------


class SeparationWindow(NamedTuple):
    times: frozenset            # {n in [-N, N] : d(f^n x, f^n y) > eps}
    window: int
    full_period: bool           # window covers a joint pair period
    period: int = None


def _joint_period_or_none(system, x, y):
    obx, oby = orbit(system, x), orbit(system, y)
    if obx.finite and oby.finite:
        return lcm(obx.period, oby.period)
    return None


def separation_set(system, x, y, eps, window: int) -> SeparationWindow:
    """Times |n| <= window at which the pair separates beyond eps (strict).

    When the window covers a full joint period of the pair orbit the
    flag is set: membership for every integer n then follows by
    periodic extension.
    """
    eps = as_rational(eps)
    if window < 0:
        raise PreconditionError("window must be nonnegative")
    times = frozenset(n for n in range(-window, window + 1)
                      if system.dist(iterate(system, x, n), iterate(system, y, n)) > eps)
    period = _joint_period_or_none(system, x, y)
    full = period is not None and 2 * window + 1 >= period
    return SeparationWindow(times, window, full, period)


# -- measures and shift balls ----------------------------------------------


def gamma_set(system, x, c, z):
    """phi_set(z, c) cut down to the open ball B(x, c); z must lie in that ball."""
    c = as_rational(c)
    ball = system_ball(system, x, c)
    if z not in ball:
        raise PreconditionError(
            f"{point_label(z)} lies outside the open ball of radius {c}")
    phi = phi_set(system, z, c)
    if isinstance(phi, frozenset):
        return frozenset(y for y in phi if y in ball)
    # phi is the whole shift here (c >= 1), so the cut is the ball itself
    return ball



def pullback(h, mu: WeightedMeasure) -> WeightedMeasure:
    """Transported measure giving h(x) the weight of x.

    For Bernoulli measures h must act as a symbol permutation (any
    other transformation has no Bernoulli image).
    """
    if mu.kind == "weights":
        relabel = h if callable(h) else h.__getitem__
        moved = {relabel(p): w for p, w in mu.weights.items()}
        if len(moved) != len(mu.weights):
            raise PreconditionError("measure transport needs a bijection")
        return WeightedMeasure.from_weights(moved)
    n = len(mu.bernoulli)
    if callable(h):
        perm = [h(s) for s in range(n)]
    else:
        try:
            perm = [h[s] for s in range(n)]
        except (KeyError, IndexError, TypeError):
            raise UnsupportedBackendError(
                "Bernoulli transport needs a symbol permutation") from None
    if sorted(perm) != list(range(n)):
        raise UnsupportedBackendError(
            "Bernoulli transport needs a symbol permutation")
    moved = [None] * n
    for s in range(n):
        moved[perm[s]] = mu.bernoulli[s]
    return WeightedMeasure.from_bernoulli(moved)


def sample_points(ball, alphabet: int, limit: int = 6):
    """A few members of a ShiftBall: the center plus single-symbol edits
    outside its window."""
    out = [ball.center]
    h = ball.halfwidth
    for k in range(limit - 1):
        pos = h + k
        new = (ball.center.value(pos) + 1) % alphabet
        out.append(with_symbol(ball.center, pos, new))
    return out
