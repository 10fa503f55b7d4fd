"""The finite kernel against brute-force loops over dist and image."""

import gc
import importlib.util
import weakref
from fractions import Fraction as F
from math import lcm
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from pointdyn import metric, shadowing as SH, systems
from pointdyn.errors import PreconditionError, UnsupportedBackendError
from pointdyn.metric import FiniteMetricSpace, discrete_space
from pointdyn.systems import (CircleSystem, build_explicit, build_lattice,
                              build_shift, conjugate_system, materialize, members,
                              pair_sup_separation, sorted_points, system_ball)

from oracles import (distance_table, eager_pullbacks, iterate, map_order,
                     pseudo_orbit_graph, traced_separation, walked_cycle)

PALETTE = (F(1), F(5, 4), F(4, 3), F(3, 2), F(7, 4), F(2))
RADII = (F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(1), F(5, 4), F(3, 2), F(2), F(3))
TORUS_MATRICES = ((2, 1, 1, 1), (1, 1, 0, 1), (0, 1, 1, 0))


@st.composite
def palette_systems(draw, max_n=6):
    """An explicit system on at most max_n points, distances from the palette."""
    n = draw(st.integers(1, max_n))
    table = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = draw(st.sampled_from(PALETTE))
    perm = draw(st.permutations(range(n)))
    return build_explicit(FiniteMetricSpace(table), tuple(perm))


@st.composite
def finite_systems(draw):
    kind = draw(st.sampled_from(("explicit", "circle", "torus")))
    if kind == "circle":
        return build_lattice(draw(st.integers(2, 9)), step=draw(st.integers(0, 8)))
    if kind == "torus":
        return build_lattice(draw(st.integers(2, 4)), kind="torus",
                             matrix=draw(st.sampled_from(TORUS_MATRICES)))
    return draw(palette_systems())


# -- oracles: the loops the kernel replaced ---------------------------------


def oracle_order(system):
    pts = system.points()
    cur, order = [system.image(p) for p in pts], 1
    while cur != pts:
        cur = [system.image(p) for p in cur]
        order += 1
    return order


def oracle_orbits(system):
    out = set()
    for p in system.points():
        orb, cur = [p], system.image(p)
        while cur != p:
            orb.append(cur)
            cur = system.image(cur)
        out.add(frozenset(orb))
    return out


def oracle_tracers(system, targets, radius, first, closed):
    found = []
    for z in system.points():
        cur = z
        for _ in range(abs(first)):
            cur = system.image(cur) if first > 0 else system.preimage(cur)
        ok = True
        for t in targets:
            d = system.dist(cur, t)
            if (d > radius) if closed else (d >= radius):
                ok = False
                break
            cur = system.image(cur)
        if ok:
            found.append(z)
    return found


def oracle_lattice_dist(system, x, y):
    """The arc metric min(|i-j|, n-|i-j|)/n, maxed over torus coordinates."""
    def arc(a, b):
        a = abs(a - b) % system.n
        return F(min(a, system.n - a), system.n)
    if isinstance(system, CircleSystem):
        return arc(x, y)
    return max(arc(x[0], y[0]), arc(x[1], y[1]))


def oracle_sup_separation(system, x, y):
    if x == y:
        return F(0)
    best = system.dist(x, y)
    a, b = system.image(x), system.image(y)
    while (a, b) != (x, y):
        d = system.dist(a, b)
        if d > best:
            best = d
        a, b = system.image(a), system.image(b)
    return best


# -- properties ---------------------------------------------------------------


@given(finite_systems())
def test_cycles_match_oracle(system):
    k = system.kernel
    assert {frozenset(k.pts[i] for i in cyc) for cyc in k.cycles} == \
        oracle_orbits(system)
    assert sorted(i for cyc in k.cycles for i in cyc) == list(range(len(k.pts)))
    assert [cyc[0] for cyc in k.cycles] == sorted(min(cyc) for cyc in k.cycles)
    for cyc in k.cycles:
        assert all(k.perm[cyc[j]] == cyc[(j + 1) % len(cyc)]
                   for j in range(len(cyc)))
        assert all(k.cycle_of[i] == cyc for i in cyc)


@given(finite_systems(), st.data())
def test_tracers_match_oracle(system, data):
    # a window x_-N..x_N starts at exponent -N, N = its radius: trace reads
    # it from x_-N and moves the tracers to time 0. Empty and even-length
    # windows start at exponent -radius too (an empty window's radius is -1)
    pts = system.points()
    entries = data.draw(st.lists(st.sampled_from(pts), max_size=7))
    radius = data.draw(st.sampled_from(RADII))
    window = SH.PseudoOrbitWindow(tuple(entries), F(1))
    got = SH.trace(system, window, radius)
    assert got.points == frozenset(
        oracle_tracers(system, entries, radius, -window.radius, False))


@given(finite_systems(), st.data())
def test_trace_cycle_matches_oracle(system, data):
    k = system.kernel
    pts = system.points()
    window = data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=5))
    radius = data.draw(st.sampled_from(RADII))
    first = data.draw(st.integers(-4, 4))
    closed = data.draw(st.booleans())
    prefer = data.draw(st.sampled_from(pts))
    # a start at exponent first is the window rotated by -first
    P = len(window)
    turned = window[-first % P:] + window[:-first % P]
    found, z, h = k.trace_cycle([k.index[p] for p in turned], radius, closed,
                                prefer=k.index[prefer])
    # the oracle traces order * P steps, a multiple of the routine's horizon
    targets = [window[n % P] for n in range(oracle_order(system) * P)]
    want = oracle_tracers(system, targets, radius, first, closed)
    assert [k.pts[i] for i in found] == want
    if not want:
        assert z is None and h is None
        return
    pick = prefer if prefer in want else sorted_points(want)[0]
    assert k.pts[z] == pick
    if iterate(system, pick, P) != pick:
        assert h is None
    else:
        assert [k.pts[i] for i in h] == [iterate(system, pick, n) for n in range(P)]


@given(finite_systems(), st.data())
def test_within_and_pullbacks_match_oracle(system, data):
    k = system.kernel
    pts = system.points()
    # the system's own distances are the strict/closed boundary; 2/11 has
    # a denominator coprime to every table's (n <= 9, palette quarters
    # and thirds)
    table = distance_table(system)
    own = tuple(sorted({d for row in table for d in row}))
    radius = data.draw(st.sampled_from(RADII + (F(2, 11),) + own))

    def bitsets(starts, inside):
        # row v holds bit i when the point started from pts[i] lies inside v
        return tuple(sum(1 << i for i, y in enumerate(starts)
                         if inside(system.dist(y, v))) for v in pts)

    for closed in (False, True):
        inside = (lambda d: d <= radius) if closed else (lambda d: d < radius)
        assert k.within(radius, closed) == bitsets(pts, inside)
        # the oracle's pull-back rows, which the second routes of the
        # shadowing tests read, against Fraction distances at each exponent
        pull = eager_pullbacks(k, radius, closed)
        assert len(pull) == oracle_order(system)
        image = list(pts)          # image[i] = f^e(pts[i])
        for row in pull:
            assert row == bitsets(image, inside)
            image = [system.image(p) for p in image]
    for x in pts:
        # balls are open, and a radius of 0, one of the carrier's own
        # distances, is refused
        if radius == 0:
            with pytest.raises(PreconditionError, match="ball radius must be positive"):
                system_ball(system, x, radius)
        else:
            assert system_ball(system, x, radius) == \
                frozenset(y for y in pts if system.dist(x, y) < radius)
    assert members(0) == [] and members(0b101001) == [0, 3, 5]
    # within compares on scaled(S): S * table is integral, and no T < S is
    S = k.denominator
    assert all((d * S).denominator == 1 for row in table for d in row)
    assert all(any((d * T).denominator != 1 for row in table for d in row)
               for T in range(1, S))
    for scale in (S, 3 * S):
        got = k.scaled(scale)
        assert all(type(v) is int for row in got for v in row)
        assert got == tuple(tuple(scale * d for d in row) for row in table)
    if radius > 0:
        # the step rows are the pseudo-orbit graph on indices, and the
        # windowed decider's backward rows, built from them, its reverse
        graph = pseudo_orbit_graph(system, radius)
        succ = [[k.index[v] for v in graph.successors[p]] for p in pts]
        back = [[u for u in range(len(pts)) if v in succ[u]] for v in range(len(pts))]
        forward, backward = SH._windows(system, pts[0], radius, 0)[1]
        assert forward is k.steps(radius)
        assert succ == [list(row) for row in forward]
        assert back == [list(row) for row in backward]
        assert all(list(row) == sorted(row) for row in forward + backward)


def test_members_match_the_bit_scan():
    # members takes off the lowest set bit once per set bit; the scan tests
    # every position below the bit length
    rng = Random(11)
    for width in (0, 1, 63, 64, 65, 1100):
        full = (1 << width) - 1
        rows = {0, full, full ^ (full >> 1), full & 1, full & 0x5555 << 40}
        rows |= {rng.getrandbits(width) for _ in range(8)}
        rows |= {rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
                 for _ in range(8)}
        for bits in rows:
            assert members(bits) == [i for i in range(bits.bit_length()) if bits >> i & 1]


@given(finite_systems(), st.data())
def test_separation_matches_oracle(system, data):
    k = system.kernel
    oracle = [[oracle_sup_separation(system, p, q) for q in k.pts] for p in k.pts]
    assert all(pair_sup_separation(system, p, q) == oracle_sup_separation(system, p, q)
               for p in k.pts for q in k.pts)
    # the system's own separations are the <= boundary, and just above
    # them; at the carrier's largest distance every pair is inseparable
    own = sorted({v for row in oracle for v in row})
    base = data.draw(st.sampled_from(own + list(RADII) + [F(-1)]))
    top = max(system.dist(p, q) for p in k.pts for q in k.pts)
    for c in (base, base + F(1, 10 ** 6), top, top - F(1, 10 ** 6)):
        assert k.inseparable(c) == tuple(sum(1 << j for j, v in enumerate(row) if v <= c)
                                         for row in oracle)


def separation_scans(system, c) -> tuple:
    """(the separation view of a fresh kernel of system at c, the orbit
    classes its pass tested)."""
    k, scanned = systems.FiniteKernel(system), []
    scan = k._tracing_classes

    def counted(window, near):
        scanned.append(tuple(window))
        return scan(window, near)

    k._tracing_classes = counted
    return k._separation(c), scanned


def assert_separation_is_traced(system, c, full):
    view, scanned = separation_scans(system, c)
    assert view == traced_separation(system.kernel, c)
    # at and above the diameter every row is full, and no class is tested
    assert (scanned == []) == full
    if full:
        assert set(view[0]) == {(1 << len(view[0])) - 1}


@pytest.mark.parametrize("n", (9, 17))
def test_separation_at_the_diameter_on_cat_tori(n):
    cat = build_lattice(n, kind="torus", matrix=(2, 1, 1, 1))
    k = cat.kernel
    top = F(max(map(max, k.rows)), k.denominator)
    for c in (top, F(10)):
        assert_separation_is_traced(cat, c, True)
    assert_separation_is_traced(cat, top - F(1, 10 ** 6), False)


@settings(max_examples=60, deadline=None)
@given(finite_systems())
def test_separation_at_the_diameter_matches_tracing(system):
    k = system.kernel
    top = F(max(map(max, k.rows)), k.denominator)
    for c in (top, top + 1):
        assert_separation_is_traced(system, c, True)
    if top > 0:
        assert_separation_is_traced(system, top - F(1, 10 ** 6), False)


# denominators 7, 9 and 11: D = 693, so every scaled value exceeds 255 and
# within takes its generator route; distances in [1/2, 1] keep the triangles
WIDE = build_explicit(FiniteMetricSpace(
    [[0, F(4, 7), F(5, 9), F(6, 11)], [F(4, 7), 0, F(5, 7), F(7, 9)],
     [F(5, 9), F(5, 7), 0, F(10, 11)], [F(6, 11), F(7, 9), F(10, 11), 0]]), (1, 2, 3, 0))


@given(finite_systems())
@example(WIDE)
def test_within_rows_match_oracle_at_own_values(system):
    # rows translated from bytes when every scaled value fits in one,
    # else built by the generator, against Fraction comparisons at each
    # of the system's own distances and just above and below it
    k = system.kernel
    table = distance_table(system)
    assert (k._byte_rows is None) == any(v > 255 for row in k.rows for v in row)
    tiny = F(1, 10 ** 6)
    for d in sorted({d for row in table for d in row}):
        for r in (d - tiny, d, d + tiny):
            for closed in (False, True):
                inside = (lambda v: v <= r) if closed else (lambda v: v < r)
                assert k.within(r, closed) == tuple(
                    sum(1 << j for j, v in enumerate(row) if inside(v)) for row in table)


@given(st.one_of(finite_systems(), st.just(WIDE)), st.data())
def test_first_inseparable_pair_matches_oracle(system, data):
    k = system.kernel
    oracle = [[oracle_sup_separation(system, p, q) for q in k.pts] for p in k.pts]
    # below the least separation no pair is inseparable; at the diameter
    # and above every pair is
    parted = min((v for row in oracle for v in row if v), default=F(1))
    top = max(system.dist(p, q) for p in k.pts for q in k.pts)
    c = data.draw(st.sampled_from(sorted({v for row in oracle for v in row})
                                  + [parted / 2, top, top + 1]))
    mask = data.draw(st.integers(0, (1 << len(k.pts)) - 1))
    inside = members(mask)
    want = next(((i, j) for at, i in enumerate(inside) for j in inside[at + 1:]
                 if oracle[i][j] <= c), None)
    assert k.first_inseparable_pair(c, mask) == want
    if c < parted:
        assert want is None
    if c >= top and len(inside) > 1:
        assert want == (inside[0], inside[1])


@st.composite
def large_lattices(draw):
    """Lattices past finite_systems' sizes, random explicit systems, or
    their conjugate twins: the cat map on tori n = 5..12, where arcs reach
    2 and more and the row blocks differ, circles up to n = 36, and
    explicit tables up to n = 6. A twin transports the metric or keeps
    it, as drawn."""
    kind = draw(st.sampled_from(("torus", "circle", "explicit")))
    if kind == "torus":
        system = build_lattice(draw(st.integers(5, 12)), kind="torus",
                               matrix=TORUS_MATRICES[0])
    elif kind == "circle":
        system = build_lattice(draw(st.integers(2, 36)), step=draw(st.integers(0, 35)))
    else:
        system = draw(finite_systems().filter(lambda s: s.backend == "explicit"))
    if draw(st.booleans()):
        pts = system.points()
        system = conjugate_system(system, dict(zip(pts, draw(st.permutations(pts)))),
                                  transport_metric=draw(st.booleans()))
    return system


def reversed_twin(system, transport_metric):
    pts = system.points()
    return conjugate_system(system, dict(zip(pts, reversed(pts))),
                            transport_metric=transport_metric)


def long_cycles(lengths, seed):
    """An explicit system on cycles of the given lengths, with distances
    drawn from 100 values in [1, 2), so that a pair orbit's sup is rarely
    reached at more than one step."""
    perm, rng = [], Random(seed)
    for p in lengths:
        perm += [len(perm) + (t + 1) % p for t in range(p)]
    n = len(perm)
    table = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = F(100 + rng.randrange(100), 100)
    return build_explicit(FiniteMetricSpace(table), tuple(perm))


@settings(max_examples=30, deadline=None)
@given(large_lattices())
@example(build_lattice(12, kind="torus", matrix=TORUS_MATRICES[0]))
@example(build_lattice(36, step=5))
@example(reversed_twin(build_lattice(9, kind="torus", matrix=TORUS_MATRICES[0]), True))
@example(reversed_twin(build_explicit(FiniteMetricSpace(
    [[0, F(1, 2), F(2, 3)], [F(1, 2), 0, F(3, 4)], [F(2, 3), F(3, 4), 0]]), (1, 2, 0)), False))
# one point: a single-index gather still yields a row
@example(build_lattice(1, kind="torus", matrix=TORUS_MATRICES[0]))
@example(build_explicit(discrete_space(1), (0,)))
@example(reversed_twin(build_lattice(1, kind="torus", matrix=TORUS_MATRICES[0]), True))
@example(reversed_twin(build_lattice(1, kind="torus", matrix=TORUS_MATRICES[0]), False))
@example(reversed_twin(build_explicit(discrete_space(1), (0,)), True))
@example(reversed_twin(build_explicit(discrete_space(1), (0,)), False))
# cycles longer than 32, pair orbits up to lcm(70, 5) = 70 steps
@example(long_cycles((70, 5), 70))
@example(reversed_twin(long_cycles((33, 6, 4), 33), True))
def test_integer_rows_at_lattice_sizes(system):
    # the per-entry route the integer rows replaced: a dist double loop,
    # the lcm over every denominator, and the rescale of each entry
    k = system.kernel
    oracle = [[system.dist(p, q) for q in k.pts] for p in k.pts]
    if system.backend == "lattice":
        assert oracle == [[oracle_lattice_dist(system, p, q) for q in k.pts] for p in k.pts]
    # the materialized copy builds its Fractions from the integer rows
    assert [list(row) for row in materialize(system)[0].space.table] == oracle
    S = k.denominator
    assert S == lcm(*(d.denominator for row in oracle for d in row))
    if system.backend == "explicit":
        # a twin's rows come from its source; a fresh system on the same
        # table converts it entry by entry, one conversion per object
        fresh = build_explicit(system.space, system.perm)
        assert (S, k.scaled(S)) == fresh._integer_table()
    for scale in (S, 2 * S):
        got = k.scaled(scale)
        assert all(type(v) is int for row in got for v in row)
        assert got == tuple(tuple(int(scale * d) for d in row) for row in oracle)
    assert all(pair_sup_separation(system, p, q) == oracle_sup_separation(system, p, q)
               for p in k.pts for q in k.pts)


@given(finite_systems(), st.randoms(use_true_random=False))
@example(build_lattice(2, step=1), Random(0))
@example(build_lattice(7, step=3), Random(1))
@example(build_lattice(2, kind="torus", matrix=(1, 1, 0, 1)), Random(2))
@example(build_lattice(3, kind="torus", matrix=(2, 1, 1, 1)), Random(3))
def test_kernel_maps_and_powers(system, rng):
    k = system.kernel
    assert system.kernel is k
    for i, p in enumerate(k.pts):
        assert k.pts[k.perm[i]] == system.image(p)
        assert k.pts[k.inv[i]] == system.preimage(p)
        for j, q in enumerate(k.pts):
            assert F(k.rows[i][j], k.denominator) == system.dist(p, q)
            if system.backend == "lattice":
                # the arc tables against the formula they replaced
                assert system.dist(p, q) == oracle_lattice_dist(system, p, q)
    # the transported conjugate indexes the kernel table; the loop it
    # replaced called dist for each pair
    relabel = dict(zip(k.pts, rng.sample(k.pts, len(k.pts))))
    inv = {v: u for u, v in relabel.items()}
    twin = conjugate_system(system, relabel, transport_metric=True)
    assert twin.space.table == tuple(tuple(system.dist(inv[a], inv[b]) for b in k.pts)
                                     for a in k.pts)
    assert twin.perm == tuple(k.index[relabel[system.image(inv[p])]] for p in k.pts)
    # image(bits, m) moves a tracer set by f^m, either way in time
    bits = rng.getrandbits(len(k.pts))
    for m in range(-3, 4):
        assert members(k.image(bits, m)) == sorted(
            k.index[iterate(system, k.pts[i], m)] for i in members(bits))
    # orbit(i), which lays the periodic tracer's h, against an image walk
    for i, p in enumerate(k.pts):
        walk, cur = [p], system.image(p)
        while cur != p:
            walk.append(cur)
            cur = system.image(cur)
        assert [k.pts[j] for j in k.orbit(i)] == walk


LADDER = Path(__file__).resolve().parents[1] / "bench" / "ladder.py"


def ladder_rung(case):
    """A fresh system of bench/ladder.py's rung `case`, built by the
    ladder's own code (the module is loaded from its file)."""
    spec = importlib.util.spec_from_file_location("bench_ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return {name: make for name, make, _c in ladder.rungs(systems, metric)}[case]()


def test_separation_over_many_cycle_lengths():
    # the ladder's cycles43 rung: cycles of lengths 3, 4, 5, 7, 11 and 13,
    # so n = 43 and order 60 060, and pair orbits up to lcm(11, 13) = 143
    system = ladder_rung("cycles43")
    k = system.kernel
    assert sorted(map(len, k.cycles)) == [3, 4, 5, 7, 11, 13] and map_order(k) == 60060
    oracle = [[oracle_sup_separation(system, p, q) for q in k.pts] for p in k.pts]
    assert [[pair_sup_separation(system, p, q) for q in k.pts] for p in k.pts] == oracle
    for c in sorted({v for row in oracle for v in row}):
        assert k.inseparable(c) == tuple(sum(1 << j for j, v in enumerate(row) if v <= c)
                                         for row in oracle)
    assert "powers" not in vars(k)


def test_trace_cycle_on_long_orders():
    # cycles43 has order 60 060: the oracle walks lcm(order, P) steps, the
    # kernel tests the orbits of f^P. Point 0's orbit (P = 3) is traced by
    # 0 alone; the window (0, 1) (P = 2) by 4 and 6 at 7/5, the orbit of
    # f^2 through 4 on the 4-cycle, whose h does not close up
    k = ladder_rung("cycles43").kernel
    cases = {(k.orbit(0), F(7, 5)): [0], (k.orbit(0), F(5, 4)): [0],
             ((0, 1), F(7, 5)): [4, 6], ((0, 1), F(5, 4)): []}
    for (window, radius), want in cases.items():
        got = k.trace_cycle(list(window), radius, prefer=6)
        assert got == walked_cycle(k, list(window), radius, prefer=6)
        assert got[0] == want
    assert k.trace_cycle([0, 1], F(7, 5))[1:] == (4, None)


def test_separation_on_long_coprime_cycles():
    # the ladder's coprime400 rung: cycles of lengths 199 and 201, whose
    # pair orbits have period 39 999
    system = ladder_rung("coprime400")
    k = system.kernel
    a, b = sorted(k.cycles, key=len)
    assert (len(a), len(b)) == (199, 201)
    rows, D = k.scaled(k.denominator), k.denominator
    # coprime lengths: the orbit of (x, y), x in a and y in b, is all of a x b,
    # so every cross pair separates by the block's max, and none by less
    block = max(rows[x][y] for x in a for y in b)
    amask, bmask = sum(1 << x for x in a), sum(1 << y for y in b)
    at, below = k.inseparable(F(block, D)), k.inseparable(F(block - 1, D))
    assert all(at[x] & bmask == bmask for x in a) and all(at[y] & amask == amask for y in b)
    assert not any(below[x] & bmask for x in a) and not any(below[y] & amask for y in b)
    for x in (a[0], a[57], b[0], b[200]):
        same = a if x in a else b
        assert [pair_sup_separation(system, k.pts[x], k.pts[y]) for y in same] == \
            [oracle_sup_separation(system, k.pts[x], k.pts[y]) for y in same]


def test_views_are_keyed_by_value():
    # equal radii as distinct objects share one view, and no key holds a
    # Fraction, whose hash is Python code
    system = build_lattice(12, kind="torus", matrix=(1, 1, 0, 1))
    k = system.kernel
    one, other = F(1, 4), F(2, 8)
    assert one is not other
    for view in (k.within, k.steps, k.inseparable, k.cycle_failures):
        assert view(one) is view(other)
    assert k.within(one, True) is k.within(other, True)
    assert k.within(one, True) is not k.within(one)
    assert not any(type(v) is F for key in k._views for v in key)


def test_radii_of_one_bound_share_a_view():
    # Z36 meets a radius r at the bound floor_scaled(r, 36, closed): radii
    # of one bound share one build, open or closed, and no key holds a
    # radius's parts or closed
    k = build_lattice(36, step=1).kernel
    assert k.within(F(1, 72)) is k.within(F(1, 72), closed=True)      # bound 0
    assert k.within(F(1, 4)) is k.within(F(2, 9), closed=True)        # bound 8
    assert k.within(F(1, 4), closed=True) is not k.within(F(1, 4))    # bound 9
    assert sorted(key for key in k._views if key[0] == "within") == \
        [("within", 0), ("within", 8), ("within", 9)]
    # 1/4 and 13/50 both meet the rows at the closed bound 9
    one, other = F(1, 4), F(13, 50)
    assert k.inseparable(one) is k.inseparable(other)
    assert k.cycle_failures(one) is k.cycle_failures(other)
    assert k.cycle_failures(one) == (2 ** 36 - 1, ((0, 1),) * 36)
    assert all(len(key) == 2 and type(key[1]) is int for key in k._views)


@given(finite_systems())
@example(WIDE)
def test_cycle_failures_match_oracle(system):
    # each cycle's verdict is its least pair with sup-separation at most c,
    # read off the oracle, at each own value and just above and below it
    k = system.kernel
    oracle = [[oracle_sup_separation(system, p, q) for q in k.pts] for p in k.pts]
    tiny = F(1, 10 ** 6)
    for base in sorted({v for row in oracle for v in row}):
        for c in (base - tiny, base, base + tiny):
            want = [None] * len(k.pts)
            for cyc in k.cycles:
                inside = sorted(cyc)
                pair = next(((i, j) for at, i in enumerate(inside) for j in inside[at + 1:]
                             if oracle[i][j] <= c), None)
                for i in cyc:
                    want[i] = pair
            bits = sum(1 << i for i, pair in enumerate(want) if pair)
            assert k.cycle_failures(c) == (bits, tuple(want))


def test_explicit_system_is_its_own_materialization():
    swap = build_explicit(discrete_space(3), (1, 0, 2))
    m, pts = materialize(swap)
    assert m is swap and pts == (0, 1, 2)
    # a lattice gets a fresh copy on each call, built from its integer rows
    r12 = build_lattice(12, step=5)
    (a, pts), (b, _) = materialize(r12), materialize(r12)
    assert a is not b and a.space == b.space and a.perm == b.perm == r12.kernel.perm
    assert a.space.table == distance_table(r12) and pts == tuple(r12.points())
    assert a.kernel.rows is r12.kernel.rows


def test_infinite_carriers_have_no_kernel():
    with pytest.raises(UnsupportedBackendError):
        build_shift(2).kernel
    with pytest.raises(UnsupportedBackendError):
        materialize(build_shift(2))


@pytest.mark.parametrize("make", (
    lambda: build_lattice(12, step=5),
    lambda: build_explicit(discrete_space(3), (1, 2, 0)),
), ids=("lattice", "explicit"))
def test_kernel_does_not_keep_its_system_alive(make):
    # the system caches its kernel; a link back would be a cycle that
    # only the cyclic collector frees. The kernel is integer data taken
    # when it is built, so its views still build once the system is gone.
    gc.disable()
    try:
        system = make()
        k = system.kernel

        def traced(kernel):
            # a periodic trace reads the cycles, within and the orbits of f^P
            return kernel.trace_cycle(kernel.orbit(0), F(1, 2))

        want = (k.within(F(1, 2)), traced(k))
        alive = weakref.ref(system)
        del system
        assert alive() is None
        fresh = make().kernel
        assert (fresh.within(F(1, 2)), traced(fresh)) == want
        assert k.inseparable(F(1, 2)) == fresh.inseparable(F(1, 2))
    finally:
        gc.enable()
