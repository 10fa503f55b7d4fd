"""Pseudo-orbits, windowed tracing, and the exact shadowing decider."""

import contextlib
import hashlib
import io
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st, target

from pointdyn.metric import FiniteMetricSpace, discrete_space
from pointdyn.systems import (Satellite, build_explicit, build_lattice, build_shift,
                              members, sorted_points, system_ball)
from pointdyn.bundled import bundled_system
from pointdyn.shiftspace import EPPoint, pure, with_symbol, shift_metric
from pointdyn.cli import main
from pointdyn.expansivity import (classify_points, expansive_point_at, is_expansive_on,
                                  minimally_expansive_at, point_verdicts,
                                  uniformly_expansive_at)
from pointdyn.measures import (WeightedMeasure, build_tracking_map,
                               expansive_measure_check, mu_expansive_points,
                               mu_shadowable_at, mu_uniformly_expansive_at, phi_set,
                               verify_strong_mu_topological_stability)
from pointdyn.stability import (build_conjugacy, first_delta_isometry_pair,
                                gh_stable_point_check, verify_topologically_stable_point)
from pointdyn import shadowing as SH
from pointdyn.errors import (MalformedInputError, PreconditionError, ResourceBudgetError,
                             UnsupportedBackendError)

from oracles import (distance_table, enumerate_pseudo_orbits, iterate, map_order,
                     pseudo_orbit_graph, reachable_sets, time_zero_verdicts,
                     trimmed_limit_sets)
from test_kernel import finite_systems, ladder_rung, palette_systems

ID3 = build_explicit(discrete_space(3), (0, 1, 2), name="id3")
R12K3 = build_lattice(12, step=3)
SHIFT2 = build_shift(2)
SAT3 = bundled_system("satellite3")
P01 = pure((0, 1))
UNI12 = WeightedMeasure.from_weights({p: 1 for p in range(12)})
NULL3 = WeightedMeasure.from_weights({0: 0, 1: 1, 2: 1})


# -- oracle: the frozenset decider the bitset one replaced ---------------------


def oracle_half_sets(system, x, eps, delta, forward):
    """(reachable, limits): the tracer sets of every reachable state of
    one time direction, and those that some infinite walk keeps, as
    frozensets of indices, by exploring every state and trimming each
    layer until it is stable."""
    kernel = system.kernel
    dist, perm = distance_table(system), kernel.perm
    rng = range(len(perm))
    powers = [list(rng)]            # powers[e][z] = f^e z, stepped from perm
    for _ in range(map_order(kernel) - 1):
        powers.append([perm[z] for z in powers[-1]])
    if forward:
        succ = [[v for v in rng if dist[perm[u]][v] < delta] for u in rng]
    else:
        succ = [[w for w in rng if dist[perm[w]][u] < delta] for u in rng]
    kstep = 1 if forward else -1
    start = (x, frozenset(z for z in rng if dist[z][x] < eps), 0)
    edges = {}
    stack = [start]
    while stack:
        state = stack.pop()
        if state in edges:
            continue
        u, A, e = state
        e2 = (e + kstep) % len(powers)
        pw = powers[e2]
        outs = [(v, frozenset(z for z in A if dist[pw[z]][v] < eps), e2)
                for v in succ[u]]
        edges[state] = outs
        stack.extend(s for s in outs if s not in edges)
    by_set = {}
    for state in edges:
        by_set.setdefault(state[1], []).append(state)
    return set(by_set), {A for A, layer in by_set.items()
                         if oracle_layer_has_infinite_path(layer, edges, A)}


def oracle_layer_has_infinite_path(layer, edges, A):
    layer = set(layer)
    changed = True
    while changed and layer:
        changed = False
        for state in list(layer):
            if not any(nxt in layer for nxt in edges[state] if nxt[1] == A):
                layer.discard(state)
                changed = True
    return bool(layer)


# -- oracle: the window-by-window loop the layered halves replaced ------------


def oracle_shadowable_windowed(system, x, eps, delta, N, budget=None):
    """Trace every window in enumeration order; the worst window is the
    first with the fewest tracers, and the first with none ends the loop."""
    checked = 0
    worst, worst_count = None, None
    for window in enumerate_pseudo_orbits(system, x, delta, N, budget):
        checked += 1
        tr = SH.trace(system, window, eps)
        if worst_count is None or len(tr.points) < worst_count:
            worst, worst_count = window, len(tr.points)
        if not tr.points:
            return SH.WindowedShadowReport(False, eps, delta, N, checked, window, 0)
    return SH.WindowedShadowReport(True, eps, delta, N, checked, worst, worst_count or 0)


def distances(system):
    """The carrier's positive distances, ascending: drawing eps and delta
    from them exercises d == eps and d == delta, both excluded (strict)."""
    return sorted({d for row in distance_table(system) for d in row if d > 0}) or [F(1)]


def minimal(sets):
    """The inclusion-minimal members of a family of frozensets."""
    return {A for A in sets if not any(B < A for B in sets)}


def as_sets(bitsets):
    return {frozenset(members(A)) for A in bitsets}


def assert_matches_oracle(system, eps, delta):
    # each half returns every reachable tracer set, whose minimal members
    # are the minimal limit sets; the verdict is the limit sets' verdict
    k = system.kernel
    for x, p in enumerate(k.pts):
        halves = []
        for forward in (True, False):
            got = reachable_sets(k, x, eps, delta, forward)
            reachable, want = oracle_half_sets(system, x, eps, delta, forward)
            if got is None:
                assert frozenset() in want
            else:
                assert as_sets(got) == reachable
                assert minimal(as_sets(got)) == minimal(want)
            halves.append(want)
        fwd, bwd = halves
        assert SH.shadowable_exact(system, p, eps, delta) == \
            all(a & b for a in fwd for b in bwd)


# -- unit tests ---------------------------------------------------------------


def test_pseudo_orbit_graph_degrees():
    g_half = pseudo_orbit_graph(ID3, F(1, 2))
    assert all(g_half.successors[u] == (u,) for u in (0, 1, 2))
    g_two = pseudo_orbit_graph(ID3, F(2))
    assert all(g_two.out_degree(u) == 3 for u in (0, 1, 2))
    gr = pseudo_orbit_graph(R12K3, F(1, 6))
    assert all(gr.out_degree(u) == 3 for u in range(12))
    assert set(gr.successors[0]) == {2, 3, 4}
    # delta below the spacing: only the true image qualifies (strict <)
    gr1 = pseudo_orbit_graph(R12K3, F(1, 12))
    assert all(gr1.successors[u] == (R12K3.image(u),) for u in range(12))


def test_window_counting_and_budget():
    assert SH.count_pseudo_orbits(ID3, 0, F(2), 1) == 9
    wins = list(enumerate_pseudo_orbits(ID3, 0, F(2), 1))
    assert len(wins) == 9 and all(w.center == 0 for w in wins)
    with pytest.raises(ResourceBudgetError) as err:
        enumerate_pseudo_orbits(ID3, 0, F(2), 3, budget=10)
    assert err.value.requested == 729 and err.value.budget == 10


def test_trace_sets():
    w = SH.PseudoOrbitWindow((11, 2, 5), F(1, 6))
    tr = SH.trace(R12K3, w, F(1, 4))
    assert tr.points == frozenset({0, 1, 2, 3, 4})


def test_windowed_verdicts():
    rep = SH.shadowable_windowed(ID3, 0, F(1, 2), F(1, 2), 2)
    assert rep.result is True and rep.windows_checked == 1
    rep2 = SH.shadowable_windowed(ID3, 0, F(1, 2), F(2), 1)
    assert rep2.result is False
    assert not SH.trace(ID3, rep2.worst_window, F(1, 2)).points
    rep3 = SH.shadowable_windowed(R12K3, 0, F(1, 4), F(1, 6), 1)
    assert rep3.result is True and rep3.windows_checked == 9
    # a pseudo-orbit drifting one lattice step per tick escapes any tracer
    drift = SH.PseudoOrbitWindow(tuple((4 * n) % 12 for n in range(-3, 4)), F(1, 6))
    assert not SH.trace(R12K3, drift, F(1, 4)).points
    rep4 = SH.shadowable_windowed(R12K3, 0, F(1, 4), F(1, 6), 3)
    assert rep4.result is False


def test_exact_decider_values():
    assert SH.shadowable_exact(ID3, 0, F(1, 2), F(1, 2)) is True
    assert SH.shadowable_exact(ID3, 0, F(1, 2), F(2)) is False
    assert SH.shadowable_exact(ID3, 0, F(2), F(2)) is True
    assert SH.shadowable_exact(R12K3, 0, F(1, 4), F(1, 12)) is True
    assert SH.shadowable_exact(R12K3, 0, F(1, 12), F(1, 12)) is True
    assert SH.shadowable_exact(R12K3, 0, F(1, 4), F(1, 6)) is False


@pytest.mark.parametrize("eps, delta", [(F(1, 4), 0), (0, 0), (0, F(1, 24)),
                                        (F(-1, 4), F(1, 24)), (F(1, 4), F(-1, 2)),
                                        (F(-1, 2), -1)])
def test_non_positive_scales_are_rejected(eps, delta):
    what = "tracing radius" if eps <= 0 else "pseudo-orbit gap"
    with pytest.raises(PreconditionError, match=f"{what} must be positive"):
        SH.shadowable_exact(R12K3, 0, eps, delta)
    with pytest.raises(PreconditionError, match=f"{what} must be positive"):
        SH.shadowable_windowed(R12K3, 0, eps, delta, 1)
    with pytest.raises(PreconditionError, match=f"{what} must be positive"):
        SH.shadowable_exact_points(R12K3, [0], eps, delta)
    with pytest.raises(PreconditionError, match=f"{what} must be positive"):
        mu_shadowable_at(R12K3, UNI12, 0, eps, delta, B=range(12))
    with pytest.raises(PreconditionError, match=f"{what} must be positive"):
        verify_strong_mu_topological_stability(R12K3, UNI12, 0, eps, delta, R12K3)
    with pytest.raises(PreconditionError, match=f"{what} must be positive"):
        build_conjugacy(R12K3, R12K3, 0, eps, delta)
    with pytest.raises(PreconditionError, match=f"{what} must be positive"):
        verify_topologically_stable_point(R12K3, 0, eps, delta, [R12K3])
    with pytest.raises(PreconditionError, match=f"{what} must be positive"):
        gh_stable_point_check(R12K3, 0, eps, delta, [R12K3])
    if eps <= 0:
        with pytest.raises(PreconditionError, match="tracing radius must be positive"):
            SH.trace(R12K3, SH.PseudoOrbitWindow((0,), F(1, 24)), eps)
        with pytest.raises(PreconditionError, match="tracking radius must be positive"):
            build_tracking_map(R12K3, R12K3, 0, eps)
        with pytest.raises(PreconditionError, match="eta must be positive"):
            build_conjugacy(R12K3, R12K3, 0, F(1, 4), F(1, 12), eta=eps)
        with pytest.raises(PreconditionError, match="eta must be positive"):
            verify_topologically_stable_point(R12K3, 0, F(1, 4), F(1, 12), [R12K3],
                                              eta=eps)
        with pytest.raises(PreconditionError, match="eta must be positive"):
            gh_stable_point_check(R12K3, 0, F(1, 4), F(1, 12), [R12K3], eta=eps)
    if delta <= 0:
        with pytest.raises(PreconditionError, match="delta must be positive"):
            first_delta_isometry_pair(R12K3, R12K3, delta)
        # the non-positive deltas 0, -1/2 and -1 double as expansivity constants
        what = "expansivity constant must be positive"
        with pytest.raises(PreconditionError, match=what):
            build_conjugacy(R12K3, R12K3, 0, F(1, 4), F(1, 12), expansivity_c=delta)
        with pytest.raises(PreconditionError, match=what):
            verify_topologically_stable_point(R12K3, 0, F(1, 4), F(1, 12), [R12K3],
                                              expansivity_c=delta)
        with pytest.raises(PreconditionError, match=what):
            verify_strong_mu_topological_stability(R12K3, UNI12, 0, F(1, 4), F(1, 12),
                                                   R12K3, expansivity_c=delta)
        # the measure layer's scales: c for the Phi-sets, delta for the ball
        with pytest.raises(PreconditionError, match=what):
            expansive_measure_check(ID3, NULL3, delta)
        # the classifiers and the Phi-sets once listed every point at such a c
        for classify in (expansive_point_at, uniformly_expansive_at,
                         minimally_expansive_at, phi_set):
            with pytest.raises(PreconditionError, match=what):
                classify(R12K3, 0, delta)
        with pytest.raises(PreconditionError, match=what):
            is_expansive_on(R12K3, range(12), delta)
        for variant in ("expansive", "uniform", "minimal"):
            with pytest.raises(PreconditionError, match=what):
                point_verdicts(R12K3, variant, delta)
            with pytest.raises(PreconditionError, match=what):
                classify_points(R12K3, variant, delta)
        with pytest.raises(PreconditionError, match=what):
            mu_uniformly_expansive_at(R12K3, UNI12, 0, delta)
        with pytest.raises(PreconditionError, match=what):
            mu_expansive_points(R12K3, UNI12, delta)


def test_windowed_budget_refusal():
    total = SH.count_pseudo_orbits(R12K3, 0, F(1, 6), 3)
    assert total == 729
    with pytest.raises(ResourceBudgetError) as err:
        SH.shadowable_windowed(R12K3, 0, F(1, 4), F(1, 6), 3, budget=total - 1)
    assert err.value.requested == total and err.value.budget == total - 1
    rep = SH.shadowable_windowed(R12K3, 0, F(1, 4), F(1, 6), 3, budget=total)
    assert rep == oracle_shadowable_windowed(R12K3, 0, F(1, 4), F(1, 6), 3)
    assert rep.result is False and rep.windows_checked == 18



def test_window_budget_refusal_of_a_count_of_thousands_of_digits():
    # 3^16000 windows: Python writes no int of more than 4 300 digits in decimal
    with pytest.raises(ResourceBudgetError) as err:
        SH.shadowable_windowed(R12K3, 0, F(1, 4), F(1, 6), 8000)
    assert err.value.requested == 3 ** 16000
    assert err.value.budget == SH.DEFAULT_WINDOW_BUDGET
    assert str(err.value) == (f"at least 2^25359 pseudo-orbit windows exceed "
                              f"the budget {SH.DEFAULT_WINDOW_BUDGET}")


def test_window_budget_refusal_keeps_one_layer_of_counts():
    # one layer of N = 1000 counts is a few KB; all N + 1 layers take 3.6 MB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            SH.shadowable_windowed(R12K3, 0, F(1, 4), F(1, 6), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_one_long_window_is_walked_to_its_ends():
    # at delta = 1/24 the one step from u is u + 3, so the one window of
    # radius N is x's orbit; each half keeps its walks as back-links and
    # unwinds the one it returns
    N = 20_000
    rep = SH.shadowable_windowed(R12K3, 0, F(1, 4), F(1, 24), N)
    assert (rep.result, rep.windows_checked, rep.worst_tracer_count) == (True, 1, 5)
    assert rep.worst_window.entries == tuple(3 * n % 12 for n in range(-N, N + 1))


# `pdl shadow ... --window N` stdout, recorded with the window-by-window
# loop: the False cases pin the count and the witness where the first
# traceless window stops the loop.
WINDOWED_PINS = (
    ("shadow bundled:id3 --x 0 --eps 1/2 --delta 2 --window 1", 1,
     "9ce6a8b3227e5d8b94b868933e1e660e4fda59363b77d845f3d3748671762be1"),
    ("shadow bundled:r12k3 --x 0 --eps 1/4 --delta 1/6 --window 3", 1,
     "fa3f0729eb2491bb19fe01dbf4f488827e28be6ed8cb3e4906aa5a22dccc5216"),
    ("shadow bundled:r12k3 --x 0 --eps 1/4 --delta 1/6 --window 1", 0,
     "95db98d56a135d11a50117cc0d0b25b62b674899d988fa9c715674181ffcf193"),
    ("shadow bundled:r6k2 --x 0 --eps 1/3 --delta 103/300 --window 3", 1,
     "13ad23cb2b90619250490e15161193294beec8a64baacc6ea8c5ab754ccbbfb7"),
    ("shadow bundled:r6k2 --x 0 --eps 2/3 --delta 103/300 --window 4", 0,
     "c90a47799f9ca7cdb72d446b38eade4449f60bab7577dab11a8625e94869011a"),
    ("shadow bundled:nearpair4 --x 0 --eps 1/4 --delta 1/2 --window 2", 0,
     "30b7f0d67e9ee8f0960a9edebe1aabd7697e0482b696472a7243f0baddeb07d8"),
)


@pytest.mark.parametrize("command, code, digest", WINDOWED_PINS,
                         ids=[p[0] for p in WINDOWED_PINS])
def test_windowed_report_is_pinned(command, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(command.split()) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_exact_matches_deep_windowed():
    assert SH.shadowable_windowed(R12K3, 0, F(1, 4), F(1, 6), 4,
                                  budget=10 ** 7).result is False


def test_exact_neighborhood():
    # every pseudo-orbit through the open delta-ball around 0 is traceable
    ball = sorted_points(system_ball(ID3, 0, F(1, 2)))
    assert SH.shadowable_exact_points(ID3, ball, F(1, 2), F(1, 2)) == {0: True}


def test_splice_tracer_on_shift():
    N, m = 2, 2
    a = P01
    b = with_symbol(a, -(m + 1), 1 - a.value(-(m + 1)))
    assert shift_metric(a, b) == F(1, 2 ** (m + 1))
    entries = ([a.shift_by(n) for n in range(-N, 0)]
               + [b.shift_by(n) for n in range(0, N + 1)])
    win = SH.PseudoOrbitWindow(tuple(entries), F(1, 2 ** m))
    z = SH.splice_trace_shift(SHIFT2, win, m)
    for n in range(-N, N + 1):
        assert shift_metric(z.shift_by(n), win.entry(n)) <= F(1, 2 ** (m + 1))


def test_splice_of_true_orbit_stays_close():
    N = 2
    orb = [P01.shift_by(n) for n in range(-N, N + 1)]
    z0 = SH.splice_trace_shift(SHIFT2, SH.PseudoOrbitWindow(tuple(orb), F(1, 8)), 3)
    for n in range(-N, N + 1):
        assert shift_metric(z0.shift_by(n), orb[n + N]) <= F(1, 16)


@st.composite
def spliceable_windows(draw):
    """(window entries, m): 2N + 1 shift points, each agreeing with the
    shift of the one before on every |i| <= m, so every gap is below 2^-m."""
    m, N = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    word = st.lists(st.integers(0, 1), min_size=1, max_size=3)
    x = EPPoint(draw(word), draw(st.lists(st.integers(0, 1), max_size=5)), draw(word),
                draw(st.integers(-6, 6)))
    entries = [x]
    for _ in range(2 * N):
        x = x.shift_by(1)
        for pos in draw(st.lists(st.integers(m + 1, m + 6), max_size=3)):
            x = with_symbol(x, draw(st.sampled_from((pos, -pos))), draw(st.integers(0, 1)))
        entries.append(x)
    return entries, m


@settings(max_examples=300, deadline=None)
@given(spliceable_windows())
def test_splice_stays_within_half_the_gap_of_every_entry(window):
    # the tails outside the window copy the end entries' own tails
    entries, m = window
    z = SH.splice_trace_shift(SHIFT2, entries, m)
    N = (len(entries) - 1) // 2
    for n in range(-N, N + 1):
        assert shift_metric(z.shift_by(n), entries[n + N]) <= F(1, 2 ** (m + 1))


def test_splice_validates_window():
    bad = SH.PseudoOrbitWindow((P01, P01, P01), F(1, 2))  # not a pseudo-orbit
    with pytest.raises(PreconditionError):
        SH.splice_trace_shift(SHIFT2, bad, 1)


@pytest.mark.parametrize("system, entries, error, match", (
    (R12K3, (0, 3, 6), UnsupportedBackendError,             # once an AttributeError
     "needs a shift carrier"),
    (SHIFT2, (pure((2,)),), MalformedInputError,            # once the tracer 2~~2@0
     "outside alphabet 2"),
    (SAT3, (P01, Satellite(1, 1, 0), P01.shift_by(2)), PreconditionError,
     r"q\(1,1,0\) is a satellite point"),
), ids=("finite", "off-alphabet", "satellite"))
def test_splice_reads_its_system(system, entries, error, match):
    with pytest.raises(error, match=match):
        SH.splice_trace_shift(system, entries, 1)


def test_splice_of_y_points_on_a_satellite_carrier():
    orb = tuple(P01.shift_by(n) for n in range(-2, 3))
    assert SH.splice_trace_shift(SAT3, orb, 3) == SH.splice_trace_shift(SHIFT2, orb, 3)


def test_mu_restricted_shadowing():
    uni = WeightedMeasure.from_weights({0: 1, 1: 1, 2: 1})
    w011 = WeightedMeasure.from_weights({0: 0, 1: 1, 2: 1})
    ms = mu_shadowable_at(ID3, uni, 0, F(1, 2), F(1, 2), B=(0, 1, 2))
    assert ms.result is True and ms.through_points == (0,)
    ms2 = mu_shadowable_at(ID3, w011, 0, F(1, 2), F(1, 2), B=(1, 2))
    assert ms2.result is True and ms2.through_points == ()
    ms3 = mu_shadowable_at(ID3, uni, 0, F(1, 2), F(2), B=(0, 1, 2))
    assert ms3.result is False and ms3.failing_point == 0
    with pytest.raises(PreconditionError):
        mu_shadowable_at(ID3, uni, 0, F(1, 2), F(1, 2), B=(0, 1))


def test_mu_shadowable_reads_b_once():
    # B was once rebuilt as a set for every carrier point, so an iterator
    # was used up by the first one and a full-measure B was refused
    uni = WeightedMeasure.from_weights({0: 1, 1: 1, 2: 1})
    for delta in (F(1, 2), F(2)):
        listed = mu_shadowable_at(ID3, uni, 0, F(1, 2), delta, [0, 1, 2])
        assert mu_shadowable_at(ID3, uni, 0, F(1, 2), delta, iter([0, 1, 2])) == listed


def test_bad_carrier_inputs_raise_named_errors():
    # these once raised a TypeError (the shift's ball is no point set), a
    # KeyError (99), or accepted a B that holds a point off the carrier
    uni = WeightedMeasure.from_weights({0: 1, 1: 1, 2: 1})
    with pytest.raises(UnsupportedBackendError, match="finite carrier"):
        SH.shadowable_exact_points(SHIFT2, [P01], F(1, 2), F(1, 2))
    with pytest.raises(PreconditionError, match="99 is not a carrier point"):
        SH.trace(R12K3, SH.PseudoOrbitWindow((99,), F(1, 6)), F(1, 4))
    with pytest.raises(PreconditionError, match="7 is not a carrier point"):
        mu_shadowable_at(ID3, uni, 0, F(1, 2), F(1, 2), B=[0, 1, 2, 7])
    with pytest.raises(PreconditionError, match="9 is not a carrier point"):
        verify_strong_mu_topological_stability(ID3, uni, 0, F(1, 2), F(1, 2), ID3,
                                               B=[0, 1, 2, 9])


def test_transient_tracer_sets_are_not_limits():
    # along the true orbit of 0 the tracer set {0, 1} loses 1 after one
    # step (d(f1, f0) = d(2, 1) = 2): only {0} persists
    f = build_explicit(FiniteMetricSpace([[0, 1, 2], [1, 0, 2], [2, 2, 0]]),
                       (1, 2, 0))
    for forward in (True, False):
        # the transient set is reachable, but not a limit
        assert reachable_sets(f.kernel, 0, F(3, 2), F(1), forward) == {0b011, 0b001}
        assert trimmed_limit_sets(f.kernel, 0, F(3, 2), F(1), forward) == {0b001}
        assert oracle_half_sets(f, 0, F(3, 2), F(1), forward)[1] == {frozenset({0})}
    assert_matches_oracle(f, F(3, 2), F(1))


# The oracle's state count grows steeply with eps (on Z8 at eps = delta
# = 1/2 it takes 3.8 s for all points), so eps leaves out the largest
# distance, and on rotations up to Z24 keeps to the two smallest.


@settings(max_examples=40, deadline=None)
@given(finite_systems(), st.data())
def test_exact_decider_matches_oracle(system, data):
    values = distances(system)
    eps = data.draw(st.sampled_from(values[:-1] or values), label="eps")
    assert_matches_oracle(system, eps, data.draw(st.sampled_from(values), label="delta"))


@settings(max_examples=10, deadline=None)
@given(st.integers(6, 24), st.data())
def test_exact_decider_matches_oracle_on_rotations(n, data):
    system = build_lattice(n, step=data.draw(st.integers(0, n - 1), label="step"))
    values = distances(system)
    eps = data.draw(st.sampled_from(values[:2]), label="eps")
    assert_matches_oracle(system, eps, data.draw(st.sampled_from(values), label="delta"))


@settings(max_examples=500, deadline=None)
@given(palette_systems(max_n=8), st.data())
def test_reachable_sets_decide_as_the_limit_sets(system, data):
    # the verdict over the reachable sets is the verdict over the trimmed
    # limit sets; scales sit at each distance value, where the strict
    # comparisons flip, and 1/64 to either side
    scales = [d + s for d in distances(system) for s in (F(-1, 64), F(0), F(1, 64))]
    eps = data.draw(st.sampled_from(scales), label="eps")
    delta = data.draw(st.sampled_from(scales), label="delta")
    k = system.kernel
    x = data.draw(st.sampled_from(range(len(k.pts))), label="x")
    halves = []
    for forward in (True, False):
        reachable = reachable_sets(k, x, eps, delta, forward)
        limits = trimmed_limit_sets(k, x, eps, delta, forward)
        assert (reachable is None) == (limits is None)
        if limits is not None:
            assert limits <= reachable
            assert minimal(as_sets(reachable)) == minimal(as_sets(limits))
        halves.append(limits)
    fwd, bwd = halves
    verdict = SH.shadowable_exact(system, k.pts[x], eps, delta)
    assert verdict == \
        (fwd is not None and bwd is not None and all(a & b for a in fwd for b in bwd))
    # every step u -> v lies on a cycle of (point, exponent mod order)
    # states (u -> v gives f^-1(v) -> f(u), and f^order is the identity),
    # so a forward walk can run any backward walk in time order and come
    # back to x at exponent 0: the halves reach the empty set together,
    # and when neither does every forward set meets every backward set
    assert (fwd is None) == (bwd is None) and verdict == (fwd is not None)


def assert_matches_time_zero_walk(system, data):
    # the walk over current tracer sets, with its antichains, against the
    # walk over time-zero sets and exponents, per point and in sweeps in
    # ascending and shuffled point order, at scales at each distance value
    # and 1/64 to either side. A sweep shares the sets of its True walks
    # and takes a False walk's sets out again, which can only go wrong
    # where True and False verdicts mix, so the draws are steered there.
    scales = [d + s for d in distances(system) for s in (F(-1, 64), F(0), F(1, 64))]
    eps = data.draw(st.sampled_from(scales), label="eps")
    delta = data.draw(st.sampled_from(scales), label="delta")
    pts = system.points()
    want = dict(zip(pts, time_zero_verdicts(system.kernel, range(len(pts)), eps,
                                            delta).values()))
    true = sum(want.values())
    target(min(true, len(pts) - true), label="minority verdicts")
    assert {x: SH.shadowable_exact(system, x, eps, delta) for x in pts} == want
    for order in (pts, data.draw(st.permutations(pts), label="order")):
        got = SH.shadowable_exact_points(system, order, eps, delta)
        assert list(got) == list(order) and got == want


@settings(max_examples=300, deadline=None)
@given(palette_systems(max_n=10), st.data())
def test_shared_sweep_matches_per_point_calls(system, data):
    assert_matches_time_zero_walk(system, data)


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 36), st.data())
def test_exact_decider_matches_time_zero_walk_on_rotations(n, data):
    system = build_lattice(n, step=data.draw(st.integers(0, n - 1), label="step"))
    assert_matches_time_zero_walk(system, data)


def test_true_verdicts_read_no_backward_steps():
    # the decider walks forward only: a True verdict, which walks every
    # reachable state, builds one step view, the forward one, on a fresh
    # kernel, and the kernel keeps no other
    system = build_lattice(12, step=3)
    assert SH.shadowable_exact(system, 0, F(1, 4), F(1, 12)) is True
    assert [key for key in system.kernel._views if key[0] == "steps"] == \
        [("steps", 0)]


# The oracle traces every window, so N shrinks until a draw has at most
# WINDOW_CAP windows through x; eps and delta come from the carrier's own
# distances, which covers False verdicts and the strict boundary.
WINDOW_CAP = 1500


def assert_windowed_matches_oracle(system, data):
    values = distances(system)
    eps = data.draw(st.sampled_from(values), label="eps")
    delta = data.draw(st.sampled_from(values), label="delta")
    x = data.draw(st.sampled_from(system.points()), label="x")
    N = data.draw(st.integers(1, 3), label="N")
    while SH.count_pseudo_orbits(system, x, delta, N) > WINDOW_CAP:
        N -= 1
    assert SH.shadowable_windowed(system, x, eps, delta, N) == \
        oracle_shadowable_windowed(system, x, eps, delta, N)


@settings(max_examples=80, deadline=None)
@given(finite_systems(), st.data())
def test_windowed_decider_matches_oracle(system, data):
    assert_windowed_matches_oracle(system, data)


@settings(max_examples=40, deadline=None)
@given(st.integers(6, 12), st.data())
def test_windowed_decider_matches_oracle_on_rotations(n, data):
    system = build_lattice(n, step=data.draw(st.integers(0, n - 1), label="step"))
    assert_windowed_matches_oracle(system, data)


# -- long orders: no power of f beyond the walk -----------------------------


@pytest.mark.parametrize("case", ["cycles43", "coprime400"])
def test_exact_decider_keeps_few_states(case):
    # the ladder's rungs whose order is far above n (60 060 and 39 999):
    # the decider keeps current tracer sets, so x = 0 is refuted at
    # (5/4, 5/4) within two kept states, and proved at (7/5, 1/2) within n
    system = ladder_rung(case)
    k = system.kernel
    for eps, delta, verdict, most in ((F(5, 4), F(5, 4), False, 2),
                                      (F(7, 5), F(1, 2), True, len(k.pts))):
        kept, journal = [set() for _ in k.perm], []
        assert SH._reachable_states(k, 0, eps, delta, kept, {}, journal) is verdict
        assert len(journal) <= most
        assert SH.shadowable_exact(system, k.pts[0], eps, delta) is verdict


def test_windowed_decider_on_long_order():
    # cycles43 has order 60 060; a radius-2 window is walked two steps
    # out from x_0 each way, and trace walks it from x_-2
    system = ladder_rung("cycles43")
    pts, eps = system.kernel.pts, F(7, 5)
    rep = SH.shadowable_windowed(system, pts[0], eps, F(5, 4), 2)
    assert (rep.result, rep.windows_checked, rep.worst_window.entries) == \
        (False, 26, (0, 0, 0, 3, 9))
    orbit = tuple(iterate(system, pts[0], n) for n in range(-2, 3))
    for window in (rep.worst_window.entries, orbit):
        found = SH.trace(system, SH.PseudoOrbitWindow(window, F(5, 4)), eps)
        # the worst window has no tracer; x's own orbit has x among its tracers
        assert (pts[0] in found.points) == bool(found) == (window == orbit)
