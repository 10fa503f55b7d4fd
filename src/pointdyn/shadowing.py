"""Pseudo-orbit machinery and shadowable-point deciders.

A delta-pseudo-orbit is a walk in the graph whose edges (u, v) satisfy
d(f(u), v) < delta (strict), while the stability layer admits
perturbations at c0 distance <= delta (closed). Tracing asks for a
single true orbit staying strictly within eps of every entry. Tracer
sets are integer bitsets over kernel indices that hold the tracers'
current positions: a step moves the set by f (FiniteKernel.image) and
ANDs it with a row of within(eps), so no distance is compared per
decider state; f^t, a bijection, maps the tracers at time 0 one to one
onto the set at time t.

The windowed decider walks a window x_-N..x_N out from x_0 both ways,
by f through x_1..x_N and by f^-1 through x_-1..x_-N, once per half,
layer by layer, over the distinct (endpoint, tracer set) states. The
forward half's distinct final sets move from time N to time -N, where
the window's tracers are their AND with the backward half's final sets;
walk counts give the number of the windows and a witness's position,
so its report matches a window-by-window enumeration.

The exact decider walks forward only, over the states (point u, current
tracer set A): a step u -> v keeps f(A) & within(eps)[v]. As u -> v
gives f^-1(v) -> f(u) and f has finite order, a forward walk from x runs
any window through x in time order, out to x_-N and back through x_0 to
x_N, keeping a subset of its tracers: x is shadowable exactly when no
forward walk from (x, within(eps)[x]) reaches the empty set. For C
inside B, a walk from (v, B) keeps a superset of what it keeps from
(v, C), so a set that contains one already walked from v is skipped
(the antichains of De Wulf, Doyen, Henzinger and Raskin, CAV 2006).
Whether a state reaches the empty set depends on the state alone, so a
sweep keeps the sets of its True walks for later ones.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import (PreconditionError, ResourceBudgetError,
                     UnsupportedBackendError)
from .rationals import positive, resolve_budget
from .shiftspace import EPPoint, shift_metric
from .systems import Satellite, members, point_index, point_label

DEFAULT_WINDOW_BUDGET = 10 ** 6


class PseudoOrbitWindow(NamedTuple):
    entries: tuple        # x_{-N} .. x_{N}
    delta: Fraction

    @property
    def radius(self) -> int:
        return (len(self.entries) - 1) // 2

    @property
    def center(self):
        return self.entries[self.radius]

    def entry(self, n: int):
        return self.entries[n + self.radius]


class TracerSet(NamedTuple):
    points: frozenset
    eps: Fraction

    def __bool__(self):
        return bool(self.points)


def _walks(steps, x, N, walk=()):
    """The number of N-step walks from index x and, given one by its
    entries after x, its rank among them in index order. One layer of
    counts is kept at a time: step N - k of the walk adds the k-step
    counts of the smaller siblings it passes over."""
    path, counts, rank = (x, *walk), [1] * len(steps), 0
    for k in range(N):
        if walk:
            rank += sum(counts[w] for w in steps[path[N - k - 1]] if w < path[N - k])
        counts = [sum(counts[w] for w in row) for row in steps]
    return counts[x], rank


def _windows(system, x, delta, N):
    """x's kernel index, the forward and backward steps and the number of
    N-step walks from x along each. Backward row u, the w with
    d(f(w), u) < delta, is f^-1 of the kernel's row f^-1(u)."""
    if N < 0:
        raise PreconditionError("window radius must be nonnegative")
    xi = point_index(system, x)
    delta = positive(delta, "pseudo-orbit gap")
    inv, out = system.kernel.inv, system.kernel.steps(delta)
    steps = [out, tuple(sorted(inv[y] for y in out[w]) for w in inv)]
    return xi, steps, [_walks(rows, xi, N)[0] for rows in steps]


def count_pseudo_orbits(system, x, delta, N) -> int:
    n_out, n_back = _windows(system, x, delta, N)[2]
    return n_out * n_back


def _check_budget(total, budget):
    if total > budget:
        raise ResourceBudgetError(
            f"{_count_text(total)} pseudo-orbit windows exceed the budget "
            f"{_count_text(budget)}", requested=total, budget=budget)


def _count_text(n) -> str:
    """n in decimal, or "at least 2^k" once n needs more than 64 bits:
    the window count grows like a power of N, and Python refuses to write
    an int of more than 4 300 digits in decimal."""
    return str(n) if n.bit_length() <= 64 else f"at least 2^{n.bit_length() - 1}"


def trace(system, window: PseudoOrbitWindow, eps) -> TracerSet:
    """Exact tracer set {z : d(f^n z, x_n) < eps for every window index}."""
    eps = positive(eps, "tracing radius")
    if not system.finite:
        raise UnsupportedBackendError(
            "enumerative tracing needs a finite carrier; "
            "the shift backend traces by splicing")
    k = system.kernel
    near, found = k.within(eps), (1 << len(k.perm)) - 1
    for n, p in enumerate(window.entries):
        found = (k.image(found) if n else found) & near[point_index(system, p)]
    # from the last entry's time to time 0, which is x_-N's time + N
    found = k.image(found, window.radius + 1 - len(window.entries))
    return TracerSet(frozenset(k.pts[z] for z in members(found)), eps)


class WindowedShadowReport(NamedTuple):
    result: bool
    eps: Fraction
    delta: Fraction
    radius: int
    windows_checked: int
    worst_window: PseudoOrbitWindow
    worst_tracer_count: int

    def __bool__(self):
        return self.result


def shadowable_windowed(system, x, eps, delta, N, budget=None) -> WindowedShadowReport:
    """Every window of radius N through x traceable at eps?

    The report is the one a window-by-window enumeration gives, with
    the windows ordered by their backward half, then their forward half,
    each half's walks in lexicographic order of kernel indices, and each
    window traced: on True every window is counted and the worst window
    is the first with the fewest tracers; on False the count stops at
    the first window with none, which is the witness. Windows are
    refused beyond the budget before any work.

    No window is built. Each half is walked once (_half_windows), which
    yields its distinct final tracer sets, each with the first walk that
    ends in it, in the order of those walks. The window of backward walk
    b and forward walk a comes at rank(b) * n_out + rank(a) (n_out forward
    walks), so scanning the pairs of sets in order, the forward sets moved
    to time -N, finds the first window with the fewest tracers, and the
    first with none, the one window whose position is counted (_walks).
    """
    eps, delta = positive(eps, "tracing radius"), positive(delta, "pseudo-orbit gap")
    budget = resolve_budget(budget, DEFAULT_WINDOW_BUDGET)
    xi, steps, (n_out, n_back) = _windows(system, x, delta, N)
    kernel, total = system.kernel, n_out * n_back
    _check_budget(total, budget)
    fwd, bwd = (_half_windows(kernel, eps, rows, xi, N, kstep)
                for rows, kstep in zip(steps, (1, -1)))
    fwd = {kernel.image(A, -2 * N): out for A, out in fwd.items()}
    worst = None
    for b, back in bwd.items():
        for a, out in fwd.items():
            count = (a & b).bit_count()
            if worst is None or count < worst[0]:
                worst = (count, back, out)
                if not count:
                    break
        if not worst[0]:
            break
    count, back, out = worst
    pts = kernel.pts
    window = PseudoOrbitWindow(tuple(pts[i] for i in reversed(back)) + (x,)
                               + tuple(pts[i] for i in out), delta)
    if count:
        return WindowedShadowReport(True, eps, delta, N, total, window, count)
    at = _walks(steps[1], xi, N, back)[1] * n_out + _walks(steps[0], xi, N, out)[1]
    return WindowedShadowReport(False, eps, delta, N, at + 1, window, 0)


def _half_windows(kernel, eps, steps, x: int, N: int, kstep: int) -> dict:
    """The distinct tracer sets at time kstep * N of the N-step walks
    from x, forward (kstep 1) or backward (kstep -1) in time, each with
    the first walk that ends in it, in the order of those walks.

    Layer t holds the states (endpoint v, f^kstep of the previous set AND
    within(eps)[v]), each with the first walk that reaches it: iterating
    the previous layer in insertion order and the steps in ascending order
    makes it the least one in enumeration order, and a layer's states come
    in the order of their least walks. images memoizes f^kstep of each set.
    """
    near, images = kernel.within(eps), {}
    layer = {(x, near[x]): ()}
    for _ in range(N):
        nxt = {}
        for (u, A), walk in layer.items():
            if (fA := images.get(A)) is None:
                fA = images[A] = kernel.image(A, kstep)
            for v in steps[u]:
                state = (v, fA & near[v])
                if state not in nxt:
                    nxt[state] = walk + (v,)
        layer = nxt
    found = {}
    for (_, A), walk in layer.items():
        found.setdefault(A, walk)
    return found


# -- exact decider --------------------------------------------------------


def _reachable_states(kernel, x: int, eps, delta, kept, images, journal) -> bool:
    """Does the forward walk from x stay off the empty tracer set? kept[u]
    holds the sets walked on from u by True walks and this one: a step to
    one is not taken, a state whose set contains one is skipped. journal
    logs this walk's sets, which a False walk takes out of kept again;
    images[A] memoizes f(A)."""
    near, succ = kernel.within(eps), kernel.steps(delta)
    stack = [(x, near[x])]          # holds x: eps > 0
    while stack:
        u, A = stack.pop()
        have = kept[u]
        for C in have:
            if C & A == C:
                break
        else:
            have.add(A)
            journal.append((u, A))
            if (fA := images.get(A)) is None:
                fA = images[A] = kernel.image(A)
            for v in succ[u]:
                B = fA & near[v]
                if not B:
                    for w, C in journal:
                        kept[w].discard(C)
                    return False
                if B not in kept[v]:
                    stack.append((v, B))
    return True


def _exact_kernel(system):
    if not system.finite:
        raise UnsupportedBackendError(
            "the exact decider needs a finite carrier")
    return system.kernel


def shadowable_exact_points(system, points, eps, delta) -> dict:
    """{x: shadowable_exact(system, x, eps, delta)} in the order of points,
    the walks sharing the sets of the True walks per point and the images
    (module docstring)."""
    eps, delta = positive(eps, "tracing radius"), positive(delta, "pseudo-orbit gap")
    kernel = _exact_kernel(system)
    kept, images = [set() for _ in kernel.perm], {}
    return {x: _reachable_states(kernel, point_index(system, x), eps, delta, kept, images, [])
            for x in points}


def shadowable_exact(system, x, eps, delta) -> bool:
    """Is every bi-infinite delta-pseudo-orbit through x eps-traceable?
    Exact: no forward walk from x reaches the empty tracer set, since
    forward walks run every window through x (module docstring)."""
    return shadowable_exact_points(system, (x,), eps, delta)[x]


# -- shift backend: constructive splice tracer ----------------------------


def splice_trace_shift(system, window, m: int) -> EPPoint:
    """Tracer for a shift pseudo-orbit window with gap below 2^-m.

    The tracer copies each entry's time-zero symbol inside the window
    and continues with the end entries' own tails outside it; the gap
    condition makes consecutive entries agree on a 2m-wide block, so
    the splice stays within 2^-(m+1) of every entry — strictly below
    the 2^-m+1 tracing target. A satellite point has no tail to splice.
    """
    if system.finite:
        raise UnsupportedBackendError(
            "splice tracing needs a shift carrier; a finite one traces enumeratively")
    entries = list(window.entries if isinstance(window, PseudoOrbitWindow)
                   else window)
    for p in entries:
        if isinstance(system.check_point(p), Satellite):
            raise PreconditionError(f"{point_label(p)} is a satellite point, not a shift point")
    if m < 0:
        raise PreconditionError("agreement depth must be nonnegative")
    gap = Fraction(1, 2 ** m)
    for t in range(len(entries) - 1):
        d = shift_metric(entries[t].shift_by(1), entries[t + 1])
        if d >= gap:
            raise PreconditionError(
                f"step {t} has gap {d}, not below 1/2^{m}")
    N = (len(entries) - 1) // 2
    if len(entries) != 2 * N + 1:
        raise PreconditionError("window must have odd length x_-N..x_N")
    first, last = entries[0], entries[-1]
    lo = -N + min(first.offset, 0)
    hi = N + max(last.offset + len(last.center), 0)
    values = []
    for pos in range(lo, hi + 1):
        if pos < -N:
            values.append(first.value(pos + N))
        elif pos <= N:
            values.append(entries[pos + N].value(0))
        else:
            values.append(last.value(pos - N))
    L = len(first.left)
    left = tuple(first.left[(j + lo + N - first.offset) % L] for j in range(L))
    R = len(last.right)
    end_anchor = last.offset + len(last.center)
    right = tuple(last.right[(j + hi + 1 - N - end_anchor) % R] for j in range(R))
    return EPPoint(left, values, right, lo)

