"""Dynamical systems: a metric carrier plus an invertible map.

Four backends share one API. Explicit (finite table + permutation) and
lattice (circle Z_n, torus Z_n x Z_n with an invertible integer
matrix) carriers are finite and enumerable. The shift backend carries
eventually periodic bi-infinite sequences; the satellite backend glues
finitely many isolated periodic "satellite" copies onto a marked
periodic orbit of the shift. Infinite carriers answer set-level
questions through symbolic objects (ShiftBall, ShiftOrbitClosure,
SatelliteBall) instead of enumeration; every answer stays exact. A finite
backend hands its FiniteKernel integer rows: lattices rotate and concatenate
their integer arcs, an explicit system hands over the rows its space owns.
"""

import hashlib
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import getitem, itemgetter
from typing import NamedTuple

from .errors import (CarrierMismatchError, MalformedInputError,
                     PreconditionError, UnsupportedBackendError)
from .metric import FiniteMetricSpace
from .rationals import Frozen, ONE, ZERO, format_rational, positive
from .shiftspace import (EPPoint, ShiftBall, ball_halfwidth, format_ep,
                         left_limit_cycle, right_limit_cycle, shift_metric)


# -- point helpers -------------------------------------------------------


class Satellite(NamedTuple):
    """An isolated copy index (i, k, j): the i-th copy at depth k over g^j(p)."""
    i: int
    k: int
    j: int


def point_label(p) -> str:
    if isinstance(p, EPPoint):
        return format_ep(p)
    if isinstance(p, Satellite):        # a tuple too: test it first
        return f"q({p.i},{p.k},{p.j})"
    if isinstance(p, tuple):
        return "(" + ",".join(str(v) for v in p) + ")"
    return str(p)


def point_key(p):
    """Deterministic cross-type sort key for report ordering."""
    if isinstance(p, int):
        return (0, (p,), "")
    if isinstance(p, Satellite):        # a tuple too: test it first
        return (2, (p.k, p.j, p.i), "")
    if isinstance(p, tuple):
        return (0, p, "")
    if isinstance(p, EPPoint):
        return (1, (len(p.center),), format_ep(p))
    raise MalformedInputError(f"not a carrier point: {p!r}")


def sorted_points(points):
    return sorted(points, key=point_key)


# -- system classes ------------------------------------------------------


class MetricSystem:
    backend = "abstract"
    name = "?"
    probes = ()                 # points a symbolic carrier is sampled at


    @property
    def finite(self) -> bool:
        raise NotImplementedError

    def points(self):
        raise UnsupportedBackendError(f"{self.backend} carrier is not enumerable")

    def sample(self, probe=None) -> list:
        """The points a question about every point is asked at: the points
        of probe when one is given, else the whole carrier when finite or
        the system's own probes; each point once, at its first place."""
        if probe is None:
            probe = self.points() if self.finite else self.probes
        return list(dict.fromkeys(probe))

    def dist(self, x, y) -> Fraction:
        raise NotImplementedError

    def image(self, x):
        raise NotImplementedError

    def preimage(self, x):
        raise NotImplementedError

    def carrier_token(self):
        """A finite carrier's token is its kernel's (denominator, rows): D is
        the least common denominator, so equal tokens mean equal tables."""
        kernel = self.kernel
        return kernel.denominator, kernel.rows

    def describe(self) -> str:
        raise NotImplementedError

    def digest(self) -> str:
        return hashlib.sha256(self.describe().encode()).hexdigest()[:12]

    _kernel = None

    @property
    def kernel(self) -> "FiniteKernel":
        """The index-level view of a finite system, built once per instance.

        Cached as a plain attribute: functools.cached_property writes
        through the instance __dict__, and on CPython 3.11 that slowed
        every later dist/image call on the system by about 10 %.
        """
        if self._kernel is None:
            if not self.finite:
                raise UnsupportedBackendError(f"{self.backend} carrier is not enumerable")
            self._kernel = FiniteKernel(self)
        return self._kernel

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class ExplicitSystem(MetricSystem):
    backend = "explicit"

    def __init__(self, space: FiniteMetricSpace, perm, name="explicit"):
        perm = tuple(perm)
        if not space.n:
            raise MalformedInputError("explicit system needs n >= 1, got an empty carrier")
        if sorted(perm) != list(range(space.n)):
            raise MalformedInputError("map table is not a permutation of the carrier")
        self.space = space
        self.perm = perm
        self.inv = _inverse(perm)
        self.name = name

    @property
    def finite(self):
        return True

    def points(self):
        return list(range(self.space.n))

    def dist(self, x, y):
        return self.space.table[x][y]

    def image(self, x):
        return self.perm[x]

    def preimage(self, x):
        return self.inv[x]

    def _integer_table(self):
        return self.space.denominator, self.space.rows

    def describe(self):
        rows = [f"explicit n={self.space.n}"]
        for i in range(self.space.n):
            for j in range(i + 1, self.space.n):
                rows.append(f"d {i} {j} {format_rational(self.space.table[i][j])}")
        rows.append("map " + " ".join(str(v) for v in self.perm))
        return "\n".join(rows)


class CircleSystem(MetricSystem):
    """Z_n with arc metric min(|i-j|, n-|i-j|)/n and rotation by `step`."""

    backend = "lattice"

    def __init__(self, n: int, step: int, name=None):
        if n < 2:
            raise MalformedInputError("circle lattice needs n >= 2")
        self.n = n
        self.step = step % n
        self.name = name or f"circle{n}_rot{self.step}"
        self._arcs, values = _arc_tables(n)
        self._dist = tuple(values[a] for a in self._arcs)     # by (x - y) mod n

    @property
    def finite(self):
        return True

    def points(self):
        return list(range(self.n))

    def dist(self, x, y):
        return self._dist[(x - y) % self.n]

    def image(self, x):
        return (x + self.step) % self.n

    def preimage(self, x):
        return (x - self.step) % self.n

    def _integer_table(self):
        return self.n, _arc_rows(self._arcs)

    def describe(self):
        return f"lattice n={self.n} map=rot {self.step}"


class TorusSystem(MetricSystem):
    """Z_n x Z_n with the max of arc metrics; map = integer matrix mod n."""

    backend = "lattice"

    def __init__(self, n: int, matrix, name=None):
        if n < 1:
            raise MalformedInputError("torus lattice needs n >= 1")
        a, b, c, d = (int(v) for v in matrix)
        det = (a * d - b * c) % n
        if gcd(det, n) != 1:
            raise MalformedInputError("torus matrix determinant must be invertible mod n")
        self.n = n
        self.matrix = (a, b, c, d)
        det_inv = pow(det, -1, n)
        self.inv_matrix = tuple((v * det_inv) % n for v in (d, -b, -c, a))
        self.name = name or f"torus{n}_mat{a}{b}{c}{d}"
        self._arcs, self._values = _arc_tables(n)

    @property
    def finite(self):
        return True

    def points(self):
        return [(u, v) for u in range(self.n) for v in range(self.n)]

    def dist(self, x, y):
        n, arcs = self.n, self._arcs
        a, b = arcs[(x[0] - y[0]) % n], arcs[(x[1] - y[1]) % n]
        return self._values[a if a > b else b]

    def image(self, x):
        a, b, c, d = self.matrix
        return ((a * x[0] + b * x[1]) % self.n, (c * x[0] + d * x[1]) % self.n)

    def preimage(self, x):
        a, b, c, d = self.inv_matrix
        return ((a * x[0] + b * x[1]) % self.n, (c * x[0] + d * x[1]) % self.n)

    def _integer_table(self):
        # row (u, v) is n blocks, one per u': the circle row of v maxed
        # with the arc from u to u', one block per (v, arc)
        n, circle = self.n, _arc_rows(self._arcs)
        blocks = [[tuple(a if a > b else b for b in row) for a in range(n // 2 + 1)]
                  for row in circle]
        return n, tuple(tuple(chain.from_iterable(map(blocks[v].__getitem__, circle[u])))
                        for u in range(n) for v in range(n))

    def describe(self):
        return f"lattice n={self.n} torus map=mat " + " ".join(str(v) for v in self.matrix)


def _arc_tables(n: int) -> tuple:
    """(arcs, values): arcs[k] = min(k, n - k) is the integer arc of a
    difference k mod n, and values[a] = a/n, one Fraction per arc."""
    return (tuple(min(k, n - k) for k in range(n)),
            tuple(Fraction(a, n) for a in range(n // 2 + 1)))


def _arc_rows(arcs) -> tuple:
    """The circle's integer rows: row i is arcs[(j - i) % n] over j."""
    n = len(arcs)
    return tuple(arcs[n - i:] + arcs[:n - i] for i in range(n))


class ShiftSystem(MetricSystem):
    """Full shift on eventually periodic points over a finite alphabet,
    sampled at its probe points."""

    backend = "shift"

    def __init__(self, alphabet: int = 2, name=None, probes=()):
        if alphabet < 2:
            raise MalformedInputError("shift alphabet needs at least 2 symbols")
        self.alphabet = alphabet
        self.name = name or f"shift{alphabet}"
        self.probes = tuple(probes)

    @property
    def finite(self):
        return False

    def check_point(self, x):
        if not isinstance(x, EPPoint):
            raise MalformedInputError(f"shift points are EPPoints, got {type(x).__name__}")
        bad = [s for s in x.symbols() if not 0 <= s < self.alphabet]
        if bad:
            raise MalformedInputError(f"symbols {bad} outside alphabet {self.alphabet}")
        return x

    def dist(self, x, y):
        return shift_metric(x, y)

    def image(self, x):
        return x.shift_by(1)

    def preimage(self, x):
        return x.shift_by(-1)

    def carrier_token(self):
        return ("shift", self.alphabet)

    def describe(self):
        return f"shift alphabet={self.alphabet}"


class SatelliteSystem(ShiftSystem):
    """Shift core Y plus satellite copies q(i,k,j) near the orbit of p.

    The marked point p is periodic with period t (so g^t p = p). Each
    satellite q(i,k,j), 1 <= i <= 3, 1 <= k <= K, 0 <= j < t, sits at
    distance 1/k "above" g^j(p); the map advances j cyclically and acts
    as the shift on Y. The truncation bound K keeps the satellite part
    finite; every retained distance matches the untruncated construction.
    Y is the full shift, so the carrier keeps the shift's alphabet, probes
    and point check for its Y points.
    """

    backend = "satellite"
    COPIES = 3

    def __init__(self, K: int, t: int, p: EPPoint, probes=(), alphabet: int = 2, name=None):
        if K < 1:
            raise MalformedInputError("satellite truncation needs K >= 1")
        if t < 2:
            raise MalformedInputError("satellite orbit length needs t >= 2")
        if not p.is_periodic or p.period != t:
            raise MalformedInputError("marked point must have least period exactly t")
        super().__init__(alphabet, name or f"satellite_K{K}_t{t}", probes)
        self.K = K
        self.t = t
        self.p = p
        self._marked = tuple(p.shift_by(j) for j in range(t))

    def check_point(self, x):
        """x itself; satellites must lie in the truncation, Y points in the shift."""
        if not isinstance(x, Satellite):
            return super().check_point(x)
        if not (1 <= x.i <= self.COPIES and 1 <= x.k <= self.K and 0 <= x.j < self.t):
            raise MalformedInputError(
                f"{point_label(x)} is not a carrier point (K={self.K}, t={self.t})")
        return x

    def marked(self, j: int) -> EPPoint:
        return self._marked[j % self.t]

    def satellite_points(self):
        return [Satellite(i, k, j)
                for k in range(1, self.K + 1)
                for j in range(self.t)
                for i in range(1, self.COPIES + 1)]

    def sample(self, probe=None) -> list:
        """The points of probe (by default the system's own probes), then
        every satellite point; a probe may itself be a satellite point, so
        each point is kept once, at its first place."""
        return list(dict.fromkeys(super().sample(probe) + self.satellite_points()))

    def dist(self, x, y):
        if x == y:
            return ZERO
        xs, ys = isinstance(x, Satellite), isinstance(y, Satellite)
        if not xs and not ys:
            return shift_metric(x, y)
        if xs and not ys:
            return Fraction(1, x.k) + shift_metric(self.marked(x.j), y)
        if ys and not xs:
            return Fraction(1, y.k) + shift_metric(self.marked(y.j), x)
        if (x.k, x.j) == (y.k, y.j):
            return Fraction(1, x.k)
        return (Fraction(1, x.k) + Fraction(1, y.k)
                + shift_metric(self.marked(x.j), self.marked(y.j)))

    def image(self, x):
        if isinstance(x, Satellite):
            return Satellite(x.i, x.k, (x.j + 1) % self.t)
        return x.shift_by(1)

    def preimage(self, x):
        if isinstance(x, Satellite):
            return Satellite(x.i, x.k, (x.j - 1) % self.t)
        return x.shift_by(-1)

    def carrier_token(self):
        return ("satellite", self.alphabet, self.K, self.t, format_ep(self.p))

    def describe(self):
        return (f"satellite K={self.K} t={self.t} p={format_ep(self.p)}"
                + (f" alphabet={self.alphabet}" if self.alphabet != 2 else ""))


# -- the finite kernel ---------------------------------------------------


class FiniteKernel:
    """A finite system compiled to indices: point i is pts[i].

    perm and inv are the map and its inverse on indices. The kernel is
    integer data taken once, when it is built, and keeps no link back to
    its system: denominator D, the least S with S * table integral, and
    the rows = D * table (the system's _integer_table: integer arcs on a
    lattice, the rows of an explicit system's space), with image_rows[i]
    = rows[perm[i]], the row of i's image, which C0 distances read.
    A radius r meets these rows at the integer bound floor_scaled(r, D,
    closed), and every radius view is kept per bound, so radii of one
    bound share one build. Only a comparison of two kernels reads
    scaled(S), at S = lcm of their denominators. The cycles, the rows'
    bytes copy, within(r) and the pseudo-orbit steps per bound, one
    separation pass per closed bound (inseparable(c), the paired mask of
    first_inseparable_pair and cycle_failures(c) together), and per
    period P the orbits of f^P are built on first use and kept. No
    sup-separation matrix is kept: inseparable(c) is periodic tracing of
    each cycle at closed radius c. Tracer sets hold current positions and
    move by image; a finite window is traced by shadowing.trace, a
    periodic one by trace_cycle.
    """

    def __init__(self, system):
        self.pts = tuple(system.points())
        self.index = {p: i for i, p in enumerate(self.pts)}
        self.perm = tuple(self.index[system.image(p)] for p in self.pts)
        self.inv = _inverse(self.perm)
        self.denominator, self.rows = system._integer_table()
        self.image_rows = gatherer(self.perm)(self.rows)
        self._views = {}            # (view, bound or argument) -> view

    def inseparable(self, c) -> tuple:
        """inseparable(c)[i]: the bitset of j with d(f^n i, f^n j) <= c for
        every n, i.e. sup-separation at most c (_separation)."""
        return self._separation(c)[0]

    def first_inseparable_pair(self, c, mask):
        """The least pair (i, j), i < j both in the bitset mask, whose
        sup-separation is at most c, read off inseparable(c); None when every
        pair of mask separates beyond c. The scan walks only the points of
        mask with an inseparable partner (_separation's paired mask)."""
        rows, paired, _ = self._separation(c)
        mask &= paired
        while mask:
            i = least(mask)
            mask &= mask - 1            # what is left lies above i
            hit = rows[i] & mask
            if hit:
                return i, least(hit)
        return None

    def cycle_failures(self, c) -> tuple:
        """(bits, pairs): pairs[i] is the first_inseparable_pair of the
        cycle through i (None when the cycle separates beyond c), and bits
        holds the i with a pair (_separation)."""
        return self._separation(c)[2]

    def _separation(self, c) -> tuple:
        """(inseparable rows, paired, (bits, pairs)) at the closed bound of
        c, one pass per bound. For a cycle C of length p the rows are the
        periodic tracers of C at closed radius c: the orbits of f^p inside
        within(c, closed=True)[C[k]] at every phase k (_tracing_classes),
        row C[k] ORing their phase-k entries. paired holds the points with
        a partner. f maps an inseparable pair to an inseparable pair, so C
        has a pair exactly when its least point C[0] has a partner on C,
        and (C[0], least partner) is the least pair of C. From the
        diameter on every row is full, with no class tested."""
        bound = floor_scaled(c, self.denominator, True)
        if (view := self._views.get(("separation", bound))) is None:
            near, n = self.within(c, closed=True), len(self.perm)
            scan = near.count((1 << n) - 1) < n
            rows, bits, pairs = [0] * n if scan else list(near), 0, [None] * n
            for cyc in self.cycles:
                # the kept classes are disjoint at each phase: a sum is their OR
                kept = self._tracing_classes(cyc, near) if scan else ()
                for a, phase in zip(cyc, zip(*kept)):
                    rows[a] = sum(phase)
                mask = sum(1 << i for i in cyc)
                if hit := rows[cyc[0]] & mask & ~(1 << cyc[0]):
                    bits, pair = bits | mask, (cyc[0], least(hit))
                    for i in cyc:
                        pairs[i] = pair
            # a row of two or more bits: the point and a partner
            paired = sum(1 << i for i, row in enumerate(rows) if row & (row - 1))
            view = self._views["separation", bound] = tuple(rows), paired, (bits, tuple(pairs))
        return view

    @cached_property
    def cycles(self) -> tuple:
        """The cycles of perm, each listed from its least index in map
        order, sorted by that index."""
        seen = [False] * len(self.perm)
        out = []
        for start in range(len(self.perm)):
            if seen[start]:
                continue
            cyc, cur = [], start
            while not seen[cur]:
                seen[cur] = True
                cyc.append(cur)
                cur = self.perm[cur]
            out.append(tuple(cyc))
        return tuple(out)

    @cached_property
    def cycle_of(self) -> tuple:
        """cycle_of[i] is the cycle holding index i."""
        out = [None] * len(self.perm)
        for cyc in self.cycles:
            for i in cyc:
                out[i] = cyc
        return tuple(out)

    def orbit(self, i) -> tuple:
        """The cycle through index i, listed from i in map order."""
        cyc = self.cycle_of[i]
        at = cyc.index(i)
        return cyc[at:] + cyc[:at]

    def image(self, bits, k=1) -> int:
        """f^k of the bitset bits, for k of either sign: one lookup per set
        bit in perm, or in the map f^k built along the cycles, kept per k."""
        if k == 1:
            to = self.perm
        elif (to := self._views.get(("power", k))) is None:
            to = [0] * len(self.perm)
            for cyc in self.cycles:
                s = k % len(cyc)
                for a, b in zip(cyc, cyc[s:] + cyc[:s]):
                    to[a] = b
            to = self._views["power", k] = tuple(to)
        out = 0
        while bits:
            out |= 1 << to[(bits & -bits).bit_length() - 1]
            bits &= bits - 1
        return out

    def scaled(self, scale) -> tuple:
        """The integer rows scale * table, for a multiple scale of denominator."""
        key = ("scaled", scale)
        if (rows := self._views.get(key)) is None:
            k = scale // self.denominator
            rows = self._views[key] = self.rows if k == 1 else tuple(
                tuple(v * k for v in row) for row in self.rows)
        return rows

    def c0_scaled(self, perm) -> int:
        """denominator * max over i of d(f(pts[i]), pts[perm[i]]): the C0
        distance from perm to the kernel's map on the same indices, read
        off the integer rows of the images, image_rows."""
        return max(map(getitem, self.image_rows, perm), default=0)

    def within(self, radius, closed=False) -> tuple:
        """within(r)[v]: the bitset of y with d(v, y) < r (<= r when closed),
        i.e. rows[v][y] <= floor_scaled(r, D, closed), D = denominator,
        kept per bound: row v's bytes copy translated to '1' up to the bound
        and '0' above, read backwards in base 2, or one generator step per
        entry when a scaled value exceeds 255."""
        bound = floor_scaled(radius, self.denominator, closed)
        if (rows := self._views.get(("within", bound))) is None:
            if (raw := self._byte_rows) is None:
                rows = tuple(sum(1 << y for y, d in enumerate(row) if d <= bound)
                             for row in self.rows)
            else:
                table = (b"1" * min(bound + 1, 256) + b"0" * 256)[:256]
                rows = tuple(int(row.translate(table)[::-1], 2) for row in raw)
            self._views["within", bound] = rows
        return rows

    @cached_property
    def _byte_rows(self):
        """The rows as bytes, or None when a scaled value exceeds 255."""
        try:
            return tuple(map(bytes, self.rows))
        except ValueError:
            return None

    def steps(self, delta) -> tuple:
        """The delta-pseudo-orbit steps: row u holds the v with
        d(f(u), v) < delta, ascending; kept per open bound of delta."""
        bound = floor_scaled(delta, self.denominator, False)
        if (rows := self._views.get(("steps", bound))) is None:
            near = [members(row) for row in self.within(delta)]
            rows = self._views["steps", bound] = tuple(near[v] for v in self.perm)
        return rows

    def trace_cycle(self, window, radius, closed=False, prefer=None) -> tuple:
        """Trace the periodic index window w, P = len(w) > 0: the tracers are
        the z with d(f^n z, w[n % P]) < radius for every integer n
        (<= radius when closed). For z = C[j] on a cycle C of f, the f^n z
        at the n = i mod P make up C[(j + i) % g :: g], g = gcd(len(C), P),
        an orbit of f^P; so z traces exactly when that class lies inside
        within(r)[w[i]] at every phase i < P: one subset test per class and
        phase, over the classes that meet within(r)[w[0]] (classes(P)).

        Returns (tracers, z, h): z is prefer when it traces, else the least
        tracer (pts ascend in point_key order on every finite backend);
        h[n] = f^n z for 0 <= n < P lays h along z's cycle orbit(z), and is
        None when f^P z != z, i.e. the cycle's length does not divide P and
        the orbit does not close up. z and h are None without a tracer.
        """
        P, near, bits = len(window), self.within(radius, closed), 0
        for turned in self._tracing_classes(window, near):
            bits |= turned[0]
        if not (found := bits and members(bits)):
            return [], None, None
        z = prefer if prefer in found else found[0]
        cyc = self.orbit(z)
        return found, z, None if P % len(cyc) else cyc * (P // len(cyc))

    def _tracing_classes(self, window, near) -> list:
        """The orbits of f^P, P = len(window), that lie inside near[window[i]]
        at every phase i < P, each as its classes(P) tuple: one subset test
        per class and phase, over the classes that meet near[window[0]]."""
        place, todo, kept = self.classes(len(window)), near[window[0]], []
        while todo:
            turned = place[least(todo)]
            todo &= ~turned[0]
            for c, v in zip(turned, window):
                if c & near[v] != c:
                    break
            else:
                kept.append(turned)
        return kept

    def classes(self, P) -> tuple:
        """classes(P)[i]: the orbits of f^P that f^n i meets at n = 0..P-1,
        as bitsets: C[(j + n) % g :: g] for i = C[j] on a cycle C, g =
        gcd(len(C), P). Kept per P; the points of a class share one tuple."""
        if (place := self._views.get(("classes", P))) is None:
            place = [None] * len(self.perm)
            for cyc in self.cycles:
                g = gcd(len(cyc), P)
                classes = [sum(1 << a for a in cyc[s::g]) for s in range(g)] * (P // g + 1)
                turns = [tuple(classes[s:s + P]) for s in range(g)]
                for t, a in enumerate(cyc):
                    place[a] = turns[t % g]
            place = self._views["classes", P] = tuple(place)
        return place


def floor_scaled(r, S, closed) -> int:
    """The largest integer s with s/S <= r when closed, s/S < r when not:
    for r = p/q and S > 0, floor(p * S / q) or floor((p * S - 1) / q).
    This is how every radius meets integer rows at scale S."""
    return (r.numerator * S - (not closed)) // r.denominator


def members(bits) -> list:
    """The indices of the set bits of bits, ascending, the lowest taken off
    at each step: linear in the set bits, not in the bit length."""
    out = []
    while bits:
        out.append((low := bits & -bits).bit_length() - 1)
        bits ^= low
    return out


def least(bits) -> int:
    """The index of the lowest set bit of bits (nonzero)."""
    return (bits & -bits).bit_length() - 1


def gatherer(indices):
    """The gather row -> tuple(row[i] for i in indices), one C-level
    itemgetter call; itemgetter returns a bare item for a single index,
    so one index (or none) takes the generator route."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda row: tuple(row[i] for i in indices)


def _inverse(perm) -> tuple:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


# -- shared carriers -----------------------------------------------------


def point_index(system, x) -> int:
    """Kernel index of x on a finite carrier; PreconditionError names
    a point off the carrier."""
    try:
        return system.kernel.index[x]
    except KeyError:
        raise PreconditionError(f"{point_label(x)} is not a carrier point") from None


def check_carrier(f, g) -> None:
    """CarrierMismatchError unless f and g share a carrier, i.e. their
    carrier tokens are equal: two finite systems share one when their
    distance tables are equal. Index i then stands for f.kernel.pts[i] on
    both sides, whatever labels g gives its points: a lattice and a
    perturbation enumerated on its indices share a carrier.
    """
    if f.carrier_token() != g.carrier_token():
        raise CarrierMismatchError(
            f"carriers differ: {f.name} ({f.backend}) vs {g.name} ({g.backend})")


# -- builders ------------------------------------------------------------


def build_explicit(space: FiniteMetricSpace, perm, name="explicit") -> ExplicitSystem:
    return ExplicitSystem(space, perm, name)


def build_lattice(n: int, kind: str = "circle", step: int = None,
                  matrix=None, name=None) -> MetricSystem:
    if kind == "circle":
        if step is None:
            raise MalformedInputError("circle lattice needs a rotation step")
        return CircleSystem(n, step, name)
    if kind == "torus":
        if matrix is None:
            raise MalformedInputError("torus lattice needs a 2x2 matrix")
        return TorusSystem(n, matrix, name)
    raise MalformedInputError(f"unknown lattice kind {kind!r}")


def build_shift(alphabet: int = 2, name=None, probes=()) -> ShiftSystem:
    return ShiftSystem(alphabet, name, probes)


def build_satellite(K: int, t: int, p: EPPoint, probes=(), alphabet=2,
                    name=None) -> SatelliteSystem:
    return SatelliteSystem(K, t, p, probes, alphabet, name)


# -- orbits --------------------------------------------------------------


class OrbitResult(NamedTuple):
    points: tuple
    period: int          # joint period of the listed window; None when infinite
    finite: bool = True
    left_cycle: tuple = ()
    right_cycle: tuple = ()


class ShiftOrbitClosure(Frozen):
    """Closure of an infinite shift orbit: all shifts of `base` plus the
    two periodic cycles the forward and backward shifts accumulate on."""
    __slots__ = _fields = ("base", "left_cycle", "right_cycle")

    def __init__(self, base: EPPoint, left_cycle: tuple, right_cycle: tuple):
        self._set(base, left_cycle, right_cycle)

    def __contains__(self, y: EPPoint) -> bool:
        if y in self.left_cycle or y in self.right_cycle:
            return True
        if y.is_periodic:
            return False
        # canonical offsets are translation-equivariant, so only one
        # shift exponent can possibly match
        n = self.base.offset - y.offset
        return self.base.shift_by(n) == y


def orbit(system, x) -> OrbitResult:
    """Full two-sided orbit. Finite orbits come back as an ordered list
    with their exact period; infinite shift orbits come back as a window
    of shifts with finite=False plus the two limit cycles. Points off a
    finite carrier or outside the satellite truncation raise."""
    if system.finite:
        k = system.kernel
        cyc = k.orbit(point_index(system, x))
        return OrbitResult(tuple(k.pts[i] for i in cyc), period=len(cyc))
    if isinstance(x, Satellite):
        system.check_point(x)
        return OrbitResult(tuple(Satellite(x.i, x.k, (x.j + n) % system.t)
                                 for n in range(system.t)), period=system.t)
    if x.is_periodic:
        pts = tuple(x.shift_by(n) for n in range(x.period))
        return OrbitResult(pts, period=x.period)
    w = (max(abs(x.offset), abs(x.offset + len(x.center)))
         + lcm(len(x.left), len(x.right)) + 2)
    window = tuple(x.shift_by(n) for n in range(-w, w + 1))
    return OrbitResult(window, period=None, finite=False,
                       left_cycle=left_limit_cycle(x),
                       right_cycle=right_limit_cycle(x))


def orbit_closure(system, x):
    """Orbit closure: a point tuple when finite, else a ShiftOrbitClosure."""
    ob = orbit(system, x)
    if ob.finite:
        return ob.points
    return ShiftOrbitClosure(x, ob.left_cycle, ob.right_cycle)


# -- separation along pair orbits ----------------------------------------


def pair_sup_separation(system, x, y) -> Fraction:
    """sup over n in Z of d(f^n x, f^n y), exact.

    Finite backends take the max of the kernel's integer rows along the
    pair's joint orbit, lcm(p, q) steps over orbit(i) and orbit(j); others
    check both points (off the carrier both raise). On the shift distinct
    points always reach separation exactly 1: shifting moves their first
    disagreement to the origin. Satellite pairs reduce to marked-orbit
    comparisons.
    """
    if system.finite:
        k, rows = system.kernel, system.kernel.rows
        a, b = k.orbit(point_index(system, x)), k.orbit(point_index(system, y))
        p, q = len(a), len(b)
        return Fraction(max(rows[a[t % p]][b[t % q]] for t in range(lcm(p, q))), k.denominator)
    if system.check_point(x) == system.check_point(y):    # each returns its point
        return ZERO
    if system.backend == "satellite":
        return _satellite_sup_separation(system, x, y)
    return ONE


def _satellite_sup_separation(system, x, y):
    xs, ys = isinstance(x, Satellite), isinstance(y, Satellite)
    if not xs and not ys:
        return ONE
    if xs != ys:
        q, z = (x, y) if xs else (y, x)
        return Fraction(1, q.k) + (ZERO if z == system.marked(q.j) else ONE)
    if (x.k, x.j) == (y.k, y.j):
        return Fraction(1, x.k)
    worst = max(shift_metric(system.marked(x.j + n), system.marked(y.j + n))
                for n in range(system.t))
    return Fraction(1, x.k) + Fraction(1, y.k) + worst


# -- C0 distance ---------------------------------------------------------


def c0_distance(f: MetricSystem, g: MetricSystem) -> Fraction:
    """sup over the carrier of d(f(x), g(x)), exact.

    On finite backends the carrier is shared index by index
    (check_carrier) and the sup is taken over f's integer kernel rows
    (FiniteKernel.c0_scaled). A symbolic carrier's token fixes its map,
    and check_carrier admits two symbolic systems only when their tokens
    are equal, so their maps agree and the distance is zero.
    """
    check_carrier(f, g)
    if f is g or not f.finite:
        return ZERO
    return Fraction(f.kernel.c0_scaled(g.kernel.perm), f.kernel.denominator)


# -- balls ---------------------------------------------------------------


class SatelliteBall(Frozen):
    """Ball in the satellite carrier: finitely many satellite points
    plus (optionally) a shift ball inside Y."""
    __slots__ = _fields = ("center", "satellites", "y_ball")

    def __init__(self, center, satellites: tuple, y_ball=None):
        self._set(center, satellites, y_ball)    # y_ball: ShiftBall | None

    def __contains__(self, pt) -> bool:
        if isinstance(pt, Satellite):
            return pt in self.satellites
        return self.y_ball is not None and pt in self.y_ball


def system_ball(system, x, radius):
    """Open metric ball around x. Finite backends return a frozenset;
    the shift returns a ShiftBall; the satellite a SatelliteBall. A radius
    r <= 0 is a PreconditionError, as is a center off a finite carrier;
    off a symbolic carrier the center raises its own error."""
    r = positive(radius, "ball radius")
    if system.finite:
        k = system.kernel
        row = k.within(r)[point_index(system, x)]
        return frozenset(k.pts[y] for y in members(row))
    system.check_point(x)
    if system.backend == "satellite":
        return _satellite_ball(system, x, r)
    return ShiftBall(x, ball_halfwidth(r))


def _satellite_ball(system, x, r):
    sats = tuple(q for q in system.satellite_points() if system.dist(x, q) < r)
    if isinstance(x, Satellite):
        base = system.marked(x.j)
        resid = r - Fraction(1, x.k)
    else:
        base = x
        resid = r
    y_ball = ShiftBall(base, ball_halfwidth(resid)) if resid > 0 else None
    return SatelliteBall(x, sats, y_ball)


# -- materialization and conjugation --------------------------------------


def materialize(system) -> tuple:
    """Finite system as (ExplicitSystem, points); index i <-> pts[i].

    An ExplicitSystem is its own materialization; any other system gets a
    fresh one on each call, on the space of its kernel's integer rows.
    """
    kernel = system.kernel
    if isinstance(system, ExplicitSystem):
        return system, kernel.pts
    space = FiniteMetricSpace.from_rows(kernel.denominator, kernel.rows)
    return ExplicitSystem(space, kernel.perm, system.name), kernel.pts


def _is_bijection(relabel: dict, pts) -> bool:
    """Are the keys and the values of relabel both the points pts? A dict's
    keys are distinct, so equal key and value sets make a bijection."""
    try:
        return set(relabel) == set(relabel.values()) == set(pts)
    except TypeError:               # an unhashable value is no carrier point
        return False


def conjugate_system(system, relabel: dict, name=None,
                     transport_metric: bool = False) -> ExplicitSystem:
    """System h o f o h^{-1} where h is the carrier bijection `relabel`.

    With transport_metric=False the result lives on the original metric
    space (indices in original point order, metric untouched): h is a
    conjugacy, and an isometric one exactly when h keeps every distance.
    With transport_metric=True the metric is pushed through h as well,
    so the result is always isometrically conjugate to the input.
    """
    if not system.finite:
        raise UnsupportedBackendError("conjugation requires a finite carrier")
    kernel = system.kernel
    pts = kernel.pts
    if not _is_bijection(relabel, pts):
        raise PreconditionError("relabeling must be a bijection of the carrier")
    inv = {v: k for k, v in relabel.items()}
    perm = tuple(kernel.index[relabel[system.image(inv[p])]] for p in pts)
    rows = kernel.rows
    if transport_metric:
        # twin index i carries the point inv[pts[i]]: gather at its source index
        take = gatherer([kernel.index[inv[p]] for p in pts])
        rows = tuple(map(take, take(rows)))
    space = FiniteMetricSpace.from_rows(kernel.denominator, rows)
    return ExplicitSystem(space, perm, name or f"{system.name}_conj")
