"""Eventually periodic bi-infinite sequences and the 2^-n shift metric.

An EPPoint is a bi-infinite sequence over an integer alphabet that is
periodic far to the left and far to the right:

    ... u u u | c e n t e r | v v v ...

with the center block starting at absolute position `offset`. The
constructor canonicalizes, so two EPPoints compare equal exactly when
they denote the same sequence, and hashing is consistent. Canonical
form: periodic words are primitive, the periodic zones are maximal,
and purely periodic sequences are anchored at position 0 with empty
center. This makes every downstream question (equality, first
disagreement, metric value) decidable by finite scans with provable
bounds.
"""

from fractions import Fraction
from math import lcm

from .errors import MalformedInputError
from .rationals import Frozen, ZERO, positive


def _primitive(word):
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


class EPPoint:
    __slots__ = ("left", "center", "right", "offset", "_hash")

    def __init__(self, left, center, right, offset=0):
        left = tuple(left)
        center = tuple(center)
        right = tuple(right)
        if not left or not right:
            raise MalformedInputError("periodic tail words must be nonempty")
        canon = _canonicalize(left, center, right, int(offset))
        object.__setattr__(self, "left", canon[0])
        object.__setattr__(self, "center", canon[1])
        object.__setattr__(self, "right", canon[2])
        object.__setattr__(self, "offset", canon[3])
        object.__setattr__(self, "_hash", hash(canon))

    def __setattr__(self, *args):
        raise AttributeError("EPPoint is immutable")

    # -- sequence access ------------------------------------------------

    def value(self, i: int) -> int:
        off = self.offset
        c = self.center
        if i < off:
            return self.left[(i - off) % len(self.left)]
        if i < off + len(c):
            return c[i - off]
        return self.right[(i - off - len(c)) % len(self.right)]

    @property
    def is_periodic(self) -> bool:
        return not self.center and self.left == self.right

    @property
    def period(self) -> int:
        if not self.is_periodic:
            raise MalformedInputError("period is defined for purely periodic points")
        return len(self.left)

    def symbols(self):
        return set(self.left) | set(self.center) | set(self.right)

    # -- dynamics -------------------------------------------------------

    def shift_by(self, n: int) -> "EPPoint":
        """The n-th shift image: result[i] = self[i + n]."""
        if n == 0:
            return self
        if self.is_periodic:
            d = len(self.left)
            r = n % d
            word = self.left[r:] + self.left[:r]
            return EPPoint(word, (), word, 0)
        return EPPoint(self.left, self.center, self.right, self.offset - n)

    # -- identity -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, EPPoint)
                and self._hash == other._hash
                and self.left == other.left
                and self.center == other.center
                and self.right == other.right
                and self.offset == other.offset)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"EPPoint({format_ep(self)!r})"


def _canonicalize(left, center, right, offset):
    left = _primitive(left)
    right = _primitive(right)
    L, R = len(left), len(right)

    def val(i):
        if i < offset:
            return left[(i - offset) % L]
        if i < offset + len(center):
            return center[i - offset]
        return right[(i - offset - len(center)) % R]

    # Pure periodicity: T-periodicity can only fail near the center,
    # since T is a multiple of both tail periods.
    T = lcm(L, R)
    lo = offset - T - L - 2
    hi = offset + len(center) + T + R + 2
    if all(val(i) == val(i + T) for i in range(lo, hi)):
        for d in range(1, T + 1):
            if T % d == 0 and all(val(i) == val(i + d) for i in range(T)):
                return (tuple(val(i) for i in range(d)), (),
                        tuple(val(i) for i in range(d)), 0)
        raise AssertionError("unreachable: T itself is a period")

    # Maximal periodic zones. Walks terminate within L+R of the center
    # block: descending further would force global periodicity.
    end = offset + len(center)
    floor = offset - L - R - 2
    b = end
    while b > floor and val(b - 1) == val(b - 1 + R):
        b -= 1
    assert b > floor, "right-zone walk exceeded its bound"
    ceil = end + L + R + 2
    a = offset
    while a < ceil and val(a) == val(a - L):
        a += 1
    assert a < ceil, "left-zone walk exceeded its bound"

    if a >= b:
        cut = b
        new_center = ()
    else:
        cut = a
        new_center = tuple(val(i) for i in range(a, b))
    new_left = tuple(val(cut - L + j) for j in range(L))
    new_right = tuple(val(b + j) for j in range(R))
    return (new_left, new_center, new_right, cut if new_center else b)


def pure(word) -> EPPoint:
    word = tuple(word)
    return EPPoint(word, (), word, 0)


def with_symbol(x: EPPoint, pos: int, symbol: int) -> EPPoint:
    """Copy of x with one position replaced."""
    L, R = len(x.left), len(x.right)
    lo = min(x.offset, pos)
    hi = max(x.offset + len(x.center), pos + 1)
    left = tuple(x.value(lo - L + j) for j in range(L))
    right = tuple(x.value(hi + j) for j in range(R))
    center = tuple(symbol if i == pos else x.value(i) for i in range(lo, hi))
    return EPPoint(left, center, right, lo)


def first_disagreement(x: EPPoint, y: EPPoint):
    """Smallest |i| with x[i] != y[i], or None when x == y.

    Distinct canonical forms guarantee a disagreement; it must occur
    within the span of both centers extended by one joint tail period
    on each side, which bounds the scan.
    """
    if x == y:
        return None
    lo = min(x.offset, y.offset) - lcm(len(x.left), len(y.left))
    hi = (max(x.offset + len(x.center), y.offset + len(y.center))
          + lcm(len(x.right), len(y.right)))
    bound = max(abs(lo), abs(hi)) + 1
    for m in range(bound + 1):
        if x.value(m) != y.value(m) or x.value(-m) != y.value(-m):
            return m
    raise AssertionError("distinct EPPoints must disagree within the scan bound")


def shift_metric(x: EPPoint, y: EPPoint) -> Fraction:
    """d(x, y) = 2^-m with m the smallest |i| where the sequences differ."""
    m = first_disagreement(x, y)
    if m is None:
        return ZERO
    return Fraction(1, 2 ** m)


def left_limit_cycle(x: EPPoint):
    """The periodic orbit that backward shifts of x accumulate on."""
    base = pure(x.left)
    return tuple(base.shift_by(j) for j in range(len(x.left)))


def right_limit_cycle(x: EPPoint):
    base = pure(x.right)
    return tuple(base.shift_by(j) for j in range(len(x.right)))


# -- symbolic balls -----------------------------------------------------


class ShiftBall(Frozen):
    """All sequences agreeing with `center` at positions |i| <= halfwidth-1.

    halfwidth 0 fixes nothing (the whole space). Balls in the shift
    metric are exactly these sets: d(x,y) < r constrains one central
    agreement window and nothing else.
    """
    __slots__ = _fields = ("center", "halfwidth")

    def __init__(self, center: EPPoint, halfwidth: int):
        self._set(center, halfwidth)

    def __contains__(self, y: EPPoint) -> bool:
        h = self.halfwidth
        if h == 0:
            return True
        m = first_disagreement(self.center, y)
        return m is None or m >= h

    def fixed_positions(self):
        h = self.halfwidth
        return range(-(h - 1), h) if h else range(0)


def ball_halfwidth(radius: Fraction) -> int:
    """Agreement halfwidth of the open ball of radius r: the least m with
    2^-m < r. PreconditionError unless r > 0."""
    radius = positive(radius, "ball radius")
    m = 0
    while Fraction(1, 2 ** m) >= radius:
        m += 1
    return m


# -- wire format --------------------------------------------------------


def parse_ep(text: str) -> EPPoint:
    """Parse "left~center~right@offset"; words are digit strings, center may be empty."""
    s = text.strip()
    offset = 0
    if "@" in s:
        s, off = s.rsplit("@", 1)
        try:
            offset = int(off)
        except ValueError:
            raise MalformedInputError(f"bad offset in EPPoint {text!r}") from None
    parts = s.split("~")
    if len(parts) != 3:
        raise MalformedInputError(f"EPPoint needs left~center~right: {text!r}")
    try:
        words = [tuple(int(ch) for ch in part) for part in parts]
    except ValueError:
        raise MalformedInputError(f"EPPoint words must be digits: {text!r}") from None
    if not words[0] or not words[2]:
        raise MalformedInputError(f"EPPoint tail words must be nonempty: {text!r}")
    return EPPoint(words[0], words[1], words[2], offset)


def format_ep(x: EPPoint) -> str:
    def word(w):
        return "".join(str(sym) for sym in w)
    return f"{word(x.left)}~{word(x.center)}~{word(x.right)}@{x.offset}"
