"""Finite metric spaces over exact rationals.

A FiniteMetricSpace is a full symmetric distance table on points
0..n-1 together with its integer rows. All axioms are decidable by
exact comparison, so validate_metric returns witnesses instead of
tolerances. Balls, Hausdorff distances and delta-isometries are read
off the kernels' integer rows (systems, stability).
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import NamedTuple

from .rationals import ZERO, as_rational, format_rational


class MetricViolation(NamedTuple):
    axiom: str          # "shape" | "identity" | "positivity" | "symmetry" | "triangle"
    witness: tuple
    detail: str


class FiniteMetricSpace:
    """Immutable distance table; construction does not validate axioms.

    The space owns the table's one integer scaling: denominator D, the
    least S with S * table integral, and rows = D * table. Two spaces are
    equal when their (D, rows) are, i.e. when their tables are. A space
    built by from_rows builds its Fraction table on first read.
    """

    def __init__(self, table):
        # a row of Fractions only is taken as it is
        self.table = table = tuple(tuple(row) if {Fraction}.issuperset(map(type, row))
                                   else tuple(map(as_rational, row)) for row in table)
        self.n = len(table)
        # one conversion per distinct object: a table's n^2 entries share a few
        values = {id(d): d for row in table for d in row}
        D = lcm(*(d.denominator for d in values.values()))
        ints = {key: d.numerator * (D // d.denominator) for key, d in values.items()}
        self.denominator = D
        self.rows = tuple(tuple(map(ints.__getitem__, map(id, row))) for row in table)

    @classmethod
    def from_rows(cls, D, rows) -> "FiniteMetricSpace":
        """The space of the integer rows D * table, D the least denominator."""
        space = cls.__new__(cls)
        space.n, space.denominator, space.rows = len(rows), D, rows
        return space

    @cached_property
    def table(self) -> tuple:
        """The distances as Fractions, one per distinct value of rows."""
        D = self.denominator
        values = {s: Fraction(s, D) for s in set().union(*self.rows)}
        return tuple(tuple(map(values.__getitem__, row)) for row in self.rows)

    def dist(self, i: int, j: int) -> Fraction:
        return self.table[i][j]

    def points(self):
        return range(self.n)

    def __eq__(self, other):
        return (isinstance(other, FiniteMetricSpace)
                and (self.denominator, self.rows) == (other.denominator, other.rows))

    def __hash__(self):
        return hash((self.denominator, self.rows))

    def __repr__(self):
        return f"FiniteMetricSpace(n={self.n})"


def discrete_space(n: int, gap=1) -> FiniteMetricSpace:
    g = as_rational(gap)
    return FiniteMetricSpace(
        [[ZERO if i == j else g for j in range(n)] for i in range(n)]
    )


def validate_metric(space: FiniteMetricSpace):
    """Return all axiom violations, each with an exact witness.

    Checks, in order: table shape, d(x,x) = 0, positivity off the
    diagonal, symmetry, and every triangle d(i,k) <= d(i,j) + d(j,k).
    The comparisons read the space's integer rows; the details quote the
    exact entries of its table.
    """
    out = []
    s, n = space.rows, space.n
    for i, row in enumerate(s):
        if len(row) != n:
            out.append(MetricViolation("shape", (i,), f"row {i} has length {len(row)}, want {n}"))
    if out:
        return out
    for i in range(n):
        if s[i][i] != 0:
            out.append(MetricViolation("identity", (i,),
                                       f"d({i},{i}) = {format_rational(space.table[i][i])}"))
    for i in range(n):
        for j in range(i + 1, n):
            if s[i][j] != s[j][i]:
                out.append(MetricViolation("symmetry", (i, j),
                                           "d(i,j) != d(j,i)"))
            if s[i][j] <= 0:
                out.append(MetricViolation("positivity", (i, j),
                                           f"d({i},{j}) = {format_rational(space.table[i][j])}"))
    for i, j, k in combinations(range(n), 3):
        for a, b, c in ((i, j, k), (j, i, k), (i, k, j)):
            # d(b,c) <= d(b,a) + d(a,c), a is the middle point
            if s[b][c] > s[b][a] + s[a][c]:
                out.append(MetricViolation(
                    "triangle", (b, a, c),
                    f"d({b},{c}) > d({b},{a}) + d({a},{c})"))
    return out
