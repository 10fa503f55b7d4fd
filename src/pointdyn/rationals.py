"""Exact rational scalars and their wire format.

Every quantity in this package is a `fractions.Fraction`; floats never
appear in core computations. The wire format is "p/q" with an explicit
denominator, also for integers ("0/1", "2/1"), so that serialized
reports are canonical. The module also holds what every layer shares
below the scalars: the budget rule and `Frozen`, the base of the
records that cannot be tuples.
"""

from fractions import Fraction

from .errors import MalformedInputError, PreconditionError

ZERO = Fraction(0)
ONE = Fraction(1)


class RationalFormatError(MalformedInputError, ValueError):
    """Text or a value that is not an exact rational (a usage error)."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer string into an exact rational."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise RationalFormatError(f"not a rational: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def as_rational(value) -> Fraction:
    """Coerce int / Fraction / "p/q" string; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise RationalFormatError(f"exact rational required, got {type(value).__name__}")


def positive(value, what) -> Fraction:
    """value as a rational; PreconditionError "<what> must be positive"
    unless it is above zero."""
    value = as_rational(value)
    if value.numerator <= 0:        # the sign, without a Fraction compare
        raise PreconditionError(f"{what} must be positive")
    return value


def resolve_budget(budget, default) -> int:
    """budget, or default when it is None; PreconditionError "budget must
    be an integer" for any other non-int (a bool included) and "budget
    must be nonnegative" for a negative budget, before any work is done."""
    if budget is None:
        return default
    if type(budget) is bool or not isinstance(budget, int):
        raise PreconditionError(f"budget must be an integer, got {budget!r}")
    if budget < 0:
        raise PreconditionError(f"budget must be nonnegative, got {budget}")
    return budget


def dyadic_below(q) -> Fraction:
    """Largest power of two 1/2^k strictly below q; q as in positive."""
    q = positive(q, "dyadic bound")
    step = ONE
    while step >= q:
        step /= 2
    return step


class Frozen:
    """A record that is not a tuple. A subclass names its fields in
    `_fields` and sets them once, in its own __init__, through `_set`;
    they cannot be reassigned after. Equality, hash and repr go by the
    field values."""

    __slots__ = ()
    _fields = ()

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = (f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({', '.join(fields)})"
