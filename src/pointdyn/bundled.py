"""Ready-made example systems used by tests and the command line.

Finite carriers cover the degenerate (identity on discrete spaces), the
near-degenerate (one close pair), rigid rotations, and a hyperbolic
toral map; the infinite ones are the full 2-shift and the satellite
construction around a period-2 marked point. Each accessor returns a
fresh instance; instances are immutable, so sharing would also be safe.
"""

from fractions import Fraction

from .errors import MalformedInputError
from .metric import FiniteMetricSpace, discrete_space
from .shiftspace import EPPoint, pure
from .systems import build_explicit, build_lattice, build_satellite, build_shift

ONE_HUNDREDTH = Fraction(1, 100)


def id3():
    """Identity on a 3-point discrete space (every pair at distance 1)."""
    return build_explicit(discrete_space(3), (0, 1, 2), name="id3")


def nearpair4():
    """Identity on 4 points where 0 and 1 sit at 1/100, all else at 1.

    The close pair makes perturbation questions non-trivial: a map may
    swap 0 and 1 while staying C0-close to the identity.
    """
    n = 4
    table = [[Fraction(0) if a == b else Fraction(1) for b in range(n)]
             for a in range(n)]
    table[0][1] = table[1][0] = ONE_HUNDREDTH
    return build_explicit(FiniteMetricSpace(table), (0, 1, 2, 3),
                          name="nearpair4")


def r6k2():
    return build_lattice(6, step=2, name="r6k2")


def r12k1():
    return build_lattice(12, step=1, name="r12k1")


def r12k3():
    return build_lattice(12, step=3, name="r12k3")


def r12k5():
    return build_lattice(12, step=5, name="r12k5")


def cat5():
    """Hyperbolic toral automorphism (2,1;1,1) on the 5x5 lattice."""
    return build_lattice(5, kind="torus", matrix=(2, 1, 1, 1), name="cat5")


def shift_probes():
    """Finitely presented shift points exercising all texture kinds:
    fixed points, short cycles, and one-sided perturbations of each."""
    return (
        pure((0,)),
        pure((1,)),
        pure((0, 1)),
        pure((1, 0)),
        pure((0, 0, 1)),
        pure((0, 1, 1)),
        EPPoint((0,), (1,), (0,), 0),
        EPPoint((1,), (0,), (1,), 0),
        EPPoint((0,), (1, 1), (0,), 0),
        EPPoint((0,), (1, 0, 1), (1,), -1),
        EPPoint((0, 1), (1, 1), (0, 1), 0),
        EPPoint((1,), (0, 0), (0, 1), 2),
    )


def shift2():
    return build_shift(2, name="shift2", probes=shift_probes())


def satellite_y_probes():
    """Y-side sample for the satellite carrier: the marked orbit, the
    fixed points, and assorted eventually periodic neighbours."""
    base = [
        pure((0, 1)),
        pure((1, 0)),
        pure((0,)),
        pure((1,)),
        pure((0, 0, 1)),
        pure((0, 1, 1)),
        pure((1, 1, 0)),
        pure((1, 0, 0)),
        EPPoint((0,), (1,), (0,), 0),
        EPPoint((1,), (0,), (1,), 0),
        EPPoint((0, 1), (0,), (0, 1), 0),
        EPPoint((0, 1), (1,), (0, 1), 1),
        EPPoint((0, 1), (1, 1), (0, 1), 0),
        EPPoint((0, 1), (0, 0), (0, 1), 0),
        EPPoint((0,), (1, 1), (0,), 0),
        EPPoint((1,), (0, 0), (1,), 0),
        EPPoint((0,), (0, 1), (1,), 0),
        EPPoint((1,), (1, 0), (0,), 0),
        EPPoint((0,), (1, 0, 1), (0,), -1),
        EPPoint((1,), (0, 1, 0), (1,), -1),
        EPPoint((0, 1), (1, 0, 0), (0, 1), -2),
        EPPoint((0, 1), (0, 1, 1), (1, 0), 3),
    ]
    return tuple(base)


def satellite3():
    """Satellite system around the period-2 point (01)^inf, truncated at
    K = 3: 18 isolated satellite points plus the full 2-shift core."""
    return build_satellite(3, 2, pure((0, 1)), probes=satellite_y_probes(),
                           name="satellite3")


REGISTRY = {
    "id3": id3,
    "nearpair4": nearpair4,
    "r6k2": r6k2,
    "r12k1": r12k1,
    "r12k3": r12k3,
    "r12k5": r12k5,
    "cat5": cat5,
    "shift2": shift2,
    "satellite3": satellite3,
}


def bundled_names():
    return sorted(REGISTRY)


def bundled_system(name: str):
    try:
        return REGISTRY[name]()
    except KeyError:
        raise MalformedInputError(
            f"no bundled system named {name!r}; available: "
            + ", ".join(bundled_names())) from None


# each measure accessor imports measures itself, so a bundled system
# loads no decider
def uniform3():
    """Uniform weights on the 3-point carrier (nothing is null)."""
    from .measures import WeightedMeasure
    return WeightedMeasure.from_weights({0: 1, 1: 1, 2: 1})


def nullpoint3():
    """Weights (0, 1, 1): point 0 carries no mass, so singleton sets
    through it are null while the carrier keeps full measure elsewhere."""
    from .measures import WeightedMeasure
    return WeightedMeasure.from_weights({0: 0, 1: 1, 2: 1})


def bernoulli_half():
    """Fair-coin Bernoulli measure on the 2-shift."""
    from .measures import WeightedMeasure
    return WeightedMeasure.from_bernoulli((Fraction(1, 2), Fraction(1, 2)))


MEASURES = {
    "uniform3": uniform3,
    "nullpoint3": nullpoint3,
    "bernoulli_half": bernoulli_half,
}


def bundled_measure(name: str):
    try:
        return MEASURES[name]()
    except KeyError:
        raise MalformedInputError(
            f"no bundled measure named {name!r}; available: "
            + ", ".join(sorted(MEASURES))) from None


def sampled_space(system, points) -> FiniteMetricSpace:
    """Finite metric space over an explicit point sample of any carrier."""
    pts = list(points)
    table = [[system.dist(a, b) for b in pts] for a in pts]
    return FiniteMetricSpace(table)


def mixed_sample(system):
    """Validation sample: system.sample(), or the bundled shift probes
    when that sample is empty (a shift that declares no probes)."""
    return system.sample() or list(shift_probes())
