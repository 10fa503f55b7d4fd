"""pointdyn: exact-arithmetic workbench for pointwise dynamics.

Expansivity, shadowing, and stability notions localized at single
points, decided exactly on desk-scale systems: finite metric carriers,
circle and torus lattices, the full shift on eventually periodic
sequences, and satellite extensions of marked periodic orbits.
"""

__version__ = "0.1.0"

from .rationals import parse_rational, format_rational, dyadic_below
from .errors import (PointdynError, MalformedInputError, PreconditionError,
                     ResourceBudgetError, CarrierMismatchError,
                     UnsupportedBackendError)
from .metric import FiniteMetricSpace, MetricViolation, validate_metric
from .shiftspace import EPPoint, pure, parse_ep, format_ep, shift_metric
from .systems import (build_explicit, build_lattice, build_shift,
                      build_satellite, ExplicitSystem, Satellite, orbit,
                      orbit_closure, pair_sup_separation, c0_distance,
                      system_ball, materialize, conjugate_system, point_label)
from .expansivity import (expansive_point_at, uniformly_expansive_at,
                          minimally_expansive_at, classify_points,
                          separation_horizon)
from .shadowing import (count_pseudo_orbits, trace, shadowable_windowed,
                        shadowable_exact, shadowable_exact_points,
                        splice_trace_shift)
from .measures import (WeightedMeasure, mu_uniformly_expansive_at,
                       mu_shadowable_at, mu_expansive_points, expansive_measure_check,
                       build_tracking_map, tracking_within_ball,
                       tracking_commutes,
                       verify_strong_mu_topological_stability)
from .stability import (build_conjugacy, enumerate_perturbations,
                        PerturbationFamily, verify_topologically_stable_point,
                        first_delta_isometry_pair, find_exact_isomorphism,
                        gh_distance_bounds, GHBounds, gh_stable_point_check,
                        transported_constant)
from .bundled import (bundled_names, bundled_system, bundled_measure,
                      mixed_sample, sampled_space)

__all__ = [
    "parse_rational", "format_rational", "dyadic_below",
    "PointdynError", "MalformedInputError", "PreconditionError",
    "ResourceBudgetError", "CarrierMismatchError", "UnsupportedBackendError",
    "FiniteMetricSpace", "MetricViolation", "validate_metric",
    "EPPoint", "pure", "parse_ep", "format_ep", "shift_metric",
    "build_explicit", "build_lattice", "build_shift", "build_satellite",
    "ExplicitSystem", "Satellite", "orbit", "orbit_closure",
    "pair_sup_separation", "c0_distance", "system_ball", "materialize",
    "conjugate_system", "point_label",
    "expansive_point_at", "uniformly_expansive_at", "minimally_expansive_at",
    "classify_points", "separation_horizon",
    "count_pseudo_orbits", "trace", "shadowable_windowed", "shadowable_exact",
    "shadowable_exact_points", "splice_trace_shift",
    "WeightedMeasure", "mu_uniformly_expansive_at", "mu_shadowable_at",
    "mu_expansive_points", "expansive_measure_check", "build_tracking_map",
    "tracking_within_ball", "tracking_commutes",
    "verify_strong_mu_topological_stability",
    "build_conjugacy", "enumerate_perturbations", "PerturbationFamily",
    "verify_topologically_stable_point",
    "first_delta_isometry_pair", "find_exact_isomorphism",
    "gh_distance_bounds", "GHBounds", "gh_stable_point_check",
    "transported_constant",
    "bundled_names", "bundled_system", "bundled_measure",
    "mixed_sample", "sampled_space",
]
