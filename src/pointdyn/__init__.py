"""pointdyn: exact-arithmetic workbench for pointwise dynamics.

Expansivity, shadowing, and stability notions localized at single
points, decided exactly on desk-scale systems: finite metric carriers,
circle and torus lattices, the full shift on eventually periodic
sequences, and satellite extensions of marked periodic orbits.

The package exports the names of its _EXPORTS table and imports a
module on the first read of one of its names, so ``import pointdyn``
loads no submodule and a ``pdl`` verb loads only the modules it reaches.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names the package exports from it
_EXPORTS = {
    "rationals": ("parse_rational", "format_rational", "dyadic_below"),
    "errors": ("PointdynError", "MalformedInputError", "PreconditionError",
               "ResourceBudgetError", "CarrierMismatchError", "UnsupportedBackendError"),
    "metric": ("FiniteMetricSpace", "MetricViolation", "validate_metric"),
    "shiftspace": ("EPPoint", "pure", "parse_ep", "format_ep", "shift_metric"),
    "systems": ("build_explicit", "build_lattice", "build_shift", "build_satellite",
                "ExplicitSystem", "Satellite", "orbit", "orbit_closure",
                "pair_sup_separation", "c0_distance", "system_ball", "materialize",
                "conjugate_system", "point_label"),
    "expansivity": ("expansive_point_at", "uniformly_expansive_at",
                    "minimally_expansive_at", "classify_points", "separation_horizon"),
    "shadowing": ("count_pseudo_orbits", "trace", "shadowable_windowed",
                  "shadowable_exact", "shadowable_exact_points", "splice_trace_shift"),
    "measures": ("WeightedMeasure", "mu_uniformly_expansive_at", "mu_shadowable_at",
                 "mu_expansive_points", "expansive_measure_check", "build_tracking_map",
                 "tracking_within_ball", "tracking_commutes",
                 "verify_strong_mu_topological_stability"),
    "stability": ("build_conjugacy", "enumerate_perturbations", "PerturbationFamily",
                  "verify_topologically_stable_point", "first_delta_isometry_pair",
                  "find_exact_isomorphism", "gh_distance_bounds", "GHBounds",
                  "gh_stable_point_check", "transported_constant"),
    "bundled": ("bundled_names", "bundled_system", "bundled_measure", "mixed_sample",
                "sampled_space"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # the name is read from its module on every access and never bound
    # here, so a function patched on its module reads the same through
    # the package, and reads the original again once it is restored
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
