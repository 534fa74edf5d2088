"""Secrecy capacity-memory tradeoffs of cache-aided wiretap erasure
broadcast channels: bounds, corner points, hulls, coding-scheme plans and
finite-blocklength simulation.

The package namespace is lazy (PEP 562): ``import secache`` loads no
submodule, and each public name imports its module on first access.
``errors``, ``model`` and ``schemes`` are pure Python; ``bounds``,
``corners``, ``hull``, ``tradeoff`` and ``simulate`` load numpy.  A name
is looked up in its module on every access, never copied into this
namespace, so the module attribute is its one binding.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_MODULE_OF = {
    name: module
    for module, names in (
        ("bounds", ("BoundFamily", "UpperBoundReport", "alpha_sequence", "ub_best",
                    "ub_best_grid", "ub_cache_sharing", "ub_global", "ub_split")),
        ("corners", ("points_all_cached", "points_separate", "points_symmetric",
                     "points_weak_only", "weak_only_max_slope")),
        ("errors", ("BelowDomain", "ConfigError", "EmptyInput", "IndexOutOfRange",
                    "Infeasible", "InvalidParameter", "InvalidScenario", "NotApplicable",
                    "RangeError", "SecacheError")),
        ("hull", ("Curve1D", "Surface", "eval_hull_1d", "eval_hull_2d", "upper_hull_1d")),
        ("model", ("CacheSizes", "ChannelScenario", "RateMemoryPoint", "validate_scenario",
                   "zero_cache_capacity")),
        ("schemes", ("BUILDERS", "Atom", "DeliverySegment", "DeliveryUnit", "SchemePlan",
                     "VerificationReport", "build_cached_keys_all", "build_piggyback_allkeys",
                     "build_piggyback_one", "build_piggyback_two",
                     "build_superposition_jamming", "build_symmetric_piggyback",
                     "build_wiretap_cached_keys", "cache_usage", "cache_usage_by_class",
                     "verify_plan")),
        ("simulate", ("SimConfig", "SimReport", "run_monte_carlo")),
        ("tradeoff", ("Tradeoff", "exact_regimes", "global_curve", "lower_curve_weak_only",
                      "lower_global", "lower_surface_all", "lower_uniform", "separate_curve",
                      "uniform_curve", "weak_only_curve")),
    )
    for name in names
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
