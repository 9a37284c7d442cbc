"""Linear codes under coordinate-order weights: canonical generator
forms, maximal decompositions, packing-radius bounds and leveled
syndrome decoders, with brute-force oracles at desk scale.

Names load on first use.  `import posetcode` runs no submodule: each
public name is imported from its home module the first time it is read,
then kept in the package namespace.  `decomp`, `decode` and `radius`
are registered through `importlib.util.LazyLoader`, so their bodies run
only when one of their attributes is first read.  On Python < 3.12 that
first load is not thread-safe: read a name from each of those modules
before starting threads that use them.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "budget": ("DEFAULT_BUDGET", "BudgetExceededError"),
    "decomp": (
        "Decomposition",
        "PDecomposition",
        "PointedPartition",
        "Profile",
        "canonical_form",
        "components_from_matrix",
        "degree",
        "is_p_canonical",
        "is_partition_refinement",
        "max_degree",
        "maximal_p_decomposition",
        "profile",
        "validate_p_decomposition",
    ),
    "decode": (
        "DecodePlan",
        "PlanGroup",
        "SyndromeTable",
        "build_plan",
        "build_plan_for_code",
        "build_table",
        "decode_full",
        "decode_leveled_alg1",
        "decode_leveled_alg2",
        "hierarchical_groups",
        "independent_groups",
        "parity_check",
        "project",
        "table_sizes",
        "unproject_support",
    ),
    "field": ("PrimeField",),
    "linear": (
        "Code",
        "Matrix",
        "Vector",
        "is_generalized_rref",
        "min_distance",
        "p_distance",
        "p_weight",
        "row_reduce_inverse",
        "support",
    ),
    "poset": ("Poset", "complete_cuts", "leq_poset", "lower_neighbor", "upper_neighbor"),
    "radius": ("RadiusBounds", "packing_radius_bounds", "packing_radius_exact"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


def _register_lazy(name):
    """Put submodule `name` in `sys.modules` without running its body."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


decomp, decode, radius = map(_register_lazy, ("decomp", "decode", "radius"))
