"""Exact combinatorics and algebra of decorated dual graphs.

Lattice maps with kernel and character data, tropical feasibility, exact
meromorphic sections on the line, obstruction classes and their collapse
factorizations, dimension counts, positivity classifiers, and the reduction
of non-simple map models.

The public names below are imported from their defining module on first
use (PEP 562), so `import logmoduli` loads no submodule and a CLI command
loads only the modules it calls.
"""

import sys as _sys

# defining module -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "InconsistencyError", "InputError", "LogModuliError", "MissingEtaError", "SizeCapError",
        "StructuralError",
    ),
    "graphs": (
        "BUBBLE", "GHOST", "PRINCIPAL", "DecoratedDualGraph", "Edge", "Leg",
        "ValidationReport", "Vertex", "solve_decorations", "validate_graph",
    ),
    "lattice": (
        "CharacterBasis", "Characters", "LatticeMap", "build_rho", "build_rho_multinode",
        "cokernel_characters", "kernel_lattice", "multinode_character_pullback", "node_index",
    ),
    "obstruction": (
        "GhostConfig", "ObstructionClass", "OV0Result", "canonical_characters", "collapse_ghost",
        "collapse_homomorphism", "compute_ob", "compute_ob_multinode", "compute_o_v0",
        "flip_edge", "relation_check",
    ),
    "dimension": (
        "DimensionReport", "cover_fiber_dim", "cover_replace_delta", "dimension_report",
        "expected_dim_log", "gamma_stratum_dim", "ghost_collapse_delta", "mc_fiber_dims",
        "plog_dim", "q_quantity", "q_upper_bound", "stratum_dim",
    ),
    "positivity": (
        "Classification", "CurveFamily", "GeometryProfile", "classify_pair",
        "hyperplane_profile",
    ),
    "qi": ("GaussianRational", "qi_parse", "qi_str"),
    "rt": ("MapModel", "ReductionTrace", "classify_cluster", "rt_reduce", "verify_edge_invariant"),
    "sections": (
        "INF", "CurveData", "P1Point", "RationalSection", "build_section", "leading_coefficient",
        "order_vector",
    ),
    "tropical": (
        "ConeDescription", "TropicalResult", "TropicalWitness", "cone_sigma",
        "feasible_by_fourier_motzkin", "tropical_feasible",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# submodules reachable as package attributes, as an eager import bound them
_SUBMODULES = frozenset(_EXPORTS) | {"intlinalg", "linprog"}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def _submodule(name):
    # the builtin __import__: -X importtime reports its imports, but not those
    # of importlib.import_module
    __import__(f"{__name__}.{name}")
    return _sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(_submodule(_MODULE_OF[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
