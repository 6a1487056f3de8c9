"""Exact combinatorics and algebra of decorated dual graphs.

Lattice maps with kernel and character data, tropical feasibility, exact
meromorphic sections on the line, obstruction classes and their collapse
factorizations, dimension counts, positivity classifiers, and the reduction
of non-simple map models.
"""

from .errors import (
    InputError,
    LogModuliError,
    MissingEtaError,
    SizeCapError,
    StructuralError,
)
from .graphs import (
    BUBBLE,
    GHOST,
    PRINCIPAL,
    DecoratedDualGraph,
    Edge,
    Leg,
    ValidationReport,
    Vertex,
    solve_decorations,
    validate_graph,
)
from .lattice import (
    CharacterBasis,
    LatticeMap,
    build_rho,
    build_rho_multinode,
    cokernel_characters,
    kernel_lattice,
    multinode_character_pullback,
    node_index,
)
from .obstruction import (
    Characters,
    CurveData,
    GhostConfig,
    ObstructionClass,
    OV0Result,
    canonical_characters,
    collapse_ghost,
    collapse_homomorphism,
    compute_ob,
    compute_ob_multinode,
    compute_o_v0,
    flip_edge,
    relation_check,
)
from .dimension import (
    DimensionReport,
    cover_fiber_dim,
    cover_replace_delta,
    dimension_report,
    expected_dim_log,
    gamma_stratum_dim,
    ghost_collapse_delta,
    mc_fiber_dims,
    plog_dim,
    q_quantity,
    q_upper_bound,
    stratum_dim,
)
from .positivity import (
    Classification,
    CurveFamily,
    GeometryProfile,
    classify_pair,
    hyperplane_profile,
)
from .qi import GaussianRational, qi_parse, qi_str
from .rt import MapModel, ReductionTrace, classify_cluster, rt_reduce, verify_edge_invariant
from .sections import (
    INF,
    P1Point,
    RationalSection,
    build_section,
    leading_coefficient,
    order_vector,
)
from .tropical import (
    ConeDescription,
    TropicalResult,
    TropicalWitness,
    cone_sigma,
    feasible_by_fourier_motzkin,
    tropical_feasible,
)

__version__ = "0.1.0"
