"""Dimension formulas: expected log dimension, stratum dimensions via two
independent routes, multiple-cover calculus, and the tracking quantity whose
deltas control the reduction steps.  All dimensions are complex; pass
real=True to double."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InconsistencyError, InputError
from .graphs import DecoratedDualGraph
from .lattice import build_rho


def expected_dim_log(c1_log: int, n: int, g: int, k: int, real: bool = False) -> int:
    """c1_log + (n-3)(1-g) + k, the expected dimension of the main stratum."""
    if n < 1 or g < 0 or k < 0:
        raise InputError("need n >= 1 and g, k >= 0")
    d = c1_log + (n - 3) * (1 - g) + k
    return 2 * d if real else d


def node_ledger(nodes):
    """Per-stratum (branch point count, node count) from (stratum, branch
    count) pairs, one pair per node; multi-nodes count once."""
    ledger = {}
    for stratum, arrows in nodes:
        key = frozenset(stratum)
        a, m = ledger.get(key, (0, 0))
        ledger[key] = (a + arrows, m + 1)
    return ledger


def _edge_ledger(graph: DecoratedDualGraph):
    return node_ledger((e.stratum, len(e.ends)) for e in graph.edges)


def stratum_dim(graph: DecoratedDualGraph, real: bool = False) -> int:
    """Dimension of a simple stratum, computed two ways.

    Route one subtracts the kernel rank from the expected log dimension;
    route two subtracts the torus dimension (the cokernel rank) from the
    pre-log dimension `plog_dim`, which sums per-component dimensions and
    subtracts the node-matching codimensions.  Disagreement is an internal
    error.
    """
    if graph.has_multinode:
        raise InputError("stratum_dim expects a graph without multi-nodes")
    lmap = build_rho(graph)
    c1 = sum(v.c1_log for v in graph.vertices)
    route1 = expected_dim_log(c1, graph.n, graph.total_genus(), graph.k()) - lmap.kernel_rank
    route2 = plog_dim(graph) - lmap.cokernel_rank

    if route1 != route2:
        raise InconsistencyError(
            f"internal inconsistency: stratum dimension routes disagree ({route1} vs {route2})"
        )
    return 2 * route1 if real else route1


def plog_dim(graph: DecoratedDualGraph, real: bool = False) -> int:
    """Dimension of the fibered pre-log space of a (possibly multi-node)
    reduced graph: k + |branch points| + per-component terms minus the
    stratified node-matching codimensions."""
    n = graph.n
    total = graph.k()
    total += sum(len(e.ends) for e in graph.edges)
    for v in graph.vertices:
        total += v.c1_log + (n - 3) * (1 - v.genus) - len(v.stratum)
    for key, (arrows, nodes) in _edge_ledger(graph).items():
        total -= (n - len(key)) * (arrows - nodes)
    return 2 * total if real else total


def gamma_stratum_dim(reduced_graph: DecoratedDualGraph, fiber_dims, full_graph: DecoratedDualGraph,
                      real: bool = False) -> int:
    """Expected dimension of a non-simple locus: pre-log dimension of the
    reduced graph, plus the reduction fiber dimensions, minus the torus
    dimension of the full graph."""
    lmap = build_rho(full_graph)
    d = plog_dim(reduced_graph) + sum(fiber_dims) - lmap.cokernel_rank
    return 2 * d if real else d


@dataclass(frozen=True)
class MCFiberDims:
    d_fiber: int
    d_down: int
    d_up: int
    semipositive_window_violated: bool
    positive_window_violated: bool


def mc_fiber_dims(d: int, l: int, k: int, c1_log_base: int, n: int, depth: int = 0) -> MCFiberDims:
    """Multiple-cover calculus for covers with full contact profiles.

    d_fiber is the dimension of the space of degree-d covers with the given
    contact data; d_down/d_up the expected dimensions downstairs/upstairs.
    The window flags report whether the base Chern pairing lies in the
    forbidden interval, with the ambient dimension reduced by the depth.
    """
    if d < 1:
        raise InputError("cover degree must be >= 1")
    if l < 0 or k < l:
        raise InputError("need 0 <= l <= k for contact points")
    n_eff = n - depth
    d_fiber = (d - 1) * (2 - l) + k - l
    d_down = c1_log_base + n_eff - 3 + l
    d_up = d * c1_log_base + n_eff - 3 + k
    lo = 3 - n_eff - l
    hi = 0 if l <= 2 else 2 - l
    semi = lo <= c1_log_base <= hi
    pos = lo <= c1_log_base < hi if l > 2 else lo <= c1_log_base < 0
    return MCFiberDims(d_fiber, d_down, d_up, semi, pos)


def cover_fiber_dim(d: int, marked: int, prescribed_total: Optional[int] = None) -> int:
    """Dimension of degree-d self-covers of the line with `marked` labelled
    preimages of fixed points, their local orders summing to
    prescribed_total (default: all simple)."""
    if prescribed_total is None:
        prescribed_total = marked
    return 2 * d - 2 + marked - prescribed_total


def tracking_quantity(c1_total: int, k: int, strata_total: int, ledger) -> int:
    """The tracking quantity: Chern terms + marks + multi-node corrections.

    Each ledger entry (stratum I: a branch points, m nodes) adds the
    correction 2m - a and the stratified term (|I| - 1)(a - m); for a graph
    without multi-nodes the correction vanishes and the stratified term
    reduces to the node strata sum.
    """
    q = c1_total + k - strata_total
    for key, (a, m) in ledger.items():
        q += 2 * m - a + (len(key) - 1) * (a - m)
    return q


def q_quantity(graph: DecoratedDualGraph) -> int:
    """The tracking quantity of a (possibly multi-node) decorated graph."""
    return tracking_quantity(
        sum(v.c1_log for v in graph.vertices),
        graph.k(),
        sum(len(v.stratum) for v in graph.vertices),
        _edge_ledger(graph),
    )


def q_upper_bound(graph: DecoratedDualGraph) -> int:
    """Tracking quantity plus the genus term of the current graph."""
    return q_quantity(graph) + (graph.n - 3) * (1 - graph.total_genus())


def ghost_collapse_delta(k_v: int, l_v: int) -> int:
    """Drop in the tracking quantity when a ghost with k_v marks and l_v
    nodes is collapsed: the dimension of its point configuration space."""
    return k_v + l_v - 3


def cover_replace_delta(d: int, c1_log_base: int, contacts_before: int, contacts_after: int) -> int:
    """Drop when a degree-d cover is replaced by its image."""
    return (d - 1) * c1_log_base + contacts_before - contacts_after


@dataclass(frozen=True)
class DimensionReport:
    d_log: int
    d_stratum: Optional[int]
    q_value: int
    q_bound: int
    kernel_rank: int
    cokernel_rank: int
    d_fiber: Optional[int] = None
    d_down: Optional[int] = None
    d_up: Optional[int] = None


def dimension_report(graph: DecoratedDualGraph, cover: Optional[dict] = None) -> DimensionReport:
    c1 = sum(v.c1_log for v in graph.vertices)
    d_log = expected_dim_log(c1, graph.n, graph.total_genus(), graph.k())
    lmap = build_rho(graph)
    d_str = None if graph.has_multinode else stratum_dim(graph)
    mc = None
    if cover:
        mc = mc_fiber_dims(
            cover["d"], cover["l"], cover["k"],
            cover["c1_log_base"], graph.n, cover.get("depth", 0),
        )
    return DimensionReport(
        d_log,
        d_str,
        q_quantity(graph),
        q_upper_bound(graph),
        lmap.kernel_rank,
        lmap.cokernel_rank,
        mc.d_fiber if mc else None,
        mc.d_down if mc else None,
        mc.d_up if mc else None,
    )
