"""The four-step reduction of non-simple map models.

Step (i) contracts ghost clusters into multi-nodes (their marked points are
dropped), step (ii) replaces covers by their images and merges special
points with equal image labels, step (iii) contracts adjacent bubbles with
the same image, and step (iv) identifies the remaining equal-image
components and points, possibly raising the genus.  "Same image" is purely
declarative through labels, since actual maps are absent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from .dimension import (
    cover_replace_delta, ghost_collapse_delta, node_ledger, tracking_quantity,
)
from .errors import InputError
from .graphs import (
    GHOST, PRINCIPAL, DecoratedDualGraph, _components, first_betti_number, validate_graph,
)


@dataclass
class RTVertex:
    id: str
    kind: str
    genus: int
    c1_log: int
    stratum: frozenset
    image_label: Optional[str]
    cover_degree: int = 1
    base_c1_log: Optional[int] = None
    multiplicity: int = 1
    origins: tuple = ()

    def __post_init__(self):
        self.stratum = frozenset(self.stratum)
        if not self.origins:
            self.origins = (self.id,)


@dataclass
class RTNode:
    """A node or multi-node: branches are (vertex id, image label)."""

    id: str
    stratum: frozenset
    branches: tuple

    def __post_init__(self):
        self.stratum = frozenset(self.stratum)
        self.branches = tuple(self.branches)

    @property
    def arrows(self) -> int:
        return len(self.branches)


@dataclass
class RTLeg:
    id: str
    vertex: str
    image_label: Optional[str]


@dataclass
class RTGraph:
    """Count-level snapshot of a model during the reduction."""

    vertices: Dict[str, RTVertex]
    nodes: Dict[str, RTNode]
    legs: Dict[str, RTLeg]
    n: int

    def k(self) -> int:
        return len(self.legs)

    def ledger(self):
        return node_ledger((node.stratum, node.arrows) for node in self.nodes.values())

    def first_betti(self) -> int:
        return first_betti_number(
            self.vertices, ([b[0] for b in node.branches] for node in self.nodes.values())
        )

    def total_genus(self) -> int:
        return sum(v.genus for v in self.vertices.values()) + self.first_betti()

    def q_value(self) -> int:
        return tracking_quantity(
            sum(v.c1_log for v in self.vertices.values()),
            self.k(),
            sum(len(v.stratum) for v in self.vertices.values()),
            self.ledger(),
        )

    def clone(self) -> "RTGraph":
        return RTGraph(
            {k: replace(v) for k, v in self.vertices.items()},
            {k: replace(nd) for k, nd in self.nodes.items()},
            {k: replace(l) for k, l in self.legs.items()},
            self.n,
        )


@dataclass(frozen=True)
class MapModel:
    graph: DecoratedDualGraph

    def __post_init__(self):
        report = validate_graph(self.graph, multinode_allowed=True)
        if not report.valid:
            raise InputError(
                "map model graph is invalid: " + "; ".join(str(v) for v in report.violations)
            )
        for v in self.graph.vertices:
            if v.cover_degree is not None and v.cover_degree > 1 and v.base_c1_log is None:
                raise InputError(f"cover bubble {v.id!r} needs base pairings")

    def rt_graph(self) -> RTGraph:
        g = self.graph
        vertices = {
            v.id: RTVertex(
                v.id, v.kind, v.genus, v.c1_log, v.stratum, v.image_label,
                cover_degree=v.cover_degree or 1,
                base_c1_log=v.base_c1_log,
            )
            for v in g.vertices
        }
        nodes = {
            e.id: RTNode(e.id, e.stratum, zip(e.ends, e.image_labels or (None,) * len(e.ends)))
            for e in g.edges
        }
        legs = {l.id: RTLeg(l.id, l.vertex, l.image_label) for l in g.legs}
        return RTGraph(vertices, nodes, legs, g.n)


@dataclass(frozen=True)
class ReductionTrace:
    stages: tuple  # (name, RTGraph) for gamma, gamma', gamma''
    q_values: tuple
    ghost_deltas: tuple  # (ghost cluster ids, delta)
    cover_deltas: tuple  # (vertex id, delta)
    red: dict  # original bubble id -> final id
    multiplicities: dict  # final bubble id -> total multiplicity
    genus_by_stage: tuple
    ledgers: tuple  # per-stage {stratum: (arrows, nodes)}

    def stage(self, name: str) -> RTGraph:
        for nm, g in self.stages:
            if nm == name:
                return g
        raise KeyError(name)


def rt_reduce(model: MapModel) -> ReductionTrace:
    g0 = model.rt_graph()
    g1, ghost_deltas = _step_collapse_ghosts(g0.clone())
    g2, cover_deltas = _step_replace_covers(g1)
    g3 = _step_contract_equal_image_trees(g2)
    g4 = _step_identify_equal_images(g3.clone())
    stages = (("gamma", g0), ("gamma_prime", g3), ("gamma_double_prime", g4))
    bubbles = [v for v in g4.vertices.values() if v.kind != PRINCIPAL]
    return ReductionTrace(
        stages=stages,
        q_values=tuple(g.q_value() for _, g in stages),
        ghost_deltas=tuple(ghost_deltas),
        cover_deltas=tuple(cover_deltas),
        red={origin: v.id for v in bubbles for origin in v.origins},
        multiplicities={v.id: v.multiplicity for v in bubbles},
        genus_by_stage=tuple(g.total_genus() for _, g in stages),
        ledgers=tuple(g.ledger() for _, g in stages),
    )


def _step_collapse_ghosts(g: RTGraph):
    deltas = []
    ghosts = sorted(vid for vid, v in g.vertices.items() if v.kind == GHOST)
    # an external node of one cluster touches no ghost of another, or it
    # would join the two, so collapsing a cluster leaves the others as they
    # were; the clusters come in the order of their least ghost
    node_ends = ([b[0] for b in node.branches] for node in g.nodes.values())
    for members in _components(ghosts, node_ends):
        cluster = set(members)
        internal, external = [], []
        for nid, node in g.nodes.items():
            inside = [b[0] in cluster for b in node.branches]
            if all(inside):
                internal.append(nid)
            elif any(inside):
                external.append(nid)
        if any(g.nodes[nid].arrows > 2 for nid in internal + external):
            raise InputError("ghost clusters must consist of ordinary nodes")
        # a stable ghost cluster is a tree
        if len(internal) != len(cluster) - 1:
            raise InputError("ghost cluster is not a tree")
        strata = {g.vertices[vid].stratum for vid in cluster}
        if len(strata) != 1:
            raise InputError("ghost cluster strata are inconsistent")
        stratum = strata.pop()
        marks = [lid for lid, leg in g.legs.items() if leg.vertex in cluster]
        k_v = len(marks)
        l_v = len(external)
        delta = ghost_collapse_delta(k_v, l_v)
        if l_v == 1:
            # no multi-node survives: the attachment point on the other side
            # is forgotten as well, one extra unit of configuration
            delta += 1
        deltas.append((tuple(members), delta))
        for lid in marks:
            del g.legs[lid]
        for nid in internal:
            del g.nodes[nid]
        branches = [b for nid in sorted(external) for b in g.nodes.pop(nid).branches
                    if b[0] not in cluster]
        for vid in cluster:
            del g.vertices[vid]
        if len(branches) >= 2:
            new_id = "m_" + members[0]
            g.nodes[new_id] = RTNode(new_id, stratum, tuple(branches))
        # a single branch simply evaporates with the cluster
    return g, deltas


def _step_replace_covers(g: RTGraph):
    deltas = []
    for vid in sorted(g.vertices):
        v = g.vertices[vid]
        d = v.cover_degree
        if d <= 1:
            continue
        before = len(_special_points_of(g, vid))
        base = v.base_c1_log
        if v.c1_log != d * base:
            raise InputError(
                f"cover bubble {vid!r}: class pairing {v.c1_log} != degree x base {d * base}"
            )
        v.multiplicity *= d
        v.cover_degree = 1
        v.c1_log = base
        _merge_labelled_points(g, vid)
        after = len(_special_points_of(g, vid))
        deltas.append((vid, cover_replace_delta(d, base, before, after)))
    return g, deltas


def _special_points_of(g: RTGraph, vid: str):
    pts = []
    for nid, node in g.nodes.items():
        for j, b in enumerate(node.branches):
            if b[0] == vid:
                pts.append(("node", nid, j, b[1]))
    for lid, leg in g.legs.items():
        if leg.vertex == vid:
            pts.append(("leg", lid, None, leg.image_label))
    return pts


def _merge_labelled_points(g: RTGraph, vid: str):
    """Fuse special points on one component that share an image label.

    The labels go in sorted order, and each reads the points as the
    fusions before it left them: a fusion removes nodes, and moves the
    points of other labels onto the node it keeps."""
    for label in sorted({p[3] for p in _special_points_of(g, vid)} - {None}):
        group = [p for p in _special_points_of(g, vid) if p[3] == label]
        if len(group) < 2:
            continue
        kinds = {p[0] for p in group}
        if kinds == {"leg"}:
            for lid in sorted(p[1] for p in group)[1:]:
                del g.legs[lid]
        elif kinds == {"node"}:
            keep, *others = sorted({p[1] for p in group})
            stratum = g.nodes[keep].stratum
            if any(g.nodes[nid].stratum != stratum for nid in others):
                raise InputError(f"merging nodes with different strata at label {label!r}")
            # the labelled point on vid stays once, at its first place
            points = {(p[1], p[2]) for p in group}
            first = min(points)
            g.nodes[keep].branches = tuple(
                b for nid in (keep, *others) for j, b in enumerate(g.nodes[nid].branches)
                if (nid, j) not in points or (nid, j) == first
            )
            for nid in others:
                del g.nodes[nid]
        else:
            raise InputError(
                f"image label {label!r} identifies a marked point with a node; unsupported"
            )


def _step_contract_equal_image_trees(g: RTGraph) -> RTGraph:
    # each fusion may merge nodes, so the scan starts over after it
    while g.nodes:
        for nid in sorted(g.nodes):
            node = g.nodes[nid]
            if node.arrows != 2:
                continue
            a, b = node.branches[0][0], node.branches[1][0]
            if a == b:
                continue
            va, vb = g.vertices[a], g.vertices[b]
            if va.kind == PRINCIPAL or vb.kind == PRINCIPAL:
                continue
            if va.image_label is None or va.image_label != vb.image_label:
                continue
            _fuse_vertices(g, a, b, drop_node=nid)
            break
        else:
            break
    return g


def _fuse_vertices(g: RTGraph, keep: str, drop: str, drop_node: Optional[str] = None):
    """Identify drop with keep, then fuse the labelled points on keep."""
    vk, vd = g.vertices[keep], g.vertices[drop]
    if vk.stratum != vd.stratum:
        raise InputError("cannot identify components with different strata")
    vk.multiplicity += vd.multiplicity
    vk.origins = tuple(sorted(set(vk.origins) | set(vd.origins)))
    if drop_node is not None:
        del g.nodes[drop_node]
    for node in g.nodes.values():
        node.branches = tuple((keep if b[0] == drop else b[0], b[1]) for b in node.branches)
    for leg in g.legs.values():
        if leg.vertex == drop:
            leg.vertex = keep
    del g.vertices[drop]
    _merge_labelled_points(g, keep)


def _step_identify_equal_images(g: RTGraph) -> RTGraph:
    # components first: a fusion changes no other vertex's label, so each
    # label's bubbles join into its least id, label by label
    by_label: Dict[str, list] = {}
    for vid, v in g.vertices.items():
        if v.kind != PRINCIPAL and v.image_label is not None:
            by_label.setdefault(v.image_label, []).append(vid)
    for label in sorted(by_label):
        keep, *others = sorted(by_label[label])
        for drop in others:
            _fuse_vertices(g, keep, drop)
    # then remaining labelled point identifications on every component
    for vid in sorted(g.vertices):
        _merge_labelled_points(g, vid)
    return g


def verify_edge_invariant(trace: ReductionTrace):
    """Per-stratum equality of arrows-minus-nodes between the reduced stages."""
    prime = trace.stage("gamma_prime").ledger()
    dbl = trace.stage("gamma_double_prime").ledger()
    failures = []
    for stratum in sorted(set(prime) | set(dbl), key=lambda s: (len(s), sorted(s))):
        a1, m1 = prime.get(stratum, (0, 0))
        a2, m2 = dbl.get(stratum, (0, 0))
        if a1 - m1 != a2 - m2:
            failures.append(tuple(sorted(stratum)))
    return not failures, failures


@dataclass(frozen=True)
class ClusterReport:
    cluster_type: str  # "i", "ii", "iii", or "not-a-cluster"
    delta_plus: dict
    bound_ok: Optional[bool]
    chain_violations: tuple
    external_nodes: int
    external_marks: int


def classify_cluster(model: MapModel, cluster_ids, nef: Optional[bool] = None) -> ClusterReport:
    """Classify a connected set of bubble components by its external special
    points, count positive points per vertex, and detect the chain pattern
    that the positivity bound forbids."""
    g = model.graph
    cluster = set(cluster_ids)
    for vid in cluster:
        if g.vertex(vid).kind == PRINCIPAL:
            raise InputError(f"vertex {vid!r} is not a bubble")

    def positive(contact):
        return contact is not None and any(x > 0 for x in contact)

    external_nodes = 0
    internal_edges = []
    for e in g.edges:
        inside = [vid in cluster for vid in e.ends]
        if all(inside):
            internal_edges.append(e)
        else:
            external_nodes += sum(inside)
    external_marks = sum(l.vertex in cluster for l in g.legs)
    delta_plus = {
        vid: sum(positive(e.end_contact(idx)) for e, idx in g.edges_at(vid))
        + sum(positive(l.contact) for l in g.legs_at(vid))
        for vid in sorted(cluster)
    }
    ctype = {(1, 0): "i", (1, 1): "ii", (2, 0): "iii"}.get(
        (external_nodes, external_marks), "not-a-cluster"
    )

    chain = []
    if ctype != "not-a-cluster":
        for e in internal_edges:
            for idx in (0, 1):
                if not positive(e.end_contact(idx)):
                    continue
                # positive point on ends[idx] pointing into the sub-cluster
                # hanging off ends[1-idx]; it is a chain if that sub-cluster
                # carries no mark and meets nothing outside the cluster
                sub = _subcluster(g, cluster, e, 1 - idx)
                if sub is None or any(l.vertex in sub for l in g.legs):
                    continue
                if not any(not sub.isdisjoint(e2.ends) and not cluster.issuperset(e2.ends)
                           for e2 in g.edges):
                    chain.append((e.id, e.ends[idx]))
    bound_ok = None
    if nef is not None:
        bound_ok = (not nef) or all(v <= 2 for v in delta_plus.values())
    return ClusterReport(
        ctype, delta_plus, bound_ok, tuple(chain), external_nodes, external_marks
    )


def _subcluster(g, cluster, cut_edge, side):
    """Vertices of the cluster reachable from cut_edge.ends[side] without
    crossing the cut edge; None if the cut does not separate."""
    start = cut_edge.ends[side]
    if start not in cluster:
        return None
    comps = _components(sorted(cluster), (e.ends for e in g.edges if e.id != cut_edge.id))
    sub = set(next(comp for comp in comps if start in comp))
    if cut_edge.ends[1 - side] in sub:
        return None
    return sub
