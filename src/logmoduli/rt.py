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

from .dimension import ghost_collapse_delta, node_ledger, tracking_quantity
from .errors import InputError
from .graphs import GHOST, PRINCIPAL, DecoratedDualGraph, first_betti_number, validate_graph


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
            if v.kind == GHOST and (any(v.degrees) or v.c1_log != 0):
                raise InputError(f"ghost {v.id!r} must have zero pairings")
            if v.cover_degree is not None and v.cover_degree < 1:
                raise InputError(f"cover degree on {v.id!r} must be positive")
            if v.cover_degree is not None and v.cover_degree > 1 and v.base_c1_log is None:
                raise InputError(f"cover bubble {v.id!r} needs base pairings")

    def rt_graph(self) -> RTGraph:
        g = self.graph
        vertices = {}
        for v in g.vertices:
            vertices[v.id] = RTVertex(
                v.id, v.kind, v.genus, v.c1_log, v.stratum, v.image_label,
                cover_degree=v.cover_degree or 1,
                base_c1_log=v.base_c1_log,
            )
        nodes = {}
        for e in g.edges:
            branches = []
            for idx, vid in enumerate(e.ends):
                label = None
                if e.image_labels is not None:
                    label = e.image_labels[idx]
                branches.append((vid, label))
            nodes[e.id] = RTNode(e.id, e.stratum, tuple(branches))
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
    q_values = [g0.q_value()]
    genus = [g0.total_genus()]
    ledgers = [g0.ledger()]

    g1, ghost_deltas = _step_collapse_ghosts(g0.clone())
    g2, cover_deltas = _step_replace_covers(g1)
    g3 = _step_contract_equal_image_trees(g2)
    q_values.append(g3.q_value())
    genus.append(g3.total_genus())
    ledgers.append(g3.ledger())

    g4 = _step_identify_equal_images(g3.clone())
    q_values.append(g4.q_value())
    genus.append(g4.total_genus())
    ledgers.append(g4.ledger())

    red = {}
    mult = {}
    for v in g4.vertices.values():
        if v.kind != PRINCIPAL:
            mult[v.id] = v.multiplicity
            for origin in v.origins:
                red[origin] = v.id
    return ReductionTrace(
        stages=(("gamma", g0), ("gamma_prime", g3), ("gamma_double_prime", g4)),
        q_values=tuple(q_values),
        ghost_deltas=tuple(ghost_deltas),
        cover_deltas=tuple(cover_deltas),
        red=red,
        multiplicities=mult,
        genus_by_stage=tuple(genus),
        ledgers=tuple(ledgers),
    )


def _step_collapse_ghosts(g: RTGraph):
    deltas = []
    while True:
        ghosts = {vid for vid, v in g.vertices.items() if v.kind == GHOST}
        if not ghosts:
            break
        # one connected ghost cluster at a time
        seed = sorted(ghosts)[0]
        cluster = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for node in g.nodes.values():
                ids = [b[0] for b in node.branches]
                if cur in ids:
                    for other in ids:
                        if other in ghosts and other not in cluster:
                            cluster.add(other)
                            frontier.append(other)
        internal = [nid for nid, node in g.nodes.items()
                    if all(b[0] in cluster for b in node.branches)]
        external = [nid for nid, node in g.nodes.items()
                    if nid not in internal and any(b[0] in cluster for b in node.branches)]
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
        deltas.append((tuple(sorted(cluster)), delta))
        for lid in marks:
            del g.legs[lid]
        for nid in internal:
            del g.nodes[nid]
        branches = []
        for nid in sorted(external):
            node = g.nodes[nid]
            for b in node.branches:
                if b[0] not in cluster:
                    branches.append(b)
            del g.nodes[nid]
        for vid in cluster:
            del g.vertices[vid]
        if len(branches) >= 2:
            new_id = "m_" + seed
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
        if v.base_c1_log is None:
            raise InputError(f"cover bubble {vid!r} lacks base pairings")
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
        deltas.append((vid, (d - 1) * base + before - after))
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
    """Fuse special points on one component that share an image label."""
    pts = _special_points_of(g, vid)
    by_label: Dict[str, list] = {}
    for p in pts:
        label = p[3]
        if label is not None:
            by_label.setdefault(label, []).append(p)
    for label, group in sorted(by_label.items()):
        if len(group) < 2:
            continue
        kinds = {p[0] for p in group}
        if kinds == {"leg"}:
            keep = sorted(p[1] for p in group)[0]
            for _, lid, _, _ in group:
                if lid != keep:
                    del g.legs[lid]
        elif kinds == {"node"}:
            node_ids = sorted({p[1] for p in group})
            keep = node_ids[0]
            merged = []
            stratum = g.nodes[keep].stratum
            seen_self = False
            for nid in node_ids:
                node = g.nodes[nid]
                if node.stratum != stratum:
                    raise InputError(f"merging nodes with different strata at label {label!r}")
                for j, b in enumerate(node.branches):
                    if b[0] == vid and (nid, j) in {(p[1], p[2]) for p in group}:
                        if not seen_self:
                            merged.append(b)
                            seen_self = True
                        continue
                    merged.append(b)
                if nid != keep:
                    del g.nodes[nid]
            g.nodes[keep] = RTNode(keep, stratum, tuple(merged))
        else:
            raise InputError(
                f"image label {label!r} identifies a marked point with a node; unsupported"
            )


def _step_contract_equal_image_trees(g: RTGraph) -> RTGraph:
    changed = True
    while changed:
        changed = False
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
            _merge_labelled_points(g, a)
            changed = True
            break
    return g


def _fuse_vertices(g: RTGraph, keep: str, drop: str, drop_node: Optional[str] = None):
    vk, vd = g.vertices[keep], g.vertices[drop]
    if vk.stratum != vd.stratum:
        raise InputError("cannot identify components with different strata")
    vk.multiplicity += vd.multiplicity
    vk.origins = tuple(sorted(set(vk.origins) | set(vd.origins)))
    if drop_node is not None:
        del g.nodes[drop_node]
    for nid in list(g.nodes):
        node = g.nodes[nid]
        if any(b[0] == drop for b in node.branches):
            g.nodes[nid] = RTNode(
                node.id,
                node.stratum,
                tuple((keep if b[0] == drop else b[0], b[1]) for b in node.branches),
            )
    for leg in g.legs.values():
        if leg.vertex == drop:
            leg.vertex = keep
    del g.vertices[drop]


def _step_identify_equal_images(g: RTGraph) -> RTGraph:
    # components first
    changed = True
    while changed:
        changed = False
        by_label: Dict[str, list] = {}
        for vid, v in g.vertices.items():
            if v.kind != PRINCIPAL and v.image_label is not None:
                by_label.setdefault(v.image_label, []).append(vid)
        for label, ids in sorted(by_label.items()):
            if len(ids) >= 2:
                ids = sorted(ids)
                _fuse_vertices(g, ids[0], ids[1])
                _merge_labelled_points(g, ids[0])
                changed = True
                break
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
        v = g.vertex(vid)
        if v.kind == PRINCIPAL:
            raise InputError(f"vertex {vid!r} is not a bubble")

    external_nodes = 0
    internal_edges = []
    for e in g.edges:
        inside = [vid in cluster for vid in e.ends]
        if all(inside):
            internal_edges.append(e)
        elif any(inside):
            external_nodes += sum(1 for x in inside if x)
    marks = [l for l in g.legs if l.vertex in cluster]
    external_marks = len(marks)

    delta_plus = {}
    for vid in sorted(cluster):
        count = 0
        for e, idx in g.edges_at(vid):
            c = e.end_contact(idx)
            if c is not None and any(x > 0 for x in c):
                count += 1
        for l in g.legs_at(vid):
            if any(x > 0 for x in l.contact):
                count += 1
        delta_plus[vid] = count

    total_external = external_nodes + external_marks
    if external_nodes == 0 or total_external > 2:
        ctype = "not-a-cluster"
    elif external_nodes == 1 and external_marks == 0:
        ctype = "i"
    elif external_nodes == 1 and external_marks == 1:
        ctype = "ii"
    elif external_nodes == 2 and external_marks == 0:
        ctype = "iii"
    else:
        ctype = "not-a-cluster"

    chain = []
    if ctype != "not-a-cluster":
        for e in internal_edges:
            for idx in (0, 1):
                c = e.end_contact(idx)
                if c is None or not any(x > 0 for x in c):
                    continue
                # positive point on ends[idx] pointing into the sub-cluster
                # hanging off ends[1-idx]
                sub = _subcluster(g, cluster, e, 1 - idx)
                if sub is None:
                    continue
                submarks = any(l.vertex in sub for l in g.legs)
                subext = any(
                    (vid2 not in cluster)
                    for e2 in g.edges
                    for vid2 in e2.ends
                    if any(x in sub for x in e2.ends) and vid2 not in sub
                )
                if not submarks and not subext:
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
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for e, idx in g.edges_at(cur):
            if e.id == cut_edge.id:
                continue
            for other in e.ends:
                if other in cluster and other not in seen:
                    seen.add(other)
                    stack.append(other)
    if cut_edge.ends[1 - side] in seen:
        return None
    return seen
