"""Decorated dual graphs: types, validation, and decoration solving.

Vertices carry genus, stratum, and pairing data; edges carry a stratum and a
contact vector for their reference orientation (the order of `ends`);
multi-node edges (more than two ends) appear only in reduced graphs and carry
one contact vector per branch.  All values are immutable after construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import InputError, SizeCapError, StructuralError

PRINCIPAL = "principal"
BUBBLE = "bubble"
GHOST = "ghost"
_KINDS = (PRINCIPAL, BUBBLE, GHOST)
_ENUMERATION_CAP = 100_000  # candidates one decoration enumeration may try


_INT = frozenset((int,))


def int_entries(entries, what, at="position {}") -> tuple:
    """entries as a tuple of ints; an entry of any other type raises a
    StructuralError naming `what` and the entry's place: `at` formatted
    with its index, or its name when `at` is a tuple of names.  entries
    that are not iterable raise one naming `what`."""
    try:
        entries = tuple(entries)
    except TypeError:
        raise StructuralError(f"{what} must be a sequence of integers, got {entries!r}") from None
    if not _INT.issuperset(map(type, entries)):
        i, x = next((i, x) for i, x in enumerate(entries) if type(x) is not int)
        place = at[i] if isinstance(at, tuple) else at.format(i)
        raise StructuralError(f"{what} entry {x!r} at {place} is not an integer")
    return entries


def int_rows(rows, what) -> tuple:
    """rows as tuples of ints, checked as `int_entries` checks one row; a
    scalar where the rows or a row belong raises a StructuralError naming
    `what`."""
    try:
        rows = tuple(map(tuple, rows))
    except TypeError:
        raise StructuralError(f"{what} must be a sequence of rows of integers, got {rows!r}") from None
    if not _INT.issuperset(map(type, itertools.chain.from_iterable(rows))):
        for r, row in enumerate(rows):
            int_entries(row, what, f"row {r}, column {{}}")
    return rows


@dataclass(frozen=True)
class Vertex:
    id: str
    genus: int = 0
    stratum: frozenset = frozenset()
    c1_log: int = 0
    degrees: tuple = ()  # A_v . D_i for i in 1..N
    kind: str = PRINCIPAL
    image_label: Optional[str] = None
    cover_degree: Optional[int] = None
    base_degrees: Optional[tuple] = None
    base_c1_log: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "stratum", frozenset(self.stratum))
        cover, base = self.cover_degree, self.base_c1_log  # None when absent, checked as 0
        int_entries((self.genus, self.c1_log, 0 if cover is None else cover, 0 if base is None else base),
                    f"vertex {self.id!r}", ("genus", "c1_log", "cover_degree", "base_c1_log"))
        object.__setattr__(self, "degrees", int_entries(self.degrees, f"vertex {self.id!r} degrees"))
        if self.base_degrees is not None:
            object.__setattr__(self, "base_degrees",
                               int_entries(self.base_degrees, f"vertex {self.id!r} base_degrees"))


@dataclass(frozen=True)
class Edge:
    """A node of the domain curve.

    Regular edge: ends has length 2 and `contact` is s for ends[0] -> ends[1].
    Multi-node: ends has length > 2, `contacts` holds the order vector at each
    branch point, and `into` flags whether the branch's reference orientation
    points into the node (collapse bookkeeping; defaults to all True).
    """

    id: str
    ends: tuple
    stratum: frozenset = frozenset()
    contact: Optional[tuple] = None
    contacts: Optional[tuple] = None
    into: Optional[tuple] = None
    image_labels: Optional[tuple] = None  # per-end image labels for the RT-process

    def __post_init__(self):
        object.__setattr__(self, "ends", tuple(self.ends))
        object.__setattr__(self, "stratum", frozenset(self.stratum))
        if self.contact is not None:
            object.__setattr__(self, "contact", int_entries(self.contact, f"edge {self.id!r} contact"))
        if self.contacts is not None:
            object.__setattr__(self, "contacts", int_rows(self.contacts, f"edge {self.id!r} contacts"))
        if self.into is not None:
            object.__setattr__(self, "into", tuple(bool(b) for b in self.into))
        if self.image_labels is not None:
            object.__setattr__(self, "image_labels", tuple(self.image_labels))

    @property
    def is_multinode(self) -> bool:
        # two-ended edges with per-branch contacts arise from collapsing a
        # ghost that carried marked points; they are multi-nodes too
        return len(self.ends) > 2 or (self.contacts is not None and self.contact is None)

    def end_contact(self, idx: int) -> Optional[tuple]:
        """Order vector at the idx-th branch point of this edge."""
        if self.is_multinode:
            return None if self.contacts is None else self.contacts[idx]
        if self.contact is None:
            return None
        return self.contact if idx == 0 else tuple(-x for x in self.contact)

    def branch_into(self, idx: int) -> bool:
        if self.into is None:
            return True
        return self.into[idx]


@dataclass(frozen=True)
class Leg:
    id: str
    vertex: str
    contact: tuple = ()
    position: Optional[str] = None  # P1 coordinate, consumed by sections
    image_label: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "contact", int_entries(self.contact, f"leg {self.id!r} contact"))


class DecoratedDualGraph:
    """Immutable decorated dual graph with cached adjacency."""

    def __init__(self, N: int, n: int, vertices, edges, legs):
        for field, value in (("N", N), ("n", n)):
            if type(value) is not int:
                raise StructuralError(f"graph {field} = {value!r} is not an integer")
        self.N, self.n = N, n
        self.vertices = tuple(sorted(vertices, key=lambda v: v.id))
        self.edges = tuple(sorted(edges, key=lambda e: e.id))
        self.legs = tuple(sorted(legs, key=lambda l: l.id))
        self._vmap = {v.id: v for v in self.vertices}
        self._adj = {v.id: [] for v in self.vertices}
        for e in self.edges:
            for idx, vid in enumerate(e.ends):
                if vid in self._adj:
                    self._adj[vid].append((e, idx))
        self._legs_at = {v.id: [] for v in self.vertices}
        for l in self.legs:
            if l.vertex in self._legs_at:
                self._legs_at[l.vertex].append(l)
        self._violations = None  # kept by validate_graph
        self._lattice_map = None  # kept by lattice.build_rho

    # -- accessors -----------------------------------------------------------

    def vertex(self, vid: str) -> Vertex:
        return self._vmap[vid]

    def has_vertex(self, vid: str) -> bool:
        return vid in self._vmap

    def edges_at(self, vid: str):
        return tuple(self._adj[vid])

    def legs_at(self, vid: str):
        return tuple(self._legs_at[vid])

    def edge(self, eid: str) -> Edge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise KeyError(eid)

    @property
    def has_multinode(self) -> bool:
        return any(e.is_multinode for e in self.edges)

    def first_betti(self) -> int:
        return first_betti_number((v.id for v in self.vertices), (e.ends for e in self.edges))

    def total_genus(self) -> int:
        return sum(v.genus for v in self.vertices) + self.first_betti()

    def k(self) -> int:
        return len(self.legs)

    def components(self):
        comps = _components([v.id for v in self.vertices], [e.ends for e in self.edges])
        return [frozenset(comp) for comp in comps]

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def balance(self, vid: str):
        """Sum of contact vectors over special points at a vertex, or None."""
        total = [0] * self.N
        for e, idx in self._adj[vid]:
            c = e.end_contact(idx)
            if c is None:
                return None
            for i in range(self.N):
                total[i] += c[i]
        for l in self._legs_at[vid]:
            for i in range(self.N):
                total[i] += l.contact[i]
        return tuple(total)

    def with_edges(self, edges):
        return DecoratedDualGraph(self.N, self.n, self.vertices, edges, self.legs)


def first_betti_number(vertex_ids, node_ends) -> int:
    """First Betti number of a graph whose nodes join the given vertices.

    Each node is the sequence of vertex ids at its branches; a node with b
    branches contributes b - 1 half-edge pairs, so multi-nodes count as
    trees of ordinary edges.  Ids that name no vertex join nothing; graph
    validation reports them.
    """
    ids = list(vertex_ids)
    node_ends = list(node_ends)
    half_pairs = sum(len(ends) - 1 for ends in node_ends)
    return half_pairs - len(ids) + len(_components(ids, node_ends))


def _components(vertex_ids, node_ends):
    """Connected components of the vertices joined by the given nodes.

    Components come in the order of their first vertex, each listing its
    members in the order of vertex_ids.  Ids that name no vertex join
    nothing.
    """
    parent = {vid: vid for vid in vertex_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ends in node_ends:
        known = [vid for vid in ends if vid in parent]
        for other in known[1:]:
            parent[find(other)] = find(known[0])
    comps = {}
    for vid in vertex_ids:
        comps.setdefault(find(vid), []).append(vid)
    return list(comps.values())


@dataclass(frozen=True)
class Violation:
    code: str
    element: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.element}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def valid(self) -> bool:
        return not self.violations

    def codes(self):
        return sorted({v.code for v in self.violations})


def _structural_check(graph: DecoratedDualGraph):
    if not graph.vertices:
        raise StructuralError("graph has no vertices")
    if graph.N < 0:
        raise StructuralError("N must be non-negative")
    seen = set()
    for v in graph.vertices:
        if v.id in seen:
            raise StructuralError(f"duplicate vertex id {v.id!r}")
        seen.add(v.id)
        if len(v.degrees) != graph.N:
            raise StructuralError(f"vertex {v.id!r}: degrees length != N")
        if any(i < 1 or i > graph.N for i in v.stratum):
            raise StructuralError(f"vertex {v.id!r}: stratum outside [1..N]")
        if v.kind not in _KINDS:
            raise StructuralError(f"vertex {v.id!r}: unknown kind {v.kind!r}")
    ids = set()
    for e in graph.edges:
        if e.id in ids:
            raise StructuralError(f"duplicate edge id {e.id!r}")
        ids.add(e.id)
        if len(e.ends) < 2:
            raise StructuralError(f"edge {e.id!r}: needs at least two ends")
        for vid in e.ends:
            if not graph.has_vertex(vid):
                raise StructuralError(f"edge {e.id!r}: dangling vertex id {vid!r}")
        if any(i < 1 or i > graph.N for i in e.stratum):
            raise StructuralError(f"edge {e.id!r}: stratum outside [1..N]")
        if e.contact is not None and len(e.contact) != graph.N:
            raise StructuralError(f"edge {e.id!r}: contact vector length != N")
        if e.contacts is not None:
            if len(e.contacts) != len(e.ends):
                raise StructuralError(f"edge {e.id!r}: contacts/ends length mismatch")
            for c in e.contacts:
                if len(c) != graph.N:
                    raise StructuralError(f"edge {e.id!r}: contact vector length != N")
        if e.into is not None and len(e.into) != len(e.ends):
            raise StructuralError(f"edge {e.id!r}: into/ends length mismatch")
        if len(e.ends) > 2 and e.contact is not None:
            raise StructuralError(f"edge {e.id!r}: multi-node must use `contacts`")
    lids = set()
    for l in graph.legs:
        if l.id in lids:
            raise StructuralError(f"duplicate leg id {l.id!r}")
        lids.add(l.id)
        if not graph.has_vertex(l.vertex):
            raise StructuralError(f"leg {l.id!r}: dangling vertex id {l.vertex!r}")
        if len(l.contact) != graph.N:
            raise StructuralError(f"leg {l.id!r}: contact vector length != N")


def validate_graph(graph: DecoratedDualGraph, multinode_allowed: bool = False) -> ValidationReport:
    """Check every graph invariant; structural problems raise instead.

    The returned report lists one Violation per failed invariant with the
    offending element id; an empty report means the graph is valid.  The
    graph is immutable, so the violations are found once and kept on it;
    multinode_allowed only drops the `multinode` ones.
    """
    violations = graph._violations
    if violations is None:
        violations = _violations(graph)
        graph._violations = violations
    if multinode_allowed:
        violations = tuple(v for v in violations if v.code != "multinode")
    return ValidationReport(violations)


def _violations(graph: DecoratedDualGraph) -> tuple:
    _structural_check(graph)
    bad = []

    if not graph.is_connected():
        bad.append(Violation("connected", "graph", "graph is not connected"))

    for v in graph.vertices:
        if v.kind == GHOST:
            if any(v.degrees) or v.c1_log != 0:
                bad.append(Violation("ghost-degree", v.id, "ghost vertex must have zero pairings"))
        if v.kind in (GHOST, BUBBLE) and v.genus != 0:
            bad.append(Violation("bubble-genus", v.id, "bubble/ghost vertex must have genus 0"))
        if v.cover_degree is not None and v.cover_degree < 1:
            bad.append(Violation("cover-degree", v.id, "cover degree must be positive"))

    for e in graph.edges:
        if e.is_multinode:
            bad.append(Violation("multinode", e.id, "multi-node edge not allowed here"))
            for idx, c in enumerate(e.contacts or ()):
                for i in range(1, graph.N + 1):
                    if i not in e.stratum and c[i - 1] != 0:
                        bad.append(Violation("edge-support", e.id, f"branch {idx}: entry {i} outside I_m"))
            continue
        u, w = (graph.vertex(e.ends[0]), graph.vertex(e.ends[1]))
        if e.stratum != (u.stratum | w.stratum):
            bad.append(Violation("edge-stratum", e.id, "I_e must equal the union of endpoint strata"))
        if e.contact is not None:
            bad.extend(Violation(code, e.id, msg)
                       for i, s in enumerate(e.contact, 1)
                       for code, msg in _entry_faults(graph, e, i, s))

    for l in graph.legs:
        v = graph.vertex(l.vertex)
        for i in range(1, graph.N + 1):
            if i not in v.stratum and l.contact[i - 1] < 0:
                bad.append(Violation("leg-sign", l.id, f"entry {i} must be non-negative outside I_v"))

    # balance only when every edge carries contact data
    decorated = all(
        (e.contact is not None or e.contacts is not None) for e in graph.edges
    )
    if decorated:
        for v in graph.vertices:
            total = graph.balance(v.id)
            if total is not None and total != v.degrees:
                bad.append(
                    Violation(
                        "balance",
                        v.id,
                        f"contact sum {total} != pairings {v.degrees}",
                    )
                )

    return tuple(sorted(bad, key=lambda x: (x.code, x.element, x.message)))


def _entry_faults(graph: DecoratedDualGraph, e: Edge, i: int, s: int):
    """(code, message) for each way entry i, of value s, of a contact vector
    on the ordinary edge e breaks the support or the sign rule: it vanishes
    outside I_e and is positive toward each end whose stratum lacks i.
    Each entry is judged on its own."""
    if i not in e.stratum:
        if s != 0:
            yield "edge-support", f"entry {i} must vanish outside I_e"
        return
    if i not in graph.vertex(e.ends[0]).stratum and s <= 0:
        yield "edge-sign", f"entry {i} must be positive toward end 0"
    if i not in graph.vertex(e.ends[1]).stratum and -s <= 0:
        yield "edge-sign", f"entry {i} must be positive toward end 1"


def require_valid(graph: DecoratedDualGraph, multinode_allowed: bool = False) -> None:
    """Raise InputError listing every violation unless the graph is valid."""
    report = validate_graph(graph, multinode_allowed=multinode_allowed)
    if not report.valid:
        raise InputError("graph fails validation: " + "; ".join(str(v) for v in report.violations))


# -- decoration solving ------------------------------------------------------


@dataclass(frozen=True)
class CoordinateSolution:
    """Edge flows for one divisor coordinate: particular + cycle lattice."""

    coordinate: int
    particular: dict
    cycle_basis: tuple  # each is {edge_id: int}
    solutions: Optional[tuple] = None  # enumerated within bound, if requested


@dataclass(frozen=True)
class DecorationSolution:
    status: str  # "unique" | "none" | "family"
    reason: str = ""
    coordinates: tuple = ()
    assignments: tuple = ()  # full {edge_id: contact tuple} dicts when finite

    @property
    def unique(self):
        return self.status == "unique"


def solve_decorations(graph: DecoratedDualGraph, bound: Optional[int] = None) -> DecorationSolution:
    """Solve for edge contact vectors balancing every vertex.

    Works per divisor coordinate on the subgraph of edges allowed to carry it.
    One breadth-first spanning forest per coordinate gives the particular
    solution, peeled from the leaves with every co-tree edge at flow 0, and
    one fundamental cycle per co-tree edge.  Trees give a unique solution;
    cycles give a family, enumerated within [-bound, bound] when a bound is
    supplied.  The edge sign rule filters each coordinate's flows.
    """
    if bound is not None and bound < 0:
        raise InputError(f"decoration bound must be non-negative, got bound = {bound}")
    _structural_check(graph)
    if any(e.is_multinode for e in graph.edges):
        raise InputError("solve_decorations requires a graph without multi-nodes")

    demands = {}
    for v in graph.vertices:
        leg_sum = [0] * graph.N
        for l in graph.legs_at(v.id):
            for i in range(graph.N):
                leg_sum[i] += l.contact[i]
        demands[v.id] = tuple(v.degrees[i] - leg_sum[i] for i in range(graph.N))

    coord_solutions = []
    for i in range(1, graph.N + 1):
        edges = [e for e in graph.edges if i in e.stratum]
        adj = {}
        for e in edges:
            adj.setdefault(e.ends[0], []).append(e)
            adj.setdefault(e.ends[1], []).append(e)
        # one BFS tree per component of the support subgraph, each rooted at
        # its first vertex, which is its least id since graph.vertices is
        # sorted by id; a component's net demand must vanish
        order = []
        depth = {}
        parent_edge = {}
        for root in graph.vertices:
            if root.id in depth:
                continue
            start = len(order)
            order.append(root.id)
            depth[root.id] = 0
            k = start
            while k < len(order):
                cur = order[k]
                k += 1
                for e in adj.get(cur, ()):
                    other = e.ends[1] if e.ends[0] == cur else e.ends[0]
                    if other not in depth:
                        depth[other] = depth[cur] + 1
                        parent_edge[other] = (e, cur)
                        order.append(other)
            s = sum(demands[vid][i - 1] for vid in order[start:])
            if s != 0:
                return DecorationSolution(
                    status="none",
                    reason=(
                        f"coordinate {i}: flow conservation fails on component "
                        f"{sorted(order[start:])} (net demand {s})"
                    ),
                )
        # peel leaves first: a tree edge carries the net demand of the
        # subtree below it, oriented ends[0] -> ends[1]
        particular = {e.id: 0 for e in edges}
        residual = {vid: d[i - 1] for vid, d in demands.items()}
        for vid in reversed(order):
            if vid in parent_edge:
                e, par = parent_edge[vid]
                particular[e.id] = residual[vid] if e.ends[0] == vid else -residual[vid]
                residual[par] += residual[vid]
        # one fundamental cycle per co-tree edge, oriented along it: walk the
        # deeper of its two ends up the tree until they meet
        tree = {e.id for e, _ in parent_edge.values()}
        basis = []
        for e in edges:
            if e.id in tree:
                continue
            cycle = {e.id: 1}
            up, down = e.ends[1], e.ends[0]
            descent = []
            while up != down:
                if depth[up] >= depth[down]:
                    pe, par = parent_edge[up]
                    cycle[pe.id] = 1 if pe.ends[0] == up else -1
                    up = par
                else:
                    pe, par = parent_edge[down]
                    descent.append((pe.id, 1 if pe.ends[0] == par else -1))
                    down = par
            cycle.update(reversed(descent))
            basis.append(cycle)
        sols = None if bound is None else tuple(_enumerate_flows(particular, basis, bound))
        coord_solutions.append(CoordinateSolution(i, particular, tuple(basis), sols))

    cycles = any(c.cycle_basis for c in coord_solutions)
    if cycles and bound is None:
        return DecorationSolution(status="family", coordinates=tuple(coord_solutions))
    # the sign rule judges each coordinate on its own, so filtering each
    # coordinate's flows before the product leaves no assignment to reject
    per_coord = [
        [flows for flows in (c.solutions if cycles else (c.particular,))
         if not any(fault for e in graph.edges
                    for fault in _entry_faults(graph, e, c.coordinate, flows.get(e.id, 0)))]
        for c in coord_solutions
    ]
    _check_enumeration(len(flows) for flows in per_coord)
    assignments = tuple(
        {e.id: tuple(flows.get(e.id, 0) for flows in pick) for e in graph.edges}
        for pick in itertools.product(*per_coord)
    )
    if cycles:
        status, reason = "family", ""
    elif assignments:
        status, reason = "unique", ""
    else:
        status, reason = "none", "unique flow solution violates edge sign constraints"
    return DecorationSolution(status, reason, tuple(coord_solutions), assignments)


def _enumerate_flows(particular, basis, bound):
    """Every flow particular + sum of t * cycle with all entries in
    [-bound, bound].  A cycle's co-tree edge lies on that cycle alone and
    carries flow 0 in particular, so t is its flow and ranges over
    [-bound, bound] too."""
    coefficients = range(-bound, bound + 1)
    _check_enumeration(len(coefficients) for _ in basis)
    for coeffs in itertools.product(coefficients, repeat=len(basis)):
        flow = dict(particular)
        for t, cycle in zip(coeffs, basis):
            for eid, mult in cycle.items():
                flow[eid] += t * mult
        if all(abs(v) <= bound for v in flow.values()):
            yield flow


def _check_enumeration(sizes):
    """Raise SizeCapError when the product of sizes passes _ENUMERATION_CAP."""
    if math.prod(sizes) > _ENUMERATION_CAP:
        raise SizeCapError(
            f"decoration enumeration capped at {_ENUMERATION_CAP} candidates; "
            "lower the bound"
        )
