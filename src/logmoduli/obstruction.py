"""Obstruction classes from leading coefficients at the nodes.

The raw datum of a graph with sections is the tuple of ratios eta_start /
eta_end over the nodes, one entry per node and stratum coordinate; its class
in the quotient torus is read off through integer characters.  Collapsing a
ghost bubble splits the class into a surviving-side factor and a
configuration factor; the paper's two displays use opposite inverses of the
configuration factor, so both are exposed (`ftofo_factor`, `lemma_factor`)
with ob = ob_bar * ftofo_factor = ob_bar * lemma_factor**-1 holding
identically.

A component's and a ghost's sections come from one builder over their special
points, one helper checks a leading coefficient's order against its contact
entry, and the collapse reverses the edges into the ghost in one rebuild
(`flip_edge` is its one-edge case).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from . import intlinalg as il
from .errors import InputError, MissingEtaError, StructuralError
from .graphs import GHOST, DecoratedDualGraph, Edge, Vertex, _components, require_valid
from .lattice import Characters, build_rho, multinode_character_pullback, node_index
from .qi import GaussianRational
from .sections import CurveData, RationalSection, build_section, leading_coefficient


@dataclass(frozen=True)
class ObstructionClass:
    raw: dict
    characters: Characters
    values: tuple

    @property
    def is_trivial(self) -> bool:
        return all(v.is_one() for v in self.values)

    def value_under(self, characters: Characters):
        return characters.evaluate(self.raw)


def flip_edge(graph: DecoratedDualGraph, data: Optional[CurveData], edge_id: str):
    """Reverse the reference orientation of a regular edge, remapping the
    analytic data keyed by end index.  Character values of the obstruction
    class are unchanged when raw tuple and characters are transported
    together; ranks never change."""
    return _flipped(graph, data, (edge_id,))


def _flipped(graph: DecoratedDualGraph, data: Optional[CurveData], edge_ids):
    """`flip_edge` on each of the regular edges edge_ids, in one rebuild."""
    flips = set(edge_ids)
    if any(graph.edge(eid).is_multinode for eid in flips):
        raise InputError("cannot flip a multi-node")
    g2 = graph.with_edges([
        Edge(e.id, (e.ends[1], e.ends[0]), e.stratum,
             contact=None if e.contact is None else tuple(-x for x in e.contact),
             image_labels=None if e.image_labels is None else (e.image_labels[1], e.image_labels[0]))
        if e.id in flips else e
        for e in graph.edges
    ])
    if data is None:
        return g2, None
    positions = {(eid, 1 - idx if eid in flips else idx): pos
                 for (eid, idx), pos in data.positions.items()}
    eta = {(eid, 1 - idx if eid in flips else idx, i): val
           for (eid, idx, i), val in data.eta.items()}
    return g2, CurveData(positions, dict(data.leg_positions),
                         {k: dict(v) for k, v in data.sections.items()}, eta)


def _eta_at_end(graph, data, edge, idx, i) -> GaussianRational:
    vid = edge.ends[idx]
    v = graph.vertex(vid)
    contact = edge.end_contact(idx)
    if i in v.stratum:
        secs = data.sections.get(vid) or {}
        sec = secs.get(i)
        if sec is None:
            sec = _synthesize_sections(graph, data, v).get(i)
        if sec is None:
            raise MissingEtaError(edge.id, idx, i)
        pos = data.positions.get((edge.id, idx))
        if pos is None:
            raise StructuralError(f"missing position for edge {edge.id!r} end {idx}")
        return _leading_eta(
            sec, pos, None if contact is None else contact[i - 1],
            lambda order: f"section order {order} at edge {edge.id!r} end {idx} does not match "
                          f"contact entry {contact[i - 1]} (coordinate {i})")
    val = data.eta.get((edge.id, idx, i))
    if val is None:
        raise MissingEtaError(edge.id, idx, i)
    if not isinstance(val, GaussianRational):
        val = GaussianRational(val)
    if val.is_zero():
        raise InputError(f"eta must be nonzero at edge {edge.id!r} end {idx} coordinate {i}")
    return val


def _synthesize_sections(graph, data, v) -> Dict[int, RationalSection]:
    """Sections for a stratum vertex from its special-point divisor.

    Valid for genus-zero components, where the divisor determines the section
    up to scale and character values do not see the scale.  Cached on the
    CurveData object it is given.
    """
    cached = data.sections.get(v.id)
    if cached:
        return cached
    points = []
    for e, idx in graph.edges_at(v.id):
        pos = data.positions.get((e.id, idx))
        contact = e.end_contact(idx)
        if pos is None or contact is None:
            raise StructuralError(
                f"cannot synthesize sections for {v.id!r}: missing data on edge {e.id!r}"
            )
        points.append((pos, contact))
    for l in graph.legs_at(v.id):
        pos = data.leg_positions.get(l.id)
        if pos is None:
            raise StructuralError(
                f"cannot synthesize sections for {v.id!r}: missing position for leg {l.id!r}"
            )
        points.append((pos, l.contact))
    out = data.sections[v.id] = _sections_through(points, v.stratum, v.degrees)
    return out


def _sections_through(points, stratum, degrees) -> Dict[int, RationalSection]:
    """For each coordinate i of the stratum, the section of O(degrees[i - 1])
    whose divisor is contact[i - 1] at each (position, contact) point."""
    return {i: build_section(degrees[i - 1], [(pos, contact[i - 1]) for pos, contact in points])
            for i in sorted(stratum)}


def _leading_eta(section, pos, order, mismatch) -> GaussianRational:
    """The leading coefficient of the section at pos, whose order there must
    be `order` unless that is None; mismatch(actual order) words the
    InputError otherwise."""
    actual, eta = leading_coefficient(section, pos)
    if order is not None and actual != order:
        raise InputError(mismatch(actual))
    return eta


def canonical_characters(graph: DecoratedDualGraph) -> Characters:
    rows, index = multinode_character_pullback(build_rho(graph))
    return Characters(rows, index)


def compute_ob(
    graph: DecoratedDualGraph,
    data: CurveData,
    characters: Optional[Characters] = None,
) -> ObstructionClass:
    """The node-ratio tuple and its character values.

    Raw entry for edge e, coordinate i is eta at ends[0] over eta at ends[1],
    computed in the local coordinate z - p (or 1/z at infinity with the
    bundle transition applied).  A multi-node block contributes the class of
    the branch leading coefficients modulo the diagonal, each branch raised
    to +1 or -1 per its recorded reference orientation so the collapse
    identity holds exactly; characters must kill each multi-node diagonal
    (the canonical ones do).  The caller's data is left untouched: sections
    synthesized on the way are cached in a copy local to the call.
    """
    require_valid(graph, multinode_allowed=True)
    data = replace(data, sections=dict(data.sections))
    raw = {}
    for e in graph.edges:
        if not e.is_multinode:
            for i in sorted(e.stratum):
                top = _eta_at_end(graph, data, e, 0, i)
                bot = _eta_at_end(graph, data, e, 1, i)
                raw[(e.id, i)] = top / bot
            continue
        for j in range(len(e.ends)):
            for i in sorted(e.stratum):
                eta = _eta_at_end(graph, data, e, j, i)
                raw[(e.id, j, i)] = eta if e.branch_into(j) else eta.inverse()
    chars = characters or canonical_characters(graph)
    _require_diagonal_killing(graph, chars)
    return ObstructionClass(raw, chars, chars.evaluate(raw))


compute_ob_multinode = compute_ob


def _require_diagonal_killing(graph, chars: Characters):
    multinodes = [e for e in graph.edges if e.is_multinode]
    diagonal = {(e.id, j, i): (e.id, i)
                for e in multinodes for j in range(len(e.ends)) for i in e.stratum}
    index = [(e.id, i) for e in multinodes for i in sorted(e.stratum)]
    sums = chars.transported(index, lambda key: ((1, diagonal[key]),) if key in diagonal else ())
    for k, (eid, _) in enumerate(index):
        if any(row[k] for row in sums.rows):
            raise InputError(f"character does not kill the diagonal of multi-node {eid!r}")


@dataclass(frozen=True)
class GhostConfig:
    """A ghost bubble's special points: branches of the would-be multi-node
    (position, order vector on the ghost side, orientation flag) plus legs."""

    N: int
    stratum: frozenset
    branches: tuple  # (position, ghost-side contact, into)
    legs: tuple = ()  # (position, contact)

    def __post_init__(self):
        object.__setattr__(self, "stratum", frozenset(self.stratum))


@dataclass(frozen=True)
class OV0Result:
    """Both inverses of the configuration factor of a ghost bubble."""

    ftofo_raw: dict  # multi-node entries g_j^{-eps_j}
    lemma_raw: dict  # entrywise inverse

    def ftofo_values(self, characters: Characters):
        return characters.evaluate(self.ftofo_raw)

    def lemma_values(self, characters: Characters):
        return characters.evaluate(self.lemma_raw)


def ghost_sections(config: GhostConfig) -> Dict[int, RationalSection]:
    points = [(b[0], b[1]) for b in config.branches] + list(config.legs)
    seen = set()
    for pos, _ in points:
        if pos in seen:
            raise InputError(f"ghost special points must be distinct; {pos} repeats")
        seen.add(pos)
    return _sections_through(points, config.stratum, (0,) * config.N)


def compute_o_v0(config: GhostConfig, node_id: str = "m") -> OV0Result:
    """Configuration factor of a ghost bubble, in both conventions.

    Builds the degree-zero sections from the special points, reads leading
    coefficients at the branch points, and forms the multi-node class; ftofo
    entries are g^{-eps}, lemma entries their inverses, giving
    ob = ob_bar * ftofo = ob_bar * lemma**-1.
    """
    secs = ghost_sections(config)
    ftofo = {}
    lemma = {}
    for j, (pos, contact, into) in enumerate(config.branches):
        for i in sorted(config.stratum):
            eta = _leading_eta(secs[i], pos, contact[i - 1], lambda order: (
                f"ghost section order {order} != prescribed {contact[i - 1]} at branch {j}"))
            val = eta.inverse() if into else eta
            ftofo[(node_id, j, i)] = val
            lemma[(node_id, j, i)] = val.inverse()
    return OV0Result(ftofo, lemma)


def _is_ghostlike(v: Vertex) -> bool:
    return v.genus == 0 and not any(v.degrees) and v.c1_log == 0 and v.kind != "principal"


def collapse_ghost(graph: DecoratedDualGraph, data: CurveData, ghost_id: str, node_id: str = "m"):
    """Collapse one ghost vertex into a multi-node.

    Edges at the ghost are first normalized to point out of it, so every
    branch records into=False (eps = -1).  Returns (collapsed graph,
    collapsed data, GhostConfig, normalized full graph, normalized data).
    """
    v0 = graph.vertex(ghost_id)
    if not _is_ghostlike(v0):
        raise InputError(f"vertex {ghost_id!r} is not a ghost")
    for e, idx in graph.edges_at(ghost_id):
        if e.is_multinode:
            raise InputError("cannot collapse a ghost attached to a multi-node")
        if e.ends[1 - idx] == ghost_id:
            raise InputError("cannot collapse a ghost with a loop")
        if e.stratum != v0.stratum:
            raise InputError(
                f"edge {e.id!r} stratum differs from the ghost stratum; collapse undefined"
            )
    into = [e.id for e, idx in graph.edges_at(ghost_id) if idx == 1]
    if into:
        graph, data = _flipped(graph, data, into)

    branch_edges = sorted((e for e, _ in graph.edges_at(ghost_id)), key=lambda e: e.id)
    if len(branch_edges) < 2:
        raise InputError("ghost collapse needs at least two branches")

    branches = []
    new_ends = []
    contacts = []
    positions = {}
    eta = {}
    for j, e in enumerate(branch_edges):
        pos = data.positions.get((e.id, 0))
        if pos is None:
            raise StructuralError(f"missing ghost-side position on edge {e.id!r}")
        branches.append((pos, e.end_contact(0), False))
        new_ends.append(e.ends[1])
        contacts.append(e.end_contact(1))
        spos = data.positions.get((e.id, 1))
        if spos is not None:
            positions[(node_id, j)] = spos
        for i in range(1, graph.N + 1):
            if (e.id, 1, i) in data.eta:
                eta[(node_id, j, i)] = data.eta[(e.id, 1, i)]

    legs = tuple((data.leg_positions[l.id], l.contact)
                 for l in graph.legs_at(ghost_id) if l.id in data.leg_positions)
    config = GhostConfig(graph.N, v0.stratum, tuple(branches), legs)

    removed = {e.id for e in branch_edges}
    multinode = Edge(node_id, tuple(new_ends), stratum=v0.stratum, contacts=tuple(contacts),
                     into=(False,) * len(new_ends))
    new_edges = [e for e in graph.edges if e.id not in removed] + [multinode]
    new_vertices = [v for v in graph.vertices if v.id != ghost_id]
    new_legs = [l for l in graph.legs if l.vertex != ghost_id]
    collapsed = DecoratedDualGraph(graph.N, graph.n, new_vertices, new_edges, new_legs)

    new_positions = {k: v for k, v in data.positions.items() if k[0] not in removed}
    new_positions.update(positions)
    new_eta = {k: v for k, v in data.eta.items() if k[0] not in removed}
    new_eta.update(eta)
    new_data = CurveData(
        positions=new_positions,
        leg_positions={l.id: data.leg_positions[l.id]
                       for l in new_legs if l.id in data.leg_positions},
        sections={vid: dict(secs) for vid, secs in data.sections.items() if vid != ghost_id},
        eta=new_eta,
    )
    return collapsed, new_data, config, graph, data


@dataclass(frozen=True)
class RelationReport:
    holds: bool
    ob_values: tuple
    ob_bar_values: tuple
    ftofo_values: tuple
    lemma_values: tuple


def relation_check(
    graph: DecoratedDualGraph,
    data: CurveData,
    ghost_id: str,
    characters: Optional[Characters] = None,
) -> RelationReport:
    """Verify ob_bar * o_lemma^{-1} = ob (= ob_bar * o_ftofo) exactly.

    Characters live on the collapsed graph and are pulled back through the
    branch blocks; the full-graph value and the factored value are computed
    along independent code paths.
    """
    collapsed, cdata, config, norm_graph, norm_data = collapse_ghost(graph, data, ghost_id)
    chars_bar = characters or canonical_characters(collapsed)
    ob_bar = compute_ob(collapsed, cdata, chars_bar)
    o = compute_o_v0(config, node_id="m")
    ftofo_vals = o.ftofo_values(chars_bar)
    lemma_vals = o.lemma_values(chars_bar)

    pulled = _pullback_characters_to_full(norm_graph, ghost_id, "m", chars_bar)
    ob = compute_ob(norm_graph, norm_data, pulled)

    expected = tuple(b * f for b, f in zip(ob_bar.values, ftofo_vals))
    alt = tuple(b / l for b, l in zip(ob_bar.values, lemma_vals))
    holds = expected == ob.values and alt == ob.values
    return RelationReport(holds, ob.values, ob_bar.values, ftofo_vals, lemma_vals)


def _pullback_characters_to_full(graph, ghost_id, node_id, chars_bar: Characters) -> Characters:
    """Rewrite multi-node branch coordinates as the original edge coordinates.

    The raw edge entry (eta_ghost/eta_surv here) is exactly the product of
    the corresponding ob_bar entry and ftofo entry, so exponents carry over
    unchanged; with edges normalized out of the ghost the result annihilates
    the full lattice map, hence is a genuine character.
    """
    branch_edges = sorted((e for e, _ in graph.edges_at(ghost_id)), key=lambda e: e.id)
    edge_of = {(node_id, j, i): (e.id, i) for j, e in enumerate(branch_edges) for i in e.stratum}
    return chars_bar.transported(node_index(graph), lambda key: ((1, edge_of.get(key, key)),))


@dataclass(frozen=True)
class CollapseHomomorphism:
    collapsed: DecoratedDualGraph
    ghost_vertex: str
    character_map: tuple  # expanded-graph characters restricted to surviving nodes
    surjective: bool
    rank_drop: int


def collapse_homomorphism(graph: DecoratedDualGraph, tree_ids) -> CollapseHomomorphism:
    """Collapse a tree of ghost vertices into a single ghost vertex.

    Returns the collapsed graph, the induced monomial map on characters (the
    expanded graph's canonical characters restricted to the surviving node
    coordinates), and whether the torus homomorphism is surjective.
    """
    tree = set(tree_ids)
    if not tree:
        raise InputError("empty ghost tree")
    common = None
    for vid in tree:
        v = graph.vertex(vid)
        if not _is_ghostlike(v):
            raise InputError(f"vertex {vid!r} is not a ghost")
        if common is None:
            common = v.stratum
        elif v.stratum != common:
            raise InputError("ghost tree must have a common stratum")
    internal = [e for e in graph.edges if set(e.ends) <= tree]
    if len(_components(sorted(tree), (e.ends for e in internal))) != 1:
        raise InputError("ghost tree is not connected")
    if len(internal) != len(tree) - 1:
        raise InputError("ghost sub-graph is not a tree")

    new_id = "v0"
    while graph.has_vertex(new_id) and new_id not in tree:
        new_id += "_"
    v0 = Vertex(new_id, genus=0, stratum=common, degrees=(0,) * graph.N, kind=GHOST)
    internal_ids = {x.id for x in internal}
    new_vertices = [v for v in graph.vertices if v.id not in tree] + [v0]
    new_edges = [replace(e, ends=tuple(new_id if vid in tree else vid for vid in e.ends))
                 for e in graph.edges if e.id not in internal_ids]
    new_legs = [replace(l, vertex=new_id) if l.vertex in tree else l for l in graph.legs]
    collapsed = DecoratedDualGraph(graph.N, graph.n, new_vertices, new_edges, new_legs)

    require_valid(graph)
    rho_exp = build_rho(graph)
    rho_col = build_rho(collapsed)
    exp_chars = rho_exp.character_basis()
    # the surviving nodes are the collapsed graph's nodes, in the same order
    survivors = set(rho_col.codomain_index)
    restricted = exp_chars.transported(
        rho_col.codomain_index, lambda key: ((1, key),) if key in survivors else ()
    ).rows
    rk = il.rank([list(r) for r in restricted])
    rank_drop = rho_col.cokernel_rank - rho_exp.cokernel_rank
    surjective = rk == exp_chars.rank and rank_drop >= 0
    return CollapseHomomorphism(collapsed, new_id, restricted, surjective, rank_drop)
