"""The lattice map from edge scalings and vertex slopes to per-node orders.

Builds the integer matrix whose columns are indexed by one scaling parameter
per edge plus one slope vector per vertex stratum, and whose rows are indexed
by the per-node order lattices; kernel and cokernel data (the character
lattice of the obstruction torus) come from Hermite/Smith normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg as il
from .errors import InputError, StructuralError
from .graphs import DecoratedDualGraph, require_valid


@dataclass(frozen=True)
class CharacterBasis:
    """Rows spanning the integer functionals annihilating the map's image.

    Rows are in Hermite normal form; the lattice is saturated, so the
    obstruction torus is a genuine (C*)^rank with no torsion part.
    """

    rows: tuple
    t_index: tuple

    @property
    def rank(self) -> int:
        return len(self.rows)


class LatticeMap:
    """Integer matrix with cached normal-form data and index labels."""

    def __init__(self, matrix, domain_index, codomain_index, graph=None):
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        self.domain_index = tuple(domain_index)
        self.codomain_index = tuple(codomain_index)
        self.graph = graph
        self._rank = None
        self._kernel = None
        self._left_kernel = None
        self._invariant_factors = None

    @property
    def n_rows(self) -> int:
        return len(self.codomain_index)

    @property
    def n_cols(self) -> int:
        return len(self.domain_index)

    def _as_lists(self):
        return [list(row) for row in self.matrix]

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = il.rank(self._as_lists()) if self.n_rows and self.n_cols else 0
        return self._rank

    @property
    def kernel_rank(self) -> int:
        return self.n_cols - self.rank

    @property
    def cokernel_rank(self) -> int:
        return self.n_rows - self.rank

    def kernel_basis(self):
        """HNF-canonical integer basis of {x : M x = 0}, rows in D-coords."""
        if self._kernel is None:
            if self.n_cols == 0:
                self._kernel = ()
            elif self.n_rows == 0:
                self._kernel = tuple(tuple(row) for row in il.identity(self.n_cols))
            else:
                self._kernel = tuple(tuple(r) for r in il.kernel(self._as_lists()))
        return self._kernel

    def character_basis(self) -> CharacterBasis:
        """Saturated basis of {chi : chi o rho = 0} as rows on T-coords."""
        if self._left_kernel is None:
            if self.n_rows == 0:
                self._left_kernel = ()
            elif self.n_cols == 0:
                self._left_kernel = tuple(tuple(row) for row in il.identity(self.n_rows))
            else:
                self._left_kernel = tuple(tuple(r) for r in il.left_kernel(self._as_lists()))
        return CharacterBasis(self._left_kernel, self.codomain_index)

    def invariant_factors(self):
        if self._invariant_factors is None:
            if not self.n_rows or not self.n_cols:
                self._invariant_factors = ()
            else:
                self._invariant_factors = tuple(il.smith_normal_form(self._as_lists()))
        return self._invariant_factors


def _domain_index(graph: DecoratedDualGraph):
    idx = [("edge", e.id) for e in graph.edges if not e.is_multinode]
    for e in graph.edges:
        if e.is_multinode:
            idx.extend(("branch", e.id, j) for j in range(len(e.ends)))
    for v in graph.vertices:
        idx.extend(("vertex", v.id, i) for i in sorted(v.stratum))
    return idx


def node_index(graph: DecoratedDualGraph) -> tuple:
    """Coordinates that character rows act on: (edge id, i) for an ordinary
    node and (edge id, branch, i) for a multi-node, ordered by edge id, then
    branch, then stratum coordinate."""
    index = []
    for e in graph.edges:
        if e.is_multinode:
            index.extend((e.id, j, i) for j in range(len(e.ends)) for i in sorted(e.stratum))
        else:
            index.extend((e.id, i) for i in sorted(e.stratum))
    return tuple(index)


def build_rho(graph: DecoratedDualGraph) -> LatticeMap:
    """The map from (edge scalings, vertex slopes) to per-node order vectors.

    The column of an edge scaling carries that edge's contact vector; the
    column of a vertex slope coordinate carries +1 into the blocks of edges
    leaving the vertex and -1 into those arriving, and 0 on loops.

    A multi-node block is the sum of its branch lattices modulo the diagonal
    copy of the node's stratum, realized by the splitting x_j - x_last; each
    branch keeps its own scaling parameter (it was a full edge before
    collapsing), so collapse preserves kernel and cokernel ranks.  A 2-branch
    multi-node therefore carries one more scaling than the ordinary-edge
    encoding of the same node; the cokernel and character lattice agree
    between the two encodings, the kernel differs by the pure gauge along the
    duplicated scaling.

    The graph is immutable, so the map is built once and kept on it: every
    later call returns the same map with its cached normal forms.
    """
    if graph._lattice_map is not None:
        return graph._lattice_map
    require_valid(graph, multinode_allowed=True)
    for e in graph.edges:
        if e.is_multinode:
            if e.contacts is None:
                raise InputError(f"multi-node {e.id!r} lacks branch contact vectors")
            for vid in e.ends:
                if not (e.stratum >= graph.vertex(vid).stratum):
                    raise StructuralError(
                        f"multi-node {e.id!r}: branch vertex stratum exceeds I_m"
                    )
        elif e.contact is None:
            raise InputError("all edges must carry contact vectors")

    t_index = []
    for e in graph.edges:
        if e.is_multinode:
            # difference coordinates against the last branch
            t_index.extend(
                ("diff", e.id, j, i)
                for j in range(len(e.ends) - 1)
                for i in sorted(e.stratum)
            )
        else:
            t_index.extend((e.id, i) for i in sorted(e.stratum))
    t_pos = {key: k for k, key in enumerate(t_index)}
    d_index = _domain_index(graph)

    matrix = [[0] * len(d_index) for _ in t_index]

    def add_branch(e, j, i, col, value):
        """Add into the quotient coordinates for branch j of multi-node e."""
        last = len(e.ends) - 1
        if j < last:
            matrix[t_pos[("diff", e.id, j, i)]][col] += value
        else:
            for jj in range(last):
                matrix[t_pos[("diff", e.id, jj, i)]][col] -= value

    for col, key in enumerate(d_index):
        if key[0] == "edge":
            e = graph.edge(key[1])
            for i in sorted(e.stratum):
                matrix[t_pos[(e.id, i)]][col] = e.contact[i - 1]
        elif key[0] == "branch":
            _, eid, j = key
            e = graph.edge(eid)
            sgn = 1 if e.branch_into(j) else -1
            for i in sorted(e.stratum):
                add_branch(e, j, i, col, sgn * e.contacts[j][i - 1])
        else:
            _, vid, i = key
            for e, idx in graph.edges_at(vid):
                if i not in e.stratum:
                    continue
                if e.is_multinode:
                    add_branch(e, idx, i, col, 1 if e.branch_into(idx) else -1)
                elif e.ends[0] != e.ends[1]:  # loops contribute nothing
                    matrix[t_pos[(e.id, i)]][col] += 1 if idx == 0 else -1
    graph._lattice_map = LatticeMap(matrix, d_index, t_index, graph)
    return graph._lattice_map


build_rho_multinode = build_rho


def kernel_lattice(lmap: LatticeMap):
    return lmap.kernel_basis()


def cokernel_characters(lmap: LatticeMap) -> CharacterBasis:
    return lmap.character_basis()


def multinode_character_pullback(lmap: LatticeMap):
    """Characters of the map expressed on per-branch coordinates.

    Returns (rows, index) with index = node_index(graph); each row kills the
    diagonal of every multi-node, so it evaluates well-definedly on
    obstruction data.  This realizes the natural isomorphism of character
    lattices between a graph and its ghost collapse; on a graph without
    multi-nodes it returns the character basis unchanged.
    """
    graph = lmap.graph
    full_index = node_index(graph)
    pos = {key: k for k, key in enumerate(full_index)}
    rows = []
    for row in lmap.character_basis().rows:
        out = [0] * len(full_index)
        for coef, key in zip(row, lmap.codomain_index):
            if coef == 0:
                continue
            if key[0] == "diff":
                _, eid, j, i = key
                e = graph.edge(eid)
                out[pos[(eid, j, i)]] += coef
                out[pos[(eid, len(e.ends) - 1, i)]] -= coef
            else:
                out[pos[key]] += coef
        rows.append(tuple(out))
    return tuple(rows), full_index
