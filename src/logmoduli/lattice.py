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
from .graphs import DecoratedDualGraph, int_rows, require_valid
from .qi import QI_ONE


@dataclass(frozen=True)
class Characters:
    """Integer character rows over a labelled coordinate index.

    The character basis of a lattice map has its rows in Hermite normal form
    on the map's codomain coordinates; the lattice is saturated, so the
    obstruction torus is a genuine (C*)^rank with no torsion part.
    """

    rows: tuple
    index: tuple

    def __post_init__(self):
        rows, index = int_rows(self.rows, "character"), tuple(self.index)
        for row in rows:
            if len(row) != len(index):
                raise StructuralError(
                    f"character row length {len(row)} != node coordinate count {len(index)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "index", index)

    @property
    def t_index(self) -> tuple:
        """`index`, under the name the character basis first had."""
        return self.index

    @property
    def rank(self) -> int:
        return len(self.rows)

    def evaluate(self, raw: dict):
        values = []
        for row in self.rows:
            acc = QI_ONE
            for key, coef in zip(self.index, row):
                if coef == 0:
                    continue
                if key not in raw:
                    raise StructuralError(f"character references missing coordinate {key}")
                acc = acc * raw[key] ** coef
            values.append(acc)
        return tuple(values)

    def transported(self, index, image) -> Characters:
        """The same characters on the coordinates `index`.

        image(k) is a sequence of (sign, key) pairs with each key in
        `index`: a row's entry at coordinate k is added, times sign, at each
        of those keys, and an empty image drops coordinate k.
        """
        pos = {key: k for k, key in enumerate(index)}
        rows = []
        for row in self.rows:
            out = [0] * len(pos)
            for key, coef in zip(self.index, row):
                if coef:
                    for sign, target in image(key):
                        out[pos[target]] += sign * coef
            rows.append(out)
        return Characters(rows, index)


# the name under which the lattice layer first exported its character basis
CharacterBasis = Characters


class LatticeMap:
    """Integer matrix with cached normal-form data and index labels.

    M is kept as sparse rows, one dict from column to nonzero int per
    codomain coordinate; every normal form reads them, and the dense
    `matrix` is built only on its first read.
    """

    def __init__(self, matrix, domain_index, codomain_index, graph=None):
        domain_index, codomain_index = tuple(domain_index), tuple(codomain_index)
        dense = int_rows(matrix, "matrix")
        if len(dense) != len(codomain_index) or any(len(row) != len(domain_index)
                                                     for row in dense):
            widths = "/".join(map(str, sorted({len(row) for row in dense}))) or "0"
            raise StructuralError(
                f"a matrix of {len(dense)} rows of width {widths} does not fit "
                f"{len(codomain_index)} codomain x {len(domain_index)} domain coordinates")
        self._init([{j: x for j, x in enumerate(row) if x} for row in dense],
                   domain_index, codomain_index, graph)

    @classmethod
    def _of_rows(cls, rows, domain_index, codomain_index, graph):
        """The map of sparse rows that already fit the two indices, kept as
        they are."""
        lmap = cls.__new__(cls)
        lmap._init(rows, tuple(domain_index), tuple(codomain_index), graph)
        return lmap

    def _init(self, rows, domain_index, codomain_index, graph):
        self._sparse_rows = rows
        self.domain_index = domain_index
        self.codomain_index = codomain_index
        self.graph = graph
        self._matrix = None
        self._echelon = None
        self._kernel = None
        self._characters = None
        self._invariant_factors = None

    @property
    def matrix(self) -> tuple:
        """M as a tuple of dense int rows, built on its first read."""
        if self._matrix is None:
            self._matrix = tuple(tuple(il._dense(row, self.n_cols)) for row in self._sparse_rows)
        return self._matrix

    @property
    def n_rows(self) -> int:
        return len(self.codomain_index)

    @property
    def n_cols(self) -> int:
        return len(self.domain_index)

    def _rows(self):
        """The map's one row echelon form: the nonzero sparse rows of an
        echelon form of M with its column order reversed.  The rank, the
        kernel and the invariant factors all read it, and none changes it."""
        if self._echelon is None:
            last = self.n_cols - 1
            reversed_rows = [{last - j: x for j, x in row.items()} for row in self._sparse_rows]
            self._echelon = il._echelon(reversed_rows, self.n_cols)
        return self._echelon

    @property
    def rank(self) -> int:
        return len(self._rows())

    @property
    def kernel_rank(self) -> int:
        return self.n_cols - self.rank

    @property
    def cokernel_rank(self) -> int:
        return self.n_rows - self.rank

    def kernel_basis(self):
        """HNF-canonical integer basis of {x : M x = 0}, rows in D-coords."""
        if self._kernel is None:
            kernel = il._null_space(self._rows(), self.n_cols)
            self._kernel = tuple(tuple(r) for r in kernel)
        return self._kernel

    def character_basis(self) -> Characters:
        """Saturated basis of {chi : chi o rho = 0} as rows on T-coords."""
        if self._characters is None:
            self._characters = Characters(il._left_null_space(self._sparse_rows, self.n_cols),
                                          self.codomain_index)
        return self._characters

    def invariant_factors(self):
        if self._invariant_factors is None:
            self._invariant_factors = tuple(il._smith(self._rows()))
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

    The row (e, i) of an ordinary node is contact_i times the scaling of e,
    plus the slope of ends[0], minus the slope of ends[1]; on a loop the
    slopes cancel.  The signed order of branch j of a multi-node is
    contact_j,i times the branch scaling plus the slope of its vertex, taken
    with + when the branch runs into the node and - otherwise.

    A multi-node block is the sum of its branch lattices modulo the diagonal
    copy of the node's stratum, realized by the splitting x_j - x_last: its
    row ("diff", e, j, i) is the signed order of branch j minus that of the
    last branch.  Each branch keeps its own scaling parameter (it was a full
    edge before collapsing), so collapse preserves kernel and cokernel ranks.
    A 2-branch multi-node therefore carries one more scaling than the
    ordinary-edge encoding of the same node; the cokernel and character
    lattice agree between the two encodings, the kernel differs by the pure
    gauge along the duplicated scaling.

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

    d_index = _domain_index(graph)
    col = {key: k for k, key in enumerate(d_index)}

    def row_of(terms):
        """The sparse row of the (column key, value) terms; a vertex lacking
        the coordinate has no slope column, and its term reads 0."""
        row = {}
        for key, value in terms:
            j = col.get(key)
            if j is not None:
                row[j] = row.get(j, 0) + value
        return {j: x for j, x in row.items() if x}

    def signed_order(e, j, i, sign):
        s = sign if e.branch_into(j) else -sign
        return [(("branch", e.id, j), s * e.contacts[j][i - 1]), (("vertex", e.ends[j], i), s)]

    t_index, rows = [], []
    for e in graph.edges:
        if e.is_multinode:
            last = len(e.ends) - 1
            for j in range(last):
                for i in sorted(e.stratum):
                    t_index.append(("diff", e.id, j, i))
                    rows.append(row_of(signed_order(e, j, i, 1) + signed_order(e, last, i, -1)))
        else:
            for i in sorted(e.stratum):
                t_index.append((e.id, i))
                rows.append(row_of([(("edge", e.id), e.contact[i - 1]),
                                    (("vertex", e.ends[0], i), 1),
                                    (("vertex", e.ends[1], i), -1)]))
    graph._lattice_map = LatticeMap._of_rows(rows, d_index, t_index, graph)
    return graph._lattice_map


build_rho_multinode = build_rho


def kernel_lattice(lmap: LatticeMap):
    return lmap.kernel_basis()


def cokernel_characters(lmap: LatticeMap) -> Characters:
    return lmap.character_basis()


def multinode_character_pullback(lmap: LatticeMap):
    """Characters of the map expressed on per-branch coordinates.

    Returns (rows, index) with index = node_index(graph); each row kills the
    diagonal of every multi-node, so it evaluates well-definedly on
    obstruction data.  This realizes the natural isomorphism of character
    lattices between a graph and its ghost collapse; on a graph without
    multi-nodes it returns the character basis unchanged.
    """
    last = {e.id: len(e.ends) - 1 for e in lmap.graph.edges if e.is_multinode}

    def image(key):
        if len(key) == 4:  # ("diff", edge id, branch, i)
            _, eid, j, i = key
            return ((1, (eid, j, i)), (-1, (eid, last[eid], i)))
        return ((1, key),)

    chars = lmap.character_basis().transported(node_index(lmap.graph), image)
    return chars.rows, chars.index
