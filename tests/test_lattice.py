import dataclasses
import glob
import os
import random
import re
import sys
import time
from fractions import Fraction

import pytest

import logmoduli as lm
from logmoduli import intlinalg as il
from logmoduli import schema
from logmoduli.errors import InputError, LogModuliError, StructuralError
from logmoduli.graphs import first_betti_number

from conftest import (
    good_ex2,
    mc_issue,
    random_balanced_graph,
    random_cycle_rich_graph,
    random_ghost_star,
    two_line_ghost,
    zero_class_graph,
)


def test_two_line_ghost_ranks_and_generator():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    rho = lm.build_rho(g)
    assert (rho.n_cols, rho.n_rows) == (5, 6)
    assert rho.kernel_rank == 1
    assert rho.cokernel_rank == 2
    assert rho.kernel_basis() == ((1, 1, 1, 1, 1),)


def test_two_line_ghost_character_lattice_matches_displayed():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    chars = lm.build_rho(g).character_basis()
    displayed = [[1, -1, -1, 1, 0, 0], [0, 0, 1, -1, -1, 1]]
    assert il.lattices_equal([list(r) for r in chars.rows], displayed)


def test_classical_graph_rho_is_trivial():
    verts = [lm.Vertex("a", 1, (), 3, ()), lm.Vertex("b", 0, (), 2, ())]
    edges = [lm.Edge("e1", ("a", "b"), ()), lm.Edge("e2", ("a", "b"), ())]
    g = lm.DecoratedDualGraph(0, 3, verts, edges, [])
    edges = [lm.Edge(e.id, e.ends, e.stratum, contact=()) for e in g.edges]
    g = g.with_edges(edges)
    rho = lm.build_rho(g)
    assert rho.n_rows == 0
    assert rho.kernel_rank == len(g.edges)
    assert rho.kernel_basis() == ((1, 0), (0, 1))


def test_cycle_rich_group_data_at_scale():
    """nv = 20, N = 4 and nv // 2 chords give an 86 x 74 map.  Its character
    lattice did not finish when the normal forms carried the unimodular
    transform; without it the whole group computation takes milliseconds."""
    rho = lm.build_rho(random_cycle_rich_graph(random.Random(12), 20))
    assert (rho.n_rows, rho.n_cols) == (86, 74)
    start = time.perf_counter()
    rank = rho.rank
    ker = rho.kernel_basis()
    chars = rho.character_basis().rows
    factors = rho.invariant_factors()
    assert time.perf_counter() - start < 2.0
    assert rank == len(factors)
    assert len(ker) == rho.n_cols - rank
    assert len(chars) == rho.n_rows - rank
    m = rho.matrix
    for k in ker:
        assert not any(il.mat_vec(m, k))
    for chi in chars:
        assert not any(il.mat_vec(il.transpose(m), chi))


def test_invariant_factors_at_scale():
    """nv = 160 gives a 699 x 572 map; the elimination Smith form took about
    7 s on it and alternating Hermite forms on its whole echelon form about
    0.03 s.  507 of the 547 pivots are 1, so splitting them off leaves a
    40-row block to alternate on, and the call takes about 0.001 s."""
    rho = lm.build_rho(random_cycle_rich_graph(random.Random(12), 160))
    assert (rho.n_rows, rho.n_cols) == (699, 572)
    start = time.perf_counter()
    factors = rho.invariant_factors()
    assert time.perf_counter() - start < 2.0
    assert len(factors) == rho.rank
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_map_without_rows_has_identity_kernel(n):
    lmap = lm.LatticeMap([], [("edge", j) for j in range(n)], [])
    assert lmap.rank == 0
    assert lmap.kernel_basis() == tuple(map(tuple, il.identity(n)))
    assert lmap.character_basis().rows == ()
    assert lmap.invariant_factors() == ()


@pytest.mark.parametrize("first", ["rank", "kernel_basis", "invariant_factors"])
def test_map_eliminates_its_matrix_once(monkeypatch, first):
    """rank, kernel and invariant factors read one echelon form of M: with
    the public routines that would eliminate M again disabled, the answers
    equal theirs, one elimination of an M-shaped input runs in all, and
    the kept echelon form is the one it gave, unchanged."""
    rho = lm.build_rho(random_cycle_rich_graph(random.Random(12), 20))
    m = rho.matrix
    assert (len(m), len(m[0])) == (86, 74)  # tall, so no transpose has M's shape
    expected = {"rank": il.rank(m),
                "kernel_basis": tuple(map(tuple, il.kernel(m))),
                "character_basis": tuple(map(tuple, il.left_kernel(m))),
                "invariant_factors": tuple(il.smith_normal_form(m))}

    def refuse(*args):
        raise AssertionError("a second elimination of M")

    for name in ("rank", "kernel", "smith_normal_form", "hnf"):
        monkeypatch.setattr(il, name, refuse)
    shapes = []
    echelon = il._echelon

    def counted(rows, cols):
        shapes.append((len(rows), cols))
        return echelon(rows, cols)

    monkeypatch.setattr(il, "_echelon", counted)
    lmap = lm.LatticeMap(m, rho.domain_index, rho.codomain_index)
    calls = {"rank": lambda: lmap.rank,
             "kernel_basis": lmap.kernel_basis,
             "character_basis": lambda: lmap.character_basis().rows,
             "invariant_factors": lmap.invariant_factors}
    order = [first] + [call for call in calls if call != first]
    assert {call: calls[call]() for call in order} == expected
    assert shapes.count((86, 74)) == 1
    assert lmap._rows() == echelon(il._reversed(m, 74), 74)


@pytest.mark.parametrize("matrix, n_cols, n_rows, shape", [
    ([[1, 2], [0, 1]], 2, 3, "2 rows of width 2"),  # a codomain coordinate without a row
    ([[1, 2], [0, 1]], 3, 2, "2 rows of width 2"),  # a domain coordinate without a column
    ([[1, 2], [0, 1, 5]], 2, 2, "2 rows of width 2/3"),  # ragged
    ([[1, 2, 3], [0, 1, 5]], 2, 2, "2 rows of width 3"),  # over-wide
    ([], 2, 1, "0 rows of width 0"),
])
def test_lattice_map_refuses_a_matrix_that_does_not_fit_its_indices(matrix, n_cols, n_rows,
                                                                   shape):
    with pytest.raises(StructuralError, match=re.escape(
            f"{shape} does not fit {n_rows} codomain x {n_cols} domain coordinates")):
        lm.LatticeMap(matrix, [("edge", j) for j in range(n_cols)], list(range(n_rows)))


def test_lattice_map_takes_rows_of_width_zero():
    lmap = lm.LatticeMap([[], []], [], ["x", "y"])
    assert lmap.rank == 0
    assert lmap.kernel_basis() == ()
    assert lmap.character_basis().rows == ((1, 0), (0, 1))
    assert lmap.invariant_factors() == ()


@pytest.mark.parametrize("rows, named", [
    ([[1.5, 2], [True, 0.9]], "1.5 at row 0, column 0"),  # not truncated to 1
    ([[1, 2], [True, 0]], "True at row 1, column 0"),
    ([[1, "3"], [0, 1]], "'3' at row 0, column 1"),
    ([[1, 2], [0, Fraction(2)]], "Fraction(2, 1) at row 1, column 1"),
])
def test_lattice_map_and_characters_refuse_an_entry_that_is_not_an_int(rows, named):
    with pytest.raises(StructuralError, match=re.escape(f"matrix entry {named} is not an integer")):
        lm.LatticeMap(rows, ["a", "b"], ["x", "y"])
    with pytest.raises(StructuralError,
                       match=re.escape(f"character entry {named} is not an integer")):
        lm.Characters(rows, ["a", "b"])
    ints = [[int(x) for x in row] for row in rows]
    assert lm.LatticeMap(ints, ["a", "b"], ["x", "y"]).matrix == tuple(map(tuple, ints))
    assert lm.Characters(ints, ["a", "b"]).rows == tuple(map(tuple, ints))


def _with_loops(graph):
    """The graph with two loops at its vertex of largest stratum: one of
    contact 0, whose rows are zero, and one of contact 1 there."""
    v = max(graph.vertices, key=lambda v: len(v.stratum))
    ones = tuple(int(i + 1 in v.stratum) for i in range(graph.N))
    loops = [lm.Edge("loop0", (v.id, v.id), v.stratum, contact=(0,) * graph.N),
             lm.Edge("loop1", (v.id, v.id), v.stratum, contact=ones)]
    return graph.with_edges([*graph.edges, *loops])


def _graphs_both_ways():
    """Seeded cycle-rich graphs, the same with two loops each (which carry
    rows where some stratum is nonempty), and every fixture whose graph has a lattice map (one of them has a multi-node)."""
    graphs = [random_cycle_rich_graph(random.Random(seed), nv)
              for seed in range(6) for nv in (3, 6, 12)]
    graphs += [_with_loops(g) for g in graphs]
    fixtures = os.path.join(os.path.dirname(lm.__file__), "fixtures")
    for path in sorted(glob.glob(os.path.join(fixtures, "*.json"))):
        with open(path) as fh:
            try:
                graph = schema.loads(fh.read())[0]
                lm.build_rho(graph)
            except LogModuliError:
                continue
        graphs.append(graph)
    return graphs


def _answers(lmap):
    return (lmap.rank, lmap.kernel_basis(), lmap.character_basis().rows,
            lmap.invariant_factors())


def test_both_ways_into_a_lattice_map_give_the_same_map():
    """build_rho's sparse rows and the public constructor on the dense
    matrix give the same answers; the dense matrix is the sparse rows
    written out, and neither map's own rows change under the four calls."""
    graphs = _graphs_both_ways()
    assert len(graphs) == 36 + 12
    assert any(e.is_multinode for g in graphs for e in g.edges)
    zero_rows = 0
    for graph in graphs:
        rho = lm.build_rho(graph)
        rows = [dict(row) for row in rho._sparse_rows]
        zero_rows += rows.count({})
        dense = tuple(tuple(row.get(j, 0) for j in range(rho.n_cols)) for row in rows)
        assert rho.matrix == dense
        again = lm.LatticeMap(rho.matrix, rho.domain_index, rho.codomain_index)
        assert again._sparse_rows == rows
        assert _answers(rho) == _answers(again)
        assert rho._sparse_rows == rows and again._sparse_rows == rows
        assert again.matrix == dense
    assert zero_rows >= 30


def test_map_answers_read_its_sparse_rows_only(monkeypatch):
    """A map from build_rho answers all four calls from its sparse rows: with
    the dense reversal and the public left kernel disabled, the answers equal
    the public routines' on the dense matrix, and the dense matrix is never
    built."""
    m = lm.build_rho(random_cycle_rich_graph(random.Random(12), 20)).matrix
    expected = (il.rank(m), tuple(map(tuple, il.kernel(m))),
                tuple(map(tuple, il.left_kernel(m))), tuple(il.smith_normal_form(m)))

    def refuse(*args):
        raise AssertionError("the map read its dense matrix")

    monkeypatch.setattr(il, "_reversed", refuse)
    monkeypatch.setattr(il, "left_kernel", refuse)
    lmap = lm.build_rho(random_cycle_rich_graph(random.Random(12), 20))
    assert _answers(lmap) == expected
    assert lmap._matrix is None


def test_build_rho_keeps_one_map_per_graph():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    assert lm.build_rho(g) is lm.build_rho(g)


def test_mc_issue_kernel_generator():
    for a, d in [(1, 1), (3, 2), (5, 4)]:
        g = mc_issue(a, d)
        rho = lm.build_rho(g)
        assert (rho.n_cols, rho.n_rows) == (a + 2, 2 * a)
        assert rho.kernel_rank == 1
        expected = tuple([1] * a + [4, 1])
        assert rho.kernel_basis() == (expected,)
        assert rho.cokernel_rank == a - 1


def test_zero_class_kernel_is_scalings_plus_diagonal():
    for shape in ("tree", "cycle"):
        g = zero_class_graph({1, 2}, shape=shape)
        rho = lm.build_rho(g)
        ne = len(g.edges)
        expected = []
        for j in range(ne):
            row = [0] * rho.n_cols
            row[j] = 1
            expected.append(row)
        for i_off in range(2):  # diagonal copy of the stratum lattice
            row = [0] * rho.n_cols
            for v_idx in range(len(g.vertices)):
                row[ne + 2 * v_idx + i_off] = 1
            expected.append(row)
        assert il.lattices_equal([list(r) for r in rho.kernel_basis()], expected)
        b1 = g.first_betti()
        assert rho.cokernel_rank == 2 * b1


def test_three_hyperplane_star_ranks_and_character():
    g, _ = good_ex2({(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3) if i != j})
    rho = lm.build_rho(g)
    assert rho.kernel_rank == 1
    assert rho.cokernel_rank == 1
    # character lattice = span of x12 x23 x31 / (x13 x32 x21)
    idx = rho.codomain_index
    row = [0] * len(idx)
    for (i, j), coef in {(1, 2): 1, (2, 3): 1, (3, 1): 1,
                         (1, 3): -1, (3, 2): -1, (2, 1): -1}.items():
        row[idx.index((f"e{i}", j))] = coef
    assert il.lattices_equal([list(r) for r in rho.character_basis().rows], [row])


def test_orientation_flip_preserves_ranks_and_transports_characters(rng):
    for _ in range(20):
        g = random_balanced_graph(rng, cyclic=True)
        if not g.edges:
            continue
        rho = lm.build_rho(g)
        eid = rng.choice([e.id for e in g.edges])
        g2, _ = lm.flip_edge(g, None, eid)
        rho2 = lm.build_rho(g2)
        assert rho.kernel_rank == rho2.kernel_rank
        assert rho.cokernel_rank == rho2.cokernel_rank
        # characters transport by negating the flipped edge's block
        idx = rho.codomain_index
        transported = []
        for row in rho.character_basis().rows:
            transported.append([
                -c if key[0] == eid else c for c, key in zip(row, idx)
            ])
        assert il.lattices_equal(
            transported, [list(r) for r in rho2.character_basis().rows]
        )


def test_saturation_characters_kill_image_multiplicatively(rng):
    from logmoduli.qi import GaussianRational as Q

    for _ in range(10):
        g = random_balanced_graph(rng, cyclic=True)
        rho = lm.build_rho(g)
        chars = rho.character_basis()
        if not chars.rows or not rho.n_cols:
            continue
        # multiplicative check: characters evaluate to 1 on exp(Im rho)
        base = [Q(rng.randint(1, 5), rng.randint(0, 2)) for _ in range(rho.n_cols)]
        image = []
        for r in range(rho.n_rows):
            acc = Q(1)
            for c in range(rho.n_cols):
                acc = acc * base[c] ** rho.matrix[r][c]
            image.append(acc)
        for row in chars.rows:
            acc = Q(1)
            for coef, val in zip(row, image):
                acc = acc * val ** coef
            assert acc.is_one()


# -- multi-node variant -------------------------------------------------------


def _collapse(g, data):
    collapsed, cdata, cfg, _, _ = lm.collapse_ghost(g, data, "v0")
    return collapsed


def test_multinode_ranks_match_full_graph():
    g, data = two_line_ghost(1, 2, 3, 4, 5)
    rho = lm.build_rho(g)
    collapsed = _collapse(g, data)
    rho_bar = lm.build_rho_multinode(collapsed)
    assert rho_bar.kernel_rank == rho.kernel_rank == 1
    assert rho_bar.cokernel_rank == rho.cokernel_rank == 2


def test_multinode_ranks_three_hyperplane():
    g, data = good_ex2({(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3) if i != j})
    collapsed = _collapse(g, data)
    rho_bar = lm.build_rho_multinode(collapsed)
    rho = lm.build_rho(g)
    assert rho_bar.cokernel_rank == rho.cokernel_rank == 1
    assert rho_bar.kernel_rank == rho.kernel_rank == 1


def test_binary_multinode_matches_ordinary_edge_up_to_gauge():
    # an ordinary node encoded as a 2-branch multi-node carries one scaling
    # per branch (they were separate edges before a collapse): the cokernel
    # and character lattice agree with the plain encoding, the kernel gains
    # exactly the gauge vector along the duplicated scaling
    verts = [lm.Vertex("a", 0, {1}, 0, (2,)), lm.Vertex("b", 0, {1}, 0, (-2,))]
    mn = lm.Edge("m", ("a", "b"), {1}, contacts=((2,), (-2,)), into=(True, True))
    g = lm.DecoratedDualGraph(1, 2, verts, [mn], [])
    rho_bar = lm.build_rho_multinode(g)
    plain = lm.DecoratedDualGraph(
        1, 2, verts, [lm.Edge("m", ("a", "b"), {1}, contact=(2,))], []
    )
    rho = lm.build_rho(plain)
    assert rho_bar.cokernel_rank == rho.cokernel_rank
    assert rho_bar.kernel_rank == rho.kernel_rank + 1
    assert il.lattices_equal(
        [list(r) for r in rho_bar.character_basis().rows],
        [list(r) for r in rho.character_basis().rows],
    )


def test_balanced_binary_collapse_preserves_ranks():
    # ghost with two branches and a zero-contact mark: the collapse produces
    # a balanced 2-branch multi-node and both ranks carry over
    verts = [
        lm.Vertex("g", 0, {1}, 0, (0,), "ghost"),
        lm.Vertex("a", 0, (), 1, (1,), "principal"),
        lm.Vertex("b", 0, {1}, 1, (-1,), "principal"),
    ]
    edges = [lm.Edge("e1", ("a", "g"), {1}, contact=(1,)),
             lm.Edge("e2", ("b", "g"), {1}, contact=(-1,))]
    legs = [lm.Leg("z", "g", (0,))]
    g = lm.DecoratedDualGraph(1, 3, verts, edges, legs)
    from logmoduli.sections import P1Point
    from logmoduli.qi import GaussianRational as Q

    data = lm.CurveData()
    data.positions[("e1", 1)] = P1Point.finite(0)
    data.positions[("e2", 1)] = P1Point.finite(1)
    data.positions[("e1", 0)] = P1Point.finite(0)
    data.positions[("e2", 0)] = P1Point.finite(0)
    data.leg_positions["z"] = P1Point.finite(2)
    data.eta[("e1", 0, 1)] = Q(3)
    data.sections["b"] = {1: lm.build_section(-1, [(P1Point.finite(0), -1)])}
    collapsed, _, _, _, _ = lm.collapse_ghost(g, data, "g")
    rho = lm.build_rho(g)
    rho_bar = lm.build_rho_multinode(collapsed)
    assert rho_bar.kernel_rank == rho.kernel_rank
    assert rho_bar.cokernel_rank == rho.cokernel_rank
    assert lm.relation_check(g, data, "g").holds


def test_multinode_stratum_mismatch_rejected():
    verts = [lm.Vertex("a", 0, {1, 2}, 0, (1, 1)), lm.Vertex("b", 0, (), 0, (1, 0)),
             lm.Vertex("c", 0, (), 0, (0, 1))]
    mn = lm.Edge("m", ("b", "c"), {1}, contacts=((1, 0), (0, 1)))
    g = lm.DecoratedDualGraph(2, 2, [verts[1], verts[2]], [mn], [])
    with pytest.raises(InputError):
        lm.build_rho_multinode(g)


def test_build_rho_multinode_is_build_rho():
    assert lm.build_rho_multinode is lm.build_rho


def test_build_rho_accepts_multinodes_and_indexes_branches():
    g, data = two_line_ghost(1, 2, 3, 4, 5)
    collapsed = _collapse(g, data)
    rho_bar = lm.build_rho(collapsed)
    assert rho_bar.n_rows == 4  # two difference blocks of the 3-branch node
    assert lm.node_index(collapsed) == tuple(("m", j, i) for j in range(3) for i in (1, 2))
    assert lm.node_index(g) == lm.build_rho(g).codomain_index


def test_first_betti_counts_multinodes_as_trees():
    assert first_betti_number("abc", [("a", "b"), ("b", "c")]) == 0
    assert first_betti_number("abc", [("a", "b"), ("b", "c"), ("c", "a")]) == 1
    assert first_betti_number("abc", [("a", "b", "c"), ("a", "b")]) == 1
    assert first_betti_number("ab", [("a", "a")]) == 1
    g, data = two_line_ghost(1, 2, 3, 4, 5)
    assert g.first_betti() == 0 == _collapse(g, data).first_betti()


def _rho_row_by_definition(graph, domain_index, key):
    """The row of rho at node coordinate key: contact_i times the edge's
    scaling plus the slope of ends[0] minus that of ends[1] for an ordinary
    node (e, i); for ("diff", e, j, i) the signed order of branch j minus that
    of the last branch, a branch's order being its contact times its scaling
    plus the slope of its vertex, with + when it runs into the node."""
    row = dict.fromkeys(domain_index, 0)

    def add(column, value):
        if column in row:  # a vertex outside coordinate i has no slope there
            row[column] += value

    if len(key) == 2:
        eid, i = key
        e = graph.edge(eid)
        add(("edge", eid), e.contact[i - 1])
        add(("vertex", e.ends[0], i), 1)
        add(("vertex", e.ends[1], i), -1)
    else:
        _, eid, j, i = key
        e = graph.edge(eid)
        for branch, sign in ((j, 1), (len(e.ends) - 1, -1)):
            if not e.branch_into(branch):
                sign = -sign
            add(("branch", eid, branch), sign * e.contacts[branch][i - 1])
            add(("vertex", e.ends[branch], i), sign)
    return tuple(row.values())


def _collapsed_ghost_star(rng, reorient):
    """The ghost collapse of a random ghost star; with reorient, its branch
    vertices take random coordinates of the node's stratum (so their slopes
    enter the node's rows) and its branches run into or out of the node at
    random."""
    g, data = random_ghost_star(rng)
    collapsed = lm.collapse_ghost(g, data, "g0")[0]
    if not reorient:
        return collapsed
    (m,) = [e for e in collapsed.edges if e.is_multinode]
    verts = [dataclasses.replace(v, stratum={i for i in m.stratum if rng.random() < 0.5})
             for v in collapsed.vertices]
    m = dataclasses.replace(m, into=[rng.random() < 0.5 for _ in m.ends])
    edges = [m if e.id == m.id else e for e in collapsed.edges]
    return lm.DecoratedDualGraph(collapsed.N, collapsed.n, verts, edges, collapsed.legs)


def test_build_rho_rows_match_their_definition():
    rng = random.Random(15)
    graphs = [random_balanced_graph(rng, max_vertices=6, cyclic=True) for _ in range(60)]
    graphs += [_collapsed_ghost_star(rng, reorient=k % 2 == 1) for k in range(40)]
    for g in graphs:
        rho = lm.build_rho(g)
        for key, row in zip(rho.codomain_index, rho.matrix):
            assert row == _rho_row_by_definition(g, rho.domain_index, key), key
        chars = lm.canonical_characters(g)
        pos = {key: k for k, key in enumerate(chars.index)}
        for e in g.edges:
            if e.is_multinode:
                for i in e.stratum:
                    for r in chars.rows:
                        assert sum(r[pos[(e.id, j, i)]] for j in range(len(e.ends))) == 0


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# digests of the answers that bench/baseline/lattice.json records as timeouts
# (the seed commit did not finish them), taken from the dense elimination
# that the sparse rows replaced
LATTICE_POOL_DIGESTS = {
    "cycle:8:0": {"character_basis": "4d0da8a3fa75468d"},
    "cycle:8:1": {"character_basis": "c878b8a26a113dbf"},
    "cycle:12:1": {"character_basis": "d6cd1595bfe4c063"},
    "cycle:12:2": {"character_basis": "f7bfb0a6ba15302c"},
    "cycle:16:0": {"character_basis": "89e6c1ef2d05999a", "rank": "44cb730c420480a0"},
    "cycle:16:1": {"character_basis": "581585742e1d719d", "rank": "a68b412c4282555f"},
    "cycle:16:2": {"character_basis": "252017dea5a523b2"},
    "cycle:24:0": {"character_basis": "fb0e6423d6eb0ea7"},
    "cycle:24:1": {"character_basis": "65414d74b7643f32", "rank": "8241649609f88ccd"},
    "cycle:24:2": {"character_basis": "2777e7229ce26500"},
    "tree:24:0": {"character_basis": "4b4e3cfe7ccdb7c0", "rank": "39fa9ec190eee7b6"},
}


def test_lattice_pool_answers_match_golden(monkeypatch):
    """rank, kernel, characters and invariant factors on the 30 graphs of the
    benchmark's lattice pool: the invariants the benchmark checks, and every
    answer equal by digest to the golden one."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import workloads

    golden = workloads.load_baseline("lattice")
    keys = [rung + (i,) for rung in workloads.LATTICE_RUNGS for i in range(workloads.LATTICE_POOL)]
    assert len(keys) == len(golden) == 30
    compared = 0
    for key in keys:
        name = workloads.key_str(key)
        lmap = lm.build_rho(workloads.lattice_graph(*key))
        answers = {
            "rank": lmap.rank,
            "kernel_basis": [list(r) for r in lmap.kernel_basis()],
            "character_basis": [list(r) for r in lmap.character_basis().rows],
            "invariant_factors": list(lmap.invariant_factors()),
        }
        assert workloads.check_lattice(lmap, answers, golden[name]) is None, name
        expected = {**golden[name], **LATTICE_POOL_DIGESTS.get(name, {})}
        for call in workloads.LATTICE_CALLS:
            assert workloads.digest(answers[call]) == expected[call], (name, call)
            compared += 1
    assert compared == 120


def test_tropical_pool_answers_match_golden(monkeypatch):
    """The verdict on each of the 80 graphs of the benchmark's tropical pool,
    its witness under TropicalWitness.check, and its certificate under the
    benchmark's own Farkas check."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import workloads

    golden = workloads.load_baseline("tropical")
    keys = [rung + (i,) for rung in workloads.TROPICAL_RUNGS for i in range(workloads.TROPICAL_POOL)]
    assert len(keys) == len(golden) == 80
    assert sorted(golden.values()) == [False] * 40 + [True] * 40
    for key in keys:
        graph = workloads.tropical_graph(*key)
        problem = workloads.check_tropical(graph, lm.tropical_feasible(graph),
                                           golden[workloads.key_str(key)])
        assert problem is None, (workloads.key_str(key), problem)
