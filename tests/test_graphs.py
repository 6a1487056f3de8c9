import itertools
import random

import pytest

import logmoduli as lm
from logmoduli.errors import StructuralError

from conftest import random_balanced_graph, two_line_ghost


def test_two_line_ghost_graph_is_valid():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    assert lm.validate_graph(g).valid


def test_single_vertex_balanced_legs_valid():
    g = lm.DecoratedDualGraph(
        2, 3,
        [lm.Vertex("v", 1, (), 4, (2, 1))],
        [],
        [lm.Leg("z1", "v", (2, 0)), lm.Leg("z2", "v", (0, 1))],
    )
    assert lm.validate_graph(g).valid


def test_edge_stratum_union_violation():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    edges = [
        lm.Edge("e1", ("v0", "v1"), {1}, contact=(-1, 0)),
        g.edge("e2"),
        g.edge("e3"),
    ]
    bad = g.with_edges(edges)
    report = lm.validate_graph(bad)
    assert not report.valid
    assert "edge-stratum" in report.codes()


def test_balance_violation_names_vertex():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    verts = [v if v.id != "v1" else lm.Vertex("v1", 0, (), 2, (2, 1), "bubble")
             for v in g.vertices]
    bad = lm.DecoratedDualGraph(2, 2, verts, g.edges, g.legs)
    report = lm.validate_graph(bad)
    assert any(v.code == "balance" and v.element == "v1" for v in report.violations)


def test_ghost_with_nonzero_degree_flagged():
    g = lm.DecoratedDualGraph(
        1, 2,
        [lm.Vertex("a", 0, {1}, 0, (1,), "ghost"),
         lm.Vertex("b", 0, (), 0, (1,))],
        [lm.Edge("e", ("b", "a"), {1}, contact=(1,))],
        [lm.Leg("z", "a", (0,))],
    )
    report = lm.validate_graph(g)
    assert "ghost-degree" in report.codes()


def test_structural_errors_raise():
    with pytest.raises(StructuralError):
        lm.validate_graph(lm.DecoratedDualGraph(1, 2, [], [], []))
    with pytest.raises(StructuralError):
        g = lm.DecoratedDualGraph(
            1, 2,
            [lm.Vertex("a", 0, (), 0, (0,))],
            [lm.Edge("e", ("a", "missing"), set(), contact=(0,))],
            [],
        )
        lm.validate_graph(g)
    with pytest.raises(StructuralError):
        g = lm.DecoratedDualGraph(
            1, 2,
            [lm.Vertex("a", 0, (), 0, (0, 0))],  # degrees length 2 != N=1
            [], [],
        )
        lm.validate_graph(g)


def test_multinode_flagged_unless_allowed():
    g = lm.DecoratedDualGraph(
        1, 2,
        [lm.Vertex("a", 0, {1}, 0, (1,)), lm.Vertex("b", 0, {1}, 0, (1,)),
         lm.Vertex("c", 0, {1}, 0, (-2,))],
        [lm.Edge("m", ("a", "b", "c"), {1}, contacts=((1,), (1,), (-2,)))],
        [],
    )
    assert "multinode" in lm.validate_graph(g).codes()
    assert lm.validate_graph(g, multinode_allowed=True).valid


def test_validation_is_order_independent():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    base = lm.validate_graph(g).violations
    for perm in itertools.permutations(g.edges):
        shuffled = lm.DecoratedDualGraph(2, 2, g.vertices[::-1], perm, g.legs[::-1])
        assert lm.validate_graph(shuffled).violations == base


# -- decoration solving -------------------------------------------------------


def _skeleton(graph):
    edges = [lm.Edge(e.id, e.ends, e.stratum) for e in graph.edges]
    return graph.with_edges(edges)


def test_tree_zero_classes_unique_zero_decoration():
    I = frozenset({1})
    verts = [lm.Vertex(f"u{i}", 0, I, 0, (0,), "ghost") for i in range(3)]
    edges = [lm.Edge("e0", ("u0", "u1"), I), lm.Edge("e1", ("u1", "u2"), I)]
    legs = [lm.Leg("z0", "u0", (0,)), lm.Leg("z1", "u1", (0,)), lm.Leg("z2", "u2", (0,))]
    g = lm.DecoratedDualGraph(1, 3, verts, edges, legs)
    sol = lm.solve_decorations(g)
    assert sol.unique
    assert sol.assignments[0] == {"e0": (0,), "e1": (0,)}


def test_three_hyperplane_star_unique_solution():
    verts = [lm.Vertex("v0", 0, {1, 2, 3}, 0, (0, 0, 0), "ghost")]
    edges = []
    legs = []
    for i in (1, 2, 3):
        verts.append(lm.Vertex(f"v{i}", 0, {i}, 1, (1, 1, 1)))
        edges.append(lm.Edge(f"e{i}", (f"v{i}", "v0"), {1, 2, 3}))
        legs.append(lm.Leg(f"z{i}", f"v{i}", tuple(3 if j == i else 0 for j in (1, 2, 3))))
    g = lm.DecoratedDualGraph(3, 3, verts, edges, legs)
    sol = lm.solve_decorations(g)
    assert sol.unique
    expected = {"e1": (-2, 1, 1), "e2": (1, -2, 1), "e3": (1, 1, -2)}
    assert sol.assignments[0] == expected
    decorated = g.with_edges(
        [lm.Edge(e.id, e.ends, e.stratum, contact=expected[e.id]) for e in g.edges]
    )
    assert lm.validate_graph(decorated).valid


def test_conservation_failure_reports_none():
    verts = [lm.Vertex("a", 0, {1}, 0, (1,)), lm.Vertex("b", 0, {1}, 0, (0,))]
    edges = [lm.Edge("e", ("a", "b"), {1})]
    g = lm.DecoratedDualGraph(1, 2, verts, edges, [])
    sol = lm.solve_decorations(g)
    assert sol.status == "none"
    assert "conservation" in sol.reason


def test_two_edge_cycle_family_matches_brute_force():
    I = frozenset({1})
    verts = [lm.Vertex("a", 0, I, 0, (0,), "ghost"), lm.Vertex("b", 0, I, 0, (0,), "ghost")]
    edges = [lm.Edge("e0", ("a", "b"), I), lm.Edge("e1", ("a", "b"), I)]
    legs = [lm.Leg("z0", "a", (0,)), lm.Leg("z1", "a", (0,)),
            lm.Leg("z2", "b", (0,)), lm.Leg("z3", "b", (0,))]
    g = lm.DecoratedDualGraph(1, 3, verts, edges, legs)
    sol = lm.solve_decorations(g, bound=3)
    assert sol.status == "family"
    assert sum(len(c.cycle_basis) for c in sol.coordinates) == 1
    got = sorted(tuple(a[e.id] for e in g.edges) for a in sol.assignments)
    # oracle: exhaustive enumeration of balanced integer assignments
    brute = []
    for x in range(-3, 4):
        for y in range(-3, 4):
            if x + y == 0:  # balance at vertex a (both edges leave a)
                brute.append(((x,), (y,)))
    assert got == sorted(brute)


def test_random_tree_unique_matches_enumeration(rng):
    for _ in range(25):
        g = random_balanced_graph(rng, cyclic=False)
        skel = _skeleton(g)
        sol = lm.solve_decorations(skel, bound=9)
        if sol.status == "none":
            continue
        assert sol.unique
        assignment = sol.assignments[0]
        decorated = skel.with_edges(
            [lm.Edge(e.id, e.ends, e.stratum, contact=assignment[e.id]) for e in skel.edges]
        )
        report = lm.validate_graph(decorated)
        assert not any(v.code == "balance" for v in report.violations)
        # the original decoration balances too, so they agree on trees
        assert assignment == {e.id: e.contact for e in g.edges}


def test_solutions_of_family_balance_exactly(rng):
    for _ in range(10):
        g = random_balanced_graph(rng, cyclic=True)
        skel = _skeleton(g)
        sol = lm.solve_decorations(skel, bound=4)
        for assignment in sol.assignments[:20]:
            decorated = skel.with_edges(
                [lm.Edge(e.id, e.ends, e.stratum, contact=assignment[e.id])
                 for e in skel.edges]
            )
            report = lm.validate_graph(decorated)
            assert not any(v.code == "balance" for v in report.violations)


def _multinode_graph_with_faults():
    # a multi-node, a branch entry outside I_m, and an unbalanced vertex
    return lm.DecoratedDualGraph(
        2, 2,
        [lm.Vertex("a", 0, {1}, 0, (1, 0)), lm.Vertex("b", 0, {1}, 0, (1, 0)),
         lm.Vertex("c", 0, {1}, 0, (-2, 0))],
        [lm.Edge("m", ("a", "b", "c"), {1}, contacts=((1, 1), (1, 0), (-2, 0)))],
        [],
    )


def test_multinode_reports_agree_in_either_call_order():
    g = _multinode_graph_with_faults()
    plain = lm.validate_graph(g)
    allowed = lm.validate_graph(g, multinode_allowed=True)
    g = _multinode_graph_with_faults()
    assert lm.validate_graph(g, multinode_allowed=True) == allowed
    assert lm.validate_graph(g) == plain
    assert plain.codes() == ["balance", "edge-support", "multinode"]
    assert allowed.violations == tuple(v for v in plain.violations if v.code != "multinode")


def test_structural_error_raises_on_every_call():
    g = lm.DecoratedDualGraph(
        1, 2, [lm.Vertex("a", 0, {1}, 0, (0,))], [lm.Edge("e", ("a", "x"), {1}, contact=(1,))], []
    )
    for _ in range(2):
        with pytest.raises(StructuralError, match="dangling"):
            lm.validate_graph(g)


def test_an_interrupted_validation_pass_is_not_kept(monkeypatch):
    g, _ = two_line_ghost(1, 2, 3, 4, 5)

    class Interrupted(Exception):
        pass

    def interrupt():
        raise Interrupted

    monkeypatch.setattr(g, "is_connected", interrupt)
    with pytest.raises(Interrupted):
        lm.validate_graph(g)
    monkeypatch.undo()
    assert lm.validate_graph(g).valid
