import collections
import hashlib
import itertools
import json
import random
import re

import pytest

import logmoduli as lm
from logmoduli.errors import InputError, StructuralError

from conftest import random_balanced_graph, random_cycle_rich_graph, two_line_ghost


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


def test_edge_refuses_non_integer_contact_entries():
    with pytest.raises(StructuralError, match=re.escape(
            "edge 'e' contact entry 1.5 at position 0 is not an integer")):
        lm.Edge("e", ("a", "b"), contact=(1.5, True))
    with pytest.raises(StructuralError, match=re.escape(
            "edge 'e' contact entry True at position 1 is not an integer")):
        lm.Edge("e", ("a", "b"), contact=(1, True))
    with pytest.raises(StructuralError, match=re.escape(
            "edge 'm' contacts entry '1' at row 1, column 0 is not an integer")):
        lm.Edge("m", ("a", "b", "c"), contacts=((1,), ("1",), (0,)))
    # `into` is a flag per branch, read through bool()
    assert lm.Edge("m", ("a", "b", "c"), contacts=((1,), (-1,), (0,)), into=(1, 0, 1)).into == (
        True, False, True)


def test_vertex_refuses_non_integer_degrees():
    with pytest.raises(StructuralError, match=re.escape(
            "vertex 'a' degrees entry 2.7 at position 0 is not an integer")):
        lm.Vertex("a", degrees=(2.7, 0))
    with pytest.raises(StructuralError, match=re.escape(
            "vertex 'a' base_degrees entry 0.5 at position 1 is not an integer")):
        lm.Vertex("a", degrees=(2, 0), base_degrees=(1, 0.5))


def test_vertex_refuses_non_integer_scalars():
    for field, value in (("genus", 0.5), ("c1_log", 1.7), ("cover_degree", 2.0),
                         ("base_c1_log", True)):
        with pytest.raises(StructuralError, match=re.escape(
                f"vertex 'a' entry {value!r} at {field} is not an integer")):
            lm.Vertex("a", degrees=(0,), **{field: value})
    assert lm.Vertex("a", degrees=(0,), cover_degree=None).cover_degree is None

def test_leg_refuses_non_integer_contact_entries():
    with pytest.raises(StructuralError, match=re.escape(
            "leg 'z' contact entry 0.9 at position 0 is not an integer")):
        lm.Leg("z", "a", contact=(0.9,))


def test_constructors_refuse_a_scalar_where_integer_entries_go():
    entries, rows = "a sequence of integers", "a sequence of rows of integers"
    cases = [
        ("vertex 'a' degrees", entries, 3, lambda: lm.Vertex("a", degrees=3)),
        ("edge 'e' contact", entries, 3, lambda: lm.Edge("e", ["a", "b"], stratum=(1,), contact=3)),
        ("leg 'l' contact", entries, 3, lambda: lm.Leg("l", "a", contact=3)),
        ("family 'f' dot", entries, 3, lambda: lm.CurveFamily("f", (), 4, 3)),
        ("family 'f' multiplicity", entries, 3,
         lambda: lm.CurveFamily("f", (), 4, [1, -1], multiplicity=3)),
        ("edge 'm' contacts", rows, 3, lambda: lm.Edge("m", ("a", "b", "c"), contacts=3)),
        ("edge 'm' contacts", rows, [3], lambda: lm.Edge("m", ("a", "b", "c"), contacts=[3])),
        ("matrix", rows, 5, lambda: lm.LatticeMap(5, ["a"], ["x"])),
        ("character", rows, 5, lambda: lm.Characters(5, ["a"])),
    ]
    for what, kind, value, build in cases:
        with pytest.raises(StructuralError, match=re.escape(f"{what} must be {kind}, got {value!r}")):
            build()


def test_graph_refuses_non_integer_N_and_n():
    v = lm.Vertex("a", degrees=(0, 0))
    with pytest.raises(StructuralError, match=re.escape("graph N = 2.9 is not an integer")):
        lm.DecoratedDualGraph(2.9, 3.5, [v], [], [])
    with pytest.raises(StructuralError, match=re.escape("graph n = 3.5 is not an integer")):
        lm.DecoratedDualGraph(2, 3.5, [v], [], [])
    g = lm.DecoratedDualGraph(2, 3, [v], [], [])
    assert (g.N, g.n) == (2, 3)


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


def _unfiltered_assignments(graph, sol):
    """Every product of the per-coordinate flows, kept when validation finds
    no edge-sign or edge-support fault in the whole assignment."""
    kept = []
    for pick in itertools.product(*(c.solutions or () for c in sol.coordinates)):
        assignment = {}
        for e in graph.edges:
            vec = [0] * graph.N
            for c, flows in zip(sol.coordinates, pick):
                vec[c.coordinate - 1] = flows.get(e.id, 0)
            assignment[e.id] = tuple(vec)
        decorated = graph.with_edges(
            [lm.Edge(e.id, e.ends, e.stratum, contact=assignment[e.id]) for e in graph.edges])
        codes = lm.validate_graph(decorated).codes()
        if "edge-sign" not in codes and "edge-support" not in codes:
            kept.append(assignment)
    return tuple(kept)


def test_decoration_families_equal_the_unfiltered_product():
    rng = random.Random(31)
    families = 0
    for _ in range(60):
        skel = _skeleton(random_balanced_graph(rng, max_vertices=6, cyclic=True))
        for bound in (1, 2):
            sol = lm.solve_decorations(skel, bound=bound)
            if sol.status != "family":
                continue
            assert sol.assignments == _unfiltered_assignments(skel, sol)
            families += bool(sol.assignments)
    assert families >= 5


def test_decoration_enumeration_is_capped():
    I = frozenset({1, 2})
    verts = [lm.Vertex(v, 0, I, 0, (0, 0), "ghost") for v in "ab"]
    edges = [lm.Edge(f"e{k}", ("a", "b"), I) for k in range(3)]
    g = lm.DecoratedDualGraph(2, 3, verts, edges, [lm.Leg("z", "a", (0, 0))])
    assert len(lm.solve_decorations(g, bound=1).assignments) == 7 ** 2
    with pytest.raises(lm.SizeCapError):
        lm.solve_decorations(g, bound=20)  # 1261 flows per coordinate, 1261^2 pairs
    with pytest.raises(lm.SizeCapError):
        lm.solve_decorations(g, bound=10 ** 6)  # (2 * 10^6 + 1)^2 cycle coefficients


def test_negative_decoration_bound_is_rejected():
    I = frozenset({1})
    verts = [lm.Vertex(v, 0, I, 0, (0,), "ghost") for v in "ab"]
    edges = [lm.Edge(f"e{k}", ("a", "b"), I) for k in range(2)]
    g = lm.DecoratedDualGraph(1, 3, verts, edges, [lm.Leg("z", "a", (0,))])
    assert len(lm.solve_decorations(g, bound=0).assignments) == 1
    with pytest.raises(InputError, match="bound = -2"):
        lm.solve_decorations(g, bound=-2)


# before the solver became one spanning-forest pass per coordinate
DECORATION_POOL_DIGEST = "605cc5b2ddd9e8cf"
DECORATION_POOL_OUTCOMES = {
    "unique": 297, "family-unbounded": 144, "family-assignments": 142, "family-empty": 141,
    "conservation": 162, "sign": 9, "cap": 5,
}


def _perturbed_skeleton(rng, graph):
    """The graph without its contacts; on small graphs one pairing entry may
    move, alone (conservation usually fails) or against another vertex (the
    sign rule may fail)."""
    degrees = {v.id: list(v.degrees) for v in graph.vertices}
    if graph.N and len(graph.vertices) < 8 and rng.random() < 0.6:
        i = rng.randrange(graph.N)
        a, b = rng.choice(graph.vertices).id, rng.choice(graph.vertices).id
        d = rng.choice((-2, -1, 1, 2))
        degrees[a][i] += d
        if rng.random() < 0.7:
            degrees[b][i] -= d
    verts = [lm.Vertex(v.id, v.genus, v.stratum, v.c1_log, degrees[v.id], v.kind)
             for v in graph.vertices]
    return lm.DecoratedDualGraph(graph.N, graph.n, verts, _skeleton(graph).edges, graph.legs)


def _decoration_outcome(graph, bound):
    """(outcome class, every output in its order) of one solve."""
    try:
        sol = lm.solve_decorations(graph, bound=bound)
    except lm.SizeCapError as exc:
        return "cap", ["cap", str(exc)]
    if sol.status == "none":
        cls = "conservation" if "conservation" in sol.reason else "sign"
    elif sol.status == "unique":
        cls = "unique"
    elif bound is None:
        cls = "family-unbounded"
    else:
        cls = "family-assignments" if sol.assignments else "family-empty"
    coordinates = [
        [c.coordinate, list(c.particular.items()),
         [list(cyc.items()) for cyc in c.cycle_basis],
         None if c.solutions is None else [list(f.items()) for f in c.solutions]]
        for c in sol.coordinates
    ]
    return cls, [sol.status, sol.reason, coordinates, [list(a.items()) for a in sol.assignments]]


def test_decoration_pool_matches_the_recorded_digest():
    """Status, reason, particular flows, cycle bases, enumerated flows and
    assignments, each in its order, and any cap message, on 300 seeded
    skeletons at bounds None, 1 and 3."""
    rng = random.Random(21)
    digest = hashlib.sha256()
    outcomes = collections.Counter()
    for k in range(300):
        if k % 10 == 1:
            g = random_cycle_rich_graph(rng, rng.randint(8, 12), N=2)
        elif k % 2:
            g = random_cycle_rich_graph(rng, rng.randint(2, 5), N=rng.randint(1, 3))
        else:
            g = random_balanced_graph(rng, max_vertices=6, cyclic=True)
        g = _perturbed_skeleton(rng, g)
        for bound in (None, 1, 3):
            cls, out = _decoration_outcome(g, bound)
            outcomes[cls] += 1
            digest.update(json.dumps(out).encode())
    assert dict(outcomes) == DECORATION_POOL_OUTCOMES
    assert set(outcomes) >= {"unique", "family-unbounded", "family-assignments",
                             "conservation", "sign", "cap"}
    assert digest.hexdigest()[:16] == DECORATION_POOL_DIGEST


def test_decoration_trees_root_at_the_least_vertex_id():
    # a triangle listed out of id order: the graph holds its vertices in id
    # order ("w10" < "w2" < "w5"), so the tree is rooted at w10, e0 and e1
    # are tree edges and e2 is the co-tree edge (recorded at f44da1e)
    g = lm.DecoratedDualGraph(
        1, 0,
        [lm.Vertex("w2", stratum={1}, degrees=(2,)), lm.Vertex("w5", stratum={1}, degrees=(-1,)),
         lm.Vertex("w10", stratum={1}, degrees=(-1,))],
        [lm.Edge("e0", ("w2", "w10"), {1}), lm.Edge("e1", ("w5", "w10"), {1}),
         lm.Edge("e2", ("w5", "w2"), {1})],
        [],
    )
    (c,) = lm.solve_decorations(g, bound=2).coordinates
    assert list(c.particular.items()) == [("e0", 2), ("e1", -1), ("e2", 0)]
    assert [list(cycle.items()) for cycle in c.cycle_basis] == [[("e2", 1), ("e0", 1), ("e1", -1)]]
    assert c.solutions == ({"e0": 0, "e1": 1, "e2": -2}, {"e0": 1, "e1": 0, "e2": -1},
                           {"e0": 2, "e1": -1, "e2": 0})
