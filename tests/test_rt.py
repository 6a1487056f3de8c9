import pytest

import logmoduli as lm
from logmoduli.errors import InputError

from conftest import good_ex2, mc_dep, random_map_model, two_ghost_clusters, two_line_ghost


def test_two_line_ghost_reduction_creates_three_branch_multinode():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    trace = lm.rt_reduce(lm.MapModel(g))
    prime = trace.stage("gamma_prime")
    assert len(prime.nodes) == 1
    node = next(iter(prime.nodes.values()))
    assert node.arrows == 3
    assert prime.k() == 0  # both marked points sat on the ghost
    assert trace.ghost_deltas == ((("v0",), 2),)
    assert trace.q_values[0] - trace.q_values[1] == 2


def test_ghost_delta_three_special_points():
    # ghost with one mark and two nodes: delta = 0
    verts = [
        lm.Vertex("g", 0, {1}, 0, (0,), "ghost"),
        lm.Vertex("a", 0, (), 1, (1,), "principal"),
        lm.Vertex("b", 0, (), 1, (1,), "principal"),
    ]
    edges = [lm.Edge("e1", ("a", "g"), {1}, contact=(1,)),
             lm.Edge("e2", ("b", "g"), {1}, contact=(1,))]
    legs = [lm.Leg("z", "g", (2,))]
    g = lm.DecoratedDualGraph(1, 3, verts, edges, legs)
    trace = lm.rt_reduce(lm.MapModel(g))
    assert trace.ghost_deltas == ((("g",), 0),)
    assert trace.q_values[0] == trace.q_values[1]


def test_mc_dep_reduction_shape():
    g, _ = mc_dep(1, 2, 3, 4, 5, 6, 7, 8, labels=True)
    trace = lm.rt_reduce(lm.MapModel(g))
    prime = trace.stage("gamma_prime")
    # multi-node at alpha joining the image, line 1, line 2; a regular node
    # at alpha3; one surviving marked point at beta
    arrows = sorted(node.arrows for node in prime.nodes.values())
    assert arrows == [2, 3]
    assert prime.k() == 1
    assert prime.vertices["v0"].multiplicity == 2
    assert prime.vertices["v0"].c1_log == 2
    ok, failures = lm.verify_edge_invariant(trace)
    assert ok, failures
    # cover delta: (d-1)*base + points before - after = 2 + 5 - 3
    assert trace.cover_deltas == (("v0", 4),)
    assert trace.genus_by_stage[0] == trace.genus_by_stage[1]


def test_simple_model_identity_trace():
    g, _ = good_ex2({(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3) if i != j})
    # relabel the ghost as a plain stable component so nothing reduces
    verts = [v if v.id != "v0" else
             lm.Vertex("v0", 0, v.stratum, 0, v.degrees, "bubble")
             for v in g.vertices]
    g2 = lm.DecoratedDualGraph(g.N, g.n, verts, g.edges, g.legs)
    trace = lm.rt_reduce(lm.MapModel(g2))
    assert trace.q_values[0] == trace.q_values[1] == trace.q_values[2]
    assert trace.ghost_deltas == ()
    assert trace.cover_deltas == ()
    assert sorted(trace.stage("gamma_double_prime").vertices) == sorted(
        v.id for v in g2.vertices
    )


def test_equal_image_components_identified_genus_rises():
    verts = [
        lm.Vertex("p", 0, (), 2, (1, 1), "principal"),
        lm.Vertex("b1", 0, (), 2, (1, 1), "bubble", image_label="same"),
        lm.Vertex("b2", 0, (), 2, (1, 1), "bubble", image_label="same"),
    ]
    edges = [lm.Edge("e1", ("p", "b1"), (), contact=()),
             lm.Edge("e2", ("p", "b2"), (), contact=())]
    g = lm.DecoratedDualGraph(0, 3, verts, edges,
                              [lm.Leg("z1", "b1", ()), lm.Leg("z2", "b2", ())])
    # adjust pairings: N = 0 means empty contact vectors everywhere
    verts = [lm.Vertex(v.id, v.genus, (), v.c1_log, (), v.kind, v.image_label)
             for v in verts]
    g = lm.DecoratedDualGraph(0, 3, verts, edges,
                              [lm.Leg("z1", "b1", ()), lm.Leg("z2", "b2", ())])
    trace = lm.rt_reduce(lm.MapModel(g))
    dbl = trace.stage("gamma_double_prime")
    assert len(dbl.vertices) == 2
    assert trace.genus_by_stage[2] == trace.genus_by_stage[1] + 1
    assert dbl.vertices[sorted(dbl.vertices)[0]].multiplicity == 2 or \
        any(v.multiplicity == 2 for v in dbl.vertices.values())


def test_adjacent_equal_image_tree_contracts_without_genus_change():
    verts = [
        lm.Vertex("p", 0, (), 2, (1,), "principal"),
        lm.Vertex("b1", 0, (), 2, (1,), "bubble", image_label="L"),
        lm.Vertex("b2", 0, (), 2, (1,), "bubble", image_label="L"),
    ]
    edges = [lm.Edge("e1", ("p", "b1"), {1}, contact=(1,)),
             lm.Edge("e2", ("b1", "b2"), {1}, contact=(0,))]
    legs = [lm.Leg("z1", "b1", (0,)), lm.Leg("z2", "b2", (1,)),
            lm.Leg("z3", "b2", (-1,))]
    verts = [
        lm.Vertex("p", 0, (), 2, (1,), "principal"),
        lm.Vertex("b1", 0, {1}, 2, (-1,), "bubble", image_label="L"),
        lm.Vertex("b2", 0, {1}, 2, (0,), "bubble", image_label="L"),
    ]
    g = lm.DecoratedDualGraph(1, 3, verts, edges, legs)
    trace = lm.rt_reduce(lm.MapModel(g))
    assert trace.genus_by_stage[0] == trace.genus_by_stage[1]
    prime = trace.stage("gamma_prime")
    assert len(prime.vertices) == 2
    merged = [v for v in prime.vertices.values() if v.multiplicity == 2]
    assert merged and set(merged[0].origins) == {"b1", "b2"}


def test_multiplicity_conservation_and_edge_invariant_randomized(rng):
    checked = 0
    while checked < 100:
        model = random_map_model(rng)
        trace = lm.rt_reduce(model)
        ok, failures = lm.verify_edge_invariant(trace)
        assert ok, failures
        # conservation: original cover degrees sum to final multiplicities
        final = trace.stage("gamma_double_prime")
        for vid, v in final.vertices.items():
            if v.kind == "principal":
                continue
            total = 0
            for origin in v.origins:
                ov = model.graph.vertex(origin) if model.graph.has_vertex(origin) else None
                total += (ov.cover_degree or 1) if ov else 1
            assert total == v.multiplicity
        # ghost deltas reproduce the Q drop of step (i) exactly
        ghost_drop = sum(d for _, d in trace.ghost_deltas)
        cover_drop = sum(d for _, d in trace.cover_deltas)
        checked += 1


def test_q_delta_equality_for_pure_ghost_models(rng):
    # models with ghosts only: Q(start) - Q(prime) = sum of ghost deltas
    count = 0
    while count < 30:
        model = random_map_model(rng)
        if any((v.cover_degree or 1) > 1 for v in model.graph.vertices):
            continue
        if all(v.image_label is None for v in model.graph.vertices):
            trace = lm.rt_reduce(model)
            assert trace.q_values[0] - trace.q_values[1] == sum(
                d for _, d in trace.ghost_deltas
            )
            count += 1


def test_cover_delta_matches_q_drop():
    g, _ = mc_dep(1, 2, 3, 4, 5, 6, 7, 8, labels=True)
    trace = lm.rt_reduce(lm.MapModel(g))
    assert trace.q_values[0] - trace.q_values[1] == sum(
        d for _, d in trace.cover_deltas
    ) + sum(d for _, d in trace.ghost_deltas)


# -- cluster classification ---------------------------------------------------


def test_three_hyperplane_star_center_not_a_cluster():
    g, _ = good_ex2({(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3) if i != j})
    model = lm.MapModel(g)
    report = lm.classify_cluster(model, ["v0"], nef=True)
    assert report.cluster_type == "not-a-cluster"
    assert report.delta_plus["v0"] == 3


def test_chain_cluster_types():
    # chain between two principal components: p1 - c1 - c2 - p2
    verts = [
        lm.Vertex("p1", 0, (), 3, (1,), "principal"),
        lm.Vertex("p2", 0, (), 3, (1,), "principal"),
        lm.Vertex("c1", 0, {1}, 1, (0,), "bubble"),
        lm.Vertex("c2", 0, {1}, 1, (-2,), "bubble"),
    ]
    edges = [
        lm.Edge("e1", ("p1", "c1"), {1}, contact=(1,)),
        lm.Edge("t", ("c1", "c2"), {1}, contact=(1,)),
        lm.Edge("e2", ("c2", "p2"), {1}, contact=(-1,)),
    ]
    g = lm.DecoratedDualGraph(1, 3, verts, edges,
                              [lm.Leg("z2", "p2", (0,)), lm.Leg("z3", "p2", (0,))])
    model = lm.MapModel(g)
    report = lm.classify_cluster(model, ["c1", "c2"], nef=True)
    assert report.cluster_type == "iii"
    assert report.bound_ok
    assert all(v <= 2 for v in report.delta_plus.values())
    assert report.chain_violations == ()


def test_cluster_type_i_and_ii():
    verts = [
        lm.Vertex("p", 0, (), 3, (1,), "principal"),
        lm.Vertex("c", 0, {1}, 0, (-1,), "bubble"),
    ]
    edges = [lm.Edge("e", ("p", "c"), {1}, contact=(1,))]
    legs = [lm.Leg("z", "c", (0,)), lm.Leg("w", "c", (0,))]
    g = lm.DecoratedDualGraph(1, 3, verts, edges, legs)
    model = lm.MapModel(g)
    two_marks = lm.classify_cluster(model, ["c"], nef=True)
    assert two_marks.cluster_type == "not-a-cluster"
    g2 = lm.DecoratedDualGraph(1, 3, verts, edges, [lm.Leg("z", "c", (0,))])
    report = lm.classify_cluster(lm.MapModel(g2), ["c"], nef=True)
    assert report.cluster_type == "ii"
    g3 = lm.DecoratedDualGraph(1, 3, verts, edges, [])
    report = lm.classify_cluster(lm.MapModel(g3), ["c"], nef=True)
    assert report.cluster_type == "i"


def test_chain_violation_detected():
    # a positive internal node pointing into a mark-free sub-cluster: the
    # contradiction pattern of the positivity bound's proof
    verts = [
        lm.Vertex("p", 0, (), 3, (1,), "principal"),
        lm.Vertex("c1", 0, {1}, 1, (0,), "bubble"),
        lm.Vertex("c2", 0, {1}, 1, (-1,), "bubble"),
    ]
    edges = [
        lm.Edge("e", ("p", "c1"), {1}, contact=(1,)),
        lm.Edge("t", ("c1", "c2"), {1}, contact=(1,)),
    ]
    g = lm.DecoratedDualGraph(1, 3, verts, edges, [])
    report = lm.classify_cluster(lm.MapModel(g), ["c1", "c2"], nef=True)
    assert report.cluster_type == "i"
    assert report.chain_violations == (("t", "c1"),)


def test_type_i_rooted_trees_respect_bound():
    # enumerate admissible decorations of small rooted chains with
    # non-negative pairings (a Nef shadow) and check delta+ <= 2 throughout
    for length in (1, 2, 3):
        verts = [lm.Vertex("p", 0, (), 3, (1,), "principal")]
        edges = []
        prev = "p"
        for k in range(length):
            vid = f"c{k}"
            verts.append(lm.Vertex(vid, 0, {1}, 0, (0,), "bubble"))
            edges.append(lm.Edge(f"e{k}", (prev, vid), {1}))
            prev = vid
        skeleton = lm.DecoratedDualGraph(1, 3, verts, edges, [])
        sol = lm.solve_decorations(skeleton, bound=3)
        assert sol.unique or sol.status == "none"
        if sol.status == "none":
            continue
        assignment = sol.assignments[0]
        decorated = skeleton.with_edges(
            [lm.Edge(e.id, e.ends, e.stratum, contact=assignment[e.id])
             for e in skeleton.edges]
        )
        # nonneg pairings everywhere: the bound holds on the whole chain
        report = lm.classify_cluster(
            lm.MapModel(decorated), [f"c{k}" for k in range(length)], nef=True
        )
        assert report.bound_ok


def test_q_monotonicity_chain_mc_dep():
    # under a semi-positive profile the tracking quantity dominates the
    # reduced one plus the fiber dimension
    g, _ = mc_dep(1, 2, 3, 4, 5, 6, 7, 8, labels=True)
    trace = lm.rt_reduce(lm.MapModel(g))
    fiber = lm.cover_fiber_dim(2, 5, 5)
    assert trace.q_values[0] >= trace.q_values[1] + fiber


def test_cluster_rejects_principal_members():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    verts = [v if v.id != "v1" else
             lm.Vertex("v1", 0, (), 2, (1, 1), "principal") for v in g.vertices]
    g2 = lm.DecoratedDualGraph(2, 2, verts, g.edges, g.legs)
    with pytest.raises(InputError):
        lm.classify_cluster(lm.MapModel(g2), ["v1"], nef=True)


def test_first_stage_counts_agree_with_graph_formulas(rng):
    # the tracking quantity, ledger and genus are one formula each, shared by
    # the decorated graph and the reduction's count-level snapshot
    for _ in range(60):
        model = random_map_model(rng)
        trace = lm.rt_reduce(model)
        assert trace.q_values[0] == lm.q_quantity(model.graph)
        assert trace.genus_by_stage[0] == model.graph.total_genus()


def test_two_ghost_clusters_collapse_one_at_a_time():
    trace = lm.rt_reduce(lm.MapModel(two_ghost_clusters()))
    assert trace.ghost_deltas == ((("g1", "g2"), 2), (("g3",), 1))
    assert trace.stage("gamma_prime").nodes == {}
