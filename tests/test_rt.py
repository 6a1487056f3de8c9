import collections
import dataclasses
import hashlib
import json
import random
import re

import pytest

import logmoduli as lm
from logmoduli import cli
from logmoduli.errors import InputError

from conftest import (
    good_ex2, mc_dep, random_map_model, random_rt_model, two_ghost_clusters, two_line_ghost,
)


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


def test_rt_refuses_to_merge_points_or_components_of_different_strata():
    ghosts = lm.DecoratedDualGraph(1, 2, [
        lm.Vertex("p", 0, (), 1, (0,), "principal"),
        lm.Vertex("g1", 0, {1}, 0, (0,), "ghost"),
        lm.Vertex("g2", 0, (), 0, (0,), "ghost"),
    ], [lm.Edge("a", ("p", "g1"), {1}), lm.Edge("t", ("g1", "g2"), {1})], [])
    # a double cover whose two nodes share an image label but not a stratum
    cover = lm.DecoratedDualGraph(1, 2, [
        lm.Vertex("c", 0, (), 2, (0,), "bubble", cover_degree=2, base_c1_log=1),
        lm.Vertex("p1", 0, {1}, 1, (0,), "principal"),
        lm.Vertex("p2", 0, (), 1, (0,), "principal"),
    ], [lm.Edge("n1", ("c", "p1"), {1}, image_labels=("x", None)),
        lm.Edge("n2", ("c", "p2"), (), image_labels=("x", None))], [])
    # adjacent bubbles with one image label but different strata
    bubbles = lm.DecoratedDualGraph(1, 2, [
        lm.Vertex("a", 0, {1}, 1, (0,), "bubble", image_label="L"),
        lm.Vertex("b", 0, (), 1, (0,), "bubble", image_label="L"),
    ], [lm.Edge("n", ("a", "b"), {1})], [])
    cases = [
        (ghosts, "ghost cluster strata are inconsistent"),
        (cover, "merging nodes with different strata at label 'x'"),
        (bubbles, "cannot identify components with different strata"),
    ]
    for graph, message in cases:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            lm.rt_reduce(lm.MapModel(graph))


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


# -- the reduction pinned on a seeded pool ------------------------------------

# every output of rt_reduce and classify_cluster on the pool below, recorded
# at d806948, before each reduction step became one pass; the models listed
# in RT_POOL_CRASHES ended there in a KeyError and are left out
RT_POOL_DIGEST = "220f2bc9c6a1dbdd"
RT_POOL_CRASHES = (288, 338, 523, 648, 1632, 2007, 2145, 2439)
RT_POOL_OUTCOMES = {
    "reduced": 1608, "ghost": 1361, "cover": 784, "step iii": 204, "step iv": 270,
    "error: cover bubble _ needs base pairings": 89,
    "error: cover bubble _: class pairing _ != degree x base _": 114,
    "error: ghost cluster is not a tree": 457,
    "error: ghost clusters must consist of ordinary nodes": 171,
    "error: image label _ identifies a marked point with a node; unsupported": 380,
    "error: map model graph is invalid: [bubble-genus] v_": 173,
    "cluster i": 594, "cluster ii": 1035, "cluster iii": 542, "cluster not-a-cluster": 6045,
    "cluster error: vertex _ is not a bubble": 2704, "chain violation": 47,
}


def _plain(x):
    """x as JSON-ready lists, keeping every dict's order and every field."""
    if dataclasses.is_dataclass(x):
        return [[f.name, _plain(getattr(x, f.name))] for f in dataclasses.fields(x)]
    if isinstance(x, dict):
        return [[_plain(k), _plain(v)] for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_plain(y) for y in x]
    if isinstance(x, frozenset):
        return sorted(x)
    return x


def _error(exc):
    """(outcome class, output) of a LogModuliError: its message up to any
    second colon, with quoted names and numbers replaced, is its family."""
    family = ":".join(re.sub(r"'[^']*'|\d+", "_", str(exc)).split(":")[:2])
    return f"error: {family}", [type(exc).__name__, str(exc)]


def _rt_pool():
    """(index, model graph, four (cluster ids, nef) picks) of the pool, all
    drawn before anything runs, so an outcome cannot shift a later draw."""
    rng = random.Random(21)
    for index in range(3000):
        graph = random_rt_model(rng)
        picks = [(_connected_pick(rng, graph), rng.choice((None, True, False)))
                 for _ in range(4)]
        yield index, graph, picks


def _connected_pick(rng, graph):
    """A random vertex, the principal one included, grown by up to two
    adjacent non-principal vertices."""
    ids = [rng.choice(graph.vertices).id]
    for _ in range(rng.randint(0, 2)):
        nearby = sorted({vid for e in graph.edges if set(e.ends) & set(ids) for vid in e.ends
                         if vid not in ids and graph.vertex(vid).kind != "principal"})
        if nearby:
            ids.append(rng.choice(nearby))
    return ids


def _rt_outcome(graph, picks):
    """(outcome classes, every output) of one pool model."""
    try:
        model = lm.MapModel(graph)
    except lm.LogModuliError as exc:
        cls, out = _error(exc)
        return [cls], out
    classes = []
    try:
        trace = lm.rt_reduce(model)
    except lm.LogModuliError as exc:
        cls, rt_out = _error(exc)
        classes.append(cls)
    else:
        rt_out = _plain(trace)
        prime = trace.stage("gamma_prime")
        classes.append("reduced")
        classes += ["ghost"] * bool(trace.ghost_deltas) + ["cover"] * bool(trace.cover_deltas)
        classes += ["step iii"] * any(len(v.origins) > 1 for v in prime.vertices.values())
        classes += ["step iv"] * (len(trace.stage("gamma_double_prime").vertices)
                                  < len(prime.vertices))
    clusters = []
    for ids, nef in picks:
        try:
            report = lm.classify_cluster(model, ids, nef=nef)
        except lm.LogModuliError as exc:
            cls, out = _error(exc)
            classes.append("cluster " + cls)
            clusters.append(out)
            continue
        classes.append("cluster " + report.cluster_type)
        classes += ["chain violation"] * bool(report.chain_violations)
        clusters.append(_plain(report))
    return classes, [rt_out, clusters]


def test_rt_pool_matches_the_recorded_digest():
    """Every stage's vertices, nodes and legs in their order, the tracking
    quantities, deltas, red map, multiplicities, genera and ledgers, four
    classify_cluster reports, and each error's class and message, on 3000
    seeded models."""
    digest = hashlib.sha256()
    outcomes = collections.Counter()
    for index, graph, picks in _rt_pool():
        if index in RT_POOL_CRASHES:
            continue
        classes, out = _rt_outcome(graph, picks)
        outcomes.update(classes)
        digest.update(json.dumps(out, sort_keys=True).encode())
    assert dict(outcomes) == RT_POOL_OUTCOMES
    assert digest.hexdigest()[:16] == RT_POOL_DIGEST


def test_rt_pool_models_that_crashed_now_reduce_or_raise_an_input_error():
    # fusing one image label used to delete a node that the next label's
    # points still named
    for index, graph, picks in _rt_pool():
        if index in RT_POOL_CRASHES:
            classes, _ = _rt_outcome(graph, picks)
            assert classes[0] == "reduced" or classes[0].startswith("error: ")


def test_rt_fuses_labels_in_turn_on_a_loop_that_carries_two_labels(tmp_path, capsys):
    # fusing label a on b removes the loop e2, whose other end carries label b
    doc = {"N": 0, "n": 3,
           "vertices": [{"id": "p", "c1_log": 1, "degrees": []},
                        {"id": "b", "kind": "bubble", "c1_log": 1, "degrees": []}],
           "edges": [{"id": "e1", "ends": ["p", "b"], "contact": [], "image_labels": {"1": "a"}},
                     {"id": "e2", "ends": ["b", "b"], "contact": [],
                      "image_labels": {"0": "a", "1": "b"}},
                     {"id": "e3", "ends": ["p", "b"], "contact": [], "image_labels": {"1": "b"}}],
           "legs": []}
    path = tmp_path / "loop_two_labels.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["rt", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert payload["stages"]["gamma_double_prime"]["nodes"] == {"e1": ["b", "b", "p", "p"]}
