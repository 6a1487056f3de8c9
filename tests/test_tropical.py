import random
import time
from fractions import Fraction

import pytest

import logmoduli as lm
from logmoduli import linprog
from logmoduli.errors import SizeCapError

from conftest import good_ex2, random_balanced_graph, two_line_ghost, zero_class_graph


def test_two_line_ghost_feasible_with_checked_witness():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    res = lm.tropical_feasible(g)
    assert res.feasible
    assert res.witness.check(g)
    # the displayed witness is also valid
    stated = lm.TropicalWitness(
        {"e1": Fraction(1), "e2": Fraction(1), "e3": Fraction(1)},
        {("v0", 1): Fraction(1), ("v0", 2): Fraction(1)},
    )
    assert stated.check(g)
    lam, slopes = stated.lam, stated.slopes
    refused = [
        (lam, {("v0", 1): Fraction(1)}),  # a slope missing
        ({"e1": Fraction(1), "e2": Fraction(1)}, slopes),  # an edge length missing
        (lam, {**slopes, ("v1", 1): Fraction(1)}),  # a key rho has no variable for
        ({e: Fraction(0) for e in lam}, {k: Fraction(0) for k in slopes}),  # zero entries
        ({**lam, "e1": Fraction(2)}, slopes),  # positive, but e1's equations fail
    ]
    for bad_lam, bad_slopes in refused:
        assert not lm.TropicalWitness(bad_lam, bad_slopes).check(g)
    # one vertex on a divisor: its slope is a variable, so the empty witness fails
    lone = lm.DecoratedDualGraph(1, 2, [lm.Vertex("a", 0, {1}, 0, (0,))], [], [])
    assert not lm.TropicalWitness({}, {}).check(lone)
    assert lm.tropical_feasible(lone).witness.check(lone)


def test_three_hyperplane_star_feasible_with_stated_witness():
    g, _ = good_ex2({(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3) if i != j})
    res = lm.tropical_feasible(g)
    assert res.feasible
    assert res.witness.check(g)
    stated = lm.TropicalWitness(
        {"e1": Fraction(1), "e2": Fraction(1), "e3": Fraction(1)},
        {("v0", 1): Fraction(1), ("v0", 2): Fraction(1), ("v0", 3): Fraction(1),
         ("v1", 1): Fraction(3), ("v2", 2): Fraction(3), ("v3", 3): Fraction(3)},
    )
    assert stated.check(g)


def _parallel_infeasible():
    verts = [lm.Vertex("a", 0, {1}, 0, (0,)), lm.Vertex("b", 0, {1}, 0, (0,))]
    edges = [lm.Edge("e0", ("a", "b"), {1}, contact=(1,)),
             lm.Edge("e1", ("a", "b"), {1}, contact=(-1,))]
    legs = [lm.Leg("z0", "a", (-1,)), lm.Leg("z1", "a", (1,)),
            lm.Leg("z2", "b", (1,)), lm.Leg("z3", "b", (-1,))]
    return lm.DecoratedDualGraph(1, 2, verts, edges, legs)


def test_parallel_edges_sign_contradiction_infeasible():
    g = _parallel_infeasible()
    res = lm.tropical_feasible(g)
    assert not res.feasible
    assert res.certificate  # Farkas data present and verifiable
    vars_count = len(g.edges) + sum(len(v.stratum) for v in g.vertices)
    from logmoduli.tropical import _system

    _, rows, labels = _system(g)
    shift = [sum(r) for r in rows]
    b2 = [-s for s in shift]
    y = [res.certificate.get(lab, Fraction(0)) for lab in labels]
    assert linprog.verify_farkas(rows, b2, y)


def _slope_length_equations(graph):
    """s(ends[1], i) - s(ends[0], i) = lam_e * contact_i for every edge e and
    coordinate i, built from the graph alone (a slope outside its vertex's
    stratum is 0): the variable index and the nonzero rows by (edge, i)."""
    cols = {("lam", e.id): k for k, e in enumerate(graph.edges)}
    for v in graph.vertices:
        for i in sorted(v.stratum):
            cols[("s", v.id, i)] = len(cols)
    rows = {}
    for e in graph.edges:
        start, end = e.ends
        for i in range(1, graph.N + 1):
            row = [0] * len(cols)
            row[cols[("lam", e.id)]] -= e.contact[i - 1]
            if ("s", end, i) in cols:
                row[cols[("s", end, i)]] += 1
            if ("s", start, i) in cols:
                row[cols[("s", start, i)]] -= 1
            if any(row):
                rows[(e.id, i)] = row
    return cols, rows


def test_witnesses_and_certificates_hold_on_equations_from_the_graph():
    rng = random.Random(31)
    verdicts = []
    for _ in range(40):
        g = random_balanced_graph(rng, max_vertices=5, cyclic=True)
        cols, rows = _slope_length_equations(g)
        res = lm.tropical_feasible(g)
        verdicts.append(res.feasible)
        if res.feasible:
            x = [None] * len(cols)
            for eid, value in res.witness.lam.items():
                x[cols[("lam", eid)]] = value
            for (vid, i), value in res.witness.slopes.items():
                x[cols[("s", vid, i)]] = value
            assert all(value is not None and value > 0 for value in x)
            assert all(sum(a * t for a, t in zip(row, x)) == 0 for row in rows.values())
        else:
            assert set(res.certificate) <= set(rows)
            labels = sorted(rows)
            a = [rows[label] for label in labels]
            y = [res.certificate.get(label, Fraction(0)) for label in labels]
            assert linprog.verify_farkas(a, [-sum(row) for row in a], y)
    assert any(verdicts) and not all(verdicts)


def test_zero_decoration_feasible_nonzero_infeasible_on_cycle():
    g = zero_class_graph({1}, shape="cycle")
    assert lm.tropical_feasible(g).feasible
    # give the cycle a nonzero admissible decoration: flows +1 around
    edges = [lm.Edge("e1", ("u1", "u2"), {1}, contact=(1,)),
             lm.Edge("e2", ("u2", "u3"), {1}, contact=(1,)),
             lm.Edge("e3", ("u3", "u1"), {1}, contact=(1,))]
    g2 = g.with_edges(edges)
    assert lm.validate_graph(g2).valid
    assert not lm.tropical_feasible(g2).feasible


def test_loop_forces_zero_contact():
    verts = [lm.Vertex("a", 0, {1}, 0, (0,))]
    loop = lm.Edge("e", ("a", "a"), {1}, contact=(1,))
    g = lm.DecoratedDualGraph(1, 2, verts, [loop], [])
    assert not lm.tropical_feasible(g).feasible
    zero_loop = lm.Edge("e", ("a", "a"), {1}, contact=(0,))
    g2 = g.with_edges([zero_loop])
    assert lm.tropical_feasible(g2).feasible


def test_cone_two_line_single_ray():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    cone = lm.cone_sigma(g)
    assert cone.dimension == 1
    assert cone.rays == ((1, 1, 1, 1, 1),)
    assert cone.is_strictly_convex


def test_cone_trivial_graph():
    g = lm.DecoratedDualGraph(1, 2, [lm.Vertex("v", 0, (), 0, (0,))], [],
                              [lm.Leg("z1", "v", (0,)), lm.Leg("z2", "v", (0,)),
                               lm.Leg("z3", "v", (0,))])
    cone = lm.cone_sigma(g)
    assert cone.dimension == 0
    assert cone.rays == ()


def test_cone_dim_less_than_kernel_when_infeasible():
    g = _parallel_infeasible()
    rho = lm.build_rho(g)
    cone = lm.cone_sigma(g)
    assert cone.dimension < rho.kernel_rank
    assert rho.kernel_rank == 2 and cone.dimension == 1


def test_cone_size_cap():
    I = frozenset(range(1, 4))
    verts = [lm.Vertex(f"u{k}", 0, I, 0, (0, 0, 0), "ghost") for k in range(8)]
    edges = [lm.Edge(f"e{k}", (f"u{k}", f"u{k+1}"), I, contact=(0, 0, 0))
             for k in range(7)]
    legs = [lm.Leg("z", "u0", (0, 0, 0))]
    g = lm.DecoratedDualGraph(3, 3, verts, edges, legs)
    with pytest.raises(SizeCapError):
        lm.cone_sigma(g)


def test_scale_invariance_of_witness():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    res = lm.tropical_feasible(g)
    w = res.witness
    for c in (Fraction(2), Fraction(1, 3), Fraction(7, 5)):
        scaled = lm.TropicalWitness(
            {k: c * v for k, v in w.lam.items()},
            {k: c * v for k, v in w.slopes.items()},
        )
        assert scaled.check(g)


def test_cross_formulation_cone_vs_lp(rng):
    # feasibility holds iff the cone has a strictly positive point, iff the
    # sum of its rays is strictly positive; then the cone fills the kernel
    checked = 0
    while checked < 40:
        g = random_balanced_graph(rng, max_vertices=3, N_max=2, cyclic=True)
        rho = lm.build_rho(g)
        if rho.n_cols == 0 or rho.n_cols > 12 or rho.kernel_rank > 4:
            continue
        lp = lm.tropical_feasible(g)
        cone = lm.cone_sigma(g)
        if cone.rays:
            total = [sum(r[j] for r in cone.rays) for j in range(rho.n_cols)]
            strictly_positive = all(x > 0 for x in total)
        else:
            strictly_positive = rho.n_cols == 0
        assert lp.feasible == strictly_positive
        if lp.feasible:
            assert cone.dimension == rho.kernel_rank
        assert cone.is_strictly_convex
        checked += 1


def test_lp_agrees_with_fourier_motzkin(rng):
    checked = 0
    for _ in range(400):
        g = random_balanced_graph(rng, max_vertices=4, N_max=2, cyclic=True)
        nvars = len(g.edges) + sum(len(v.stratum) for v in g.vertices)
        if nvars == 0 or nvars > 8:
            continue
        lp = lm.tropical_feasible(g)
        fm = lm.feasible_by_fourier_motzkin(g)
        assert lp.feasible == fm
        if lp.feasible:
            assert lp.witness.check(g)
        checked += 1
        if checked >= 200:
            break
    assert checked >= 200


def _row_blowup_graph():
    """A 10-variable graph on which elimination without Chernikov's rule
    grew to thousands of rows and did not finish in 20 s."""
    rng = random.Random(5)
    for _ in range(34):
        g = random_balanced_graph(rng, max_vertices=6, cyclic=rng.random() < 0.5)
    return g


def test_fourier_motzkin_finishes_on_a_row_blowup_graph():
    g = _row_blowup_graph()
    assert len(lm.tropical._system(g)[0]) == 10
    start = time.perf_counter()
    fm = lm.feasible_by_fourier_motzkin(g)
    assert time.perf_counter() - start < 2
    assert fm == lm.tropical_feasible(g).feasible


def test_fourier_motzkin_agrees_with_lp_up_to_its_cap():
    rng = random.Random(5)
    sizes, verdicts = set(), set()
    for _ in range(120):
        g = random_balanced_graph(rng, max_vertices=6, cyclic=rng.random() < 0.5)
        nvars = len(lm.tropical._system(g)[0])
        if nvars <= 12:
            feasible = lm.tropical_feasible(g).feasible
            assert lm.feasible_by_fourier_motzkin(g) == feasible
            sizes.add(nvars)
            verdicts.add(feasible)
    assert max(sizes) == 12 and verdicts == {True, False}


def test_fourier_motzkin_row_cap(monkeypatch):
    monkeypatch.setattr(linprog, "_FM_ROW_CAP", 10)
    with pytest.raises(SizeCapError, match="10 rows"):
        lm.feasible_by_fourier_motzkin(_row_blowup_graph())


def test_cone_rejects_multinode_graph():
    g, data = two_line_ghost(1, 2, 3, 4, 5)
    collapsed, _, _, _, _ = lm.collapse_ghost(g, data, "v0")
    with pytest.raises(lm.InputError, match="multi-node edge not allowed"):
        lm.cone_sigma(collapsed)
    # the witness check refuses the graph as tropical_feasible does
    for refuses in (lm.tropical_feasible, lm.TropicalWitness({}, {}).check):
        with pytest.raises(lm.InputError, match="multi-node edge not allowed"):
            refuses(collapsed)
