"""Shared builders for the worked examples and randomized graph generators."""

import random
from fractions import Fraction

import pytest

import logmoduli as lm
from logmoduli.qi import GaussianRational as Q
from logmoduli.sections import P1Point

# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


def two_line_ghost(m1, m2, m3, a2, a3):
    """Two coordinate lines in the plane, three lines through their crossing,
    ghost bubble carrying both marked points; nodes at 1, a2, a3."""
    verts = [
        lm.Vertex("v0", 0, {1, 2}, 0, (0, 0), "ghost"),
        lm.Vertex("v1", 0, (), 1, (1, 1), "bubble"),
        lm.Vertex("v2", 0, (), 1, (1, 1), "bubble"),
        lm.Vertex("v3", 0, (), 1, (1, 1), "bubble"),
    ]
    edges = [
        lm.Edge("e1", ("v0", "v1"), {1, 2}, contact=(-1, -1)),
        lm.Edge("e2", ("v0", "v2"), {1, 2}, contact=(-1, -1)),
        lm.Edge("e3", ("v0", "v3"), {1, 2}, contact=(-1, -1)),
    ]
    legs = [lm.Leg("z1", "v0", (2, 1)), lm.Leg("z2", "v0", (1, 2))]
    g = lm.DecoratedDualGraph(2, 2, verts, edges, legs)
    data = lm.CurveData()
    data.positions[("e1", 0)] = P1Point.finite(1)
    data.positions[("e2", 0)] = P1Point.finite(a2)
    data.positions[("e3", 0)] = P1Point.finite(a3)
    data.leg_positions["z1"] = P1Point.finite(0)
    data.leg_positions["z2"] = P1Point.infinity()
    for eid, m in (("e1", m1), ("e2", m2), ("e3", m3)):
        data.eta[(eid, 1, 1)] = Q(1)
        data.eta[(eid, 1, 2)] = m if isinstance(m, Q) else Q(m)
    return g, data


def two_line_characters():
    idx = [("e1", 1), ("e1", 2), ("e2", 1), ("e2", 2), ("e3", 1), ("e3", 2)]
    return lm.Characters([[1, -1, -1, 1, 0, 0], [0, 0, 1, -1, -1, 1]], idx)


def two_line_branch_characters(node_id="m"):
    idx = [(node_id, j, i) for j in range(3) for i in (1, 2)]
    return lm.Characters([[1, -1, -1, 1, 0, 0], [0, 0, 1, -1, -1, 1]], idx)


def good_ex1(m1, m2, m3, alpha):
    """Single marked point at infinity with full tangency; nodes at 0, 1, alpha."""
    verts = [
        lm.Vertex("v0", 0, {1, 2}, 0, (0, 0), "ghost"),
        lm.Vertex("v1", 0, (), 1, (1, 1), "bubble"),
        lm.Vertex("v2", 0, (), 1, (1, 1), "bubble"),
        lm.Vertex("v3", 0, (), 1, (1, 1), "bubble"),
    ]
    edges = [
        lm.Edge("e1", ("v0", "v1"), {1, 2}, contact=(-1, -1)),
        lm.Edge("e2", ("v0", "v2"), {1, 2}, contact=(-1, -1)),
        lm.Edge("e3", ("v0", "v3"), {1, 2}, contact=(-1, -1)),
    ]
    legs = [lm.Leg("z1", "v0", (3, 3))]
    g = lm.DecoratedDualGraph(2, 2, verts, edges, legs)
    data = lm.CurveData()
    data.positions[("e1", 0)] = P1Point.finite(0)
    data.positions[("e2", 0)] = P1Point.finite(1)
    data.positions[("e3", 0)] = P1Point.finite(alpha)
    data.leg_positions["z1"] = P1Point.infinity()
    for eid, m in (("e1", m1), ("e2", m2), ("e3", m3)):
        data.eta[(eid, 1, 1)] = Q(1)
        data.eta[(eid, 1, 2)] = m if isinstance(m, Q) else Q(m)
    return g, data


def good_ex2(slopes, scales=None, nodes=(0, 1, None)):
    """Three coordinate hyperplanes in projective 3-space; three lines, one in
    each hyperplane, through the deepest point, joined by a ghost.

    slopes: dict (i, j) -> nonzero value for i != j; scales: optional section
    scales per line; nodes: ghost-side node positions (None = infinity).
    """
    scales = scales or {1: Q(1), 2: Q(1), 3: Q(1)}
    verts = [lm.Vertex("v0", 0, {1, 2, 3}, 0, (0, 0, 0), "ghost")]
    s_e = {1: (-2, 1, 1), 2: (1, -2, 1), 3: (1, 1, -2)}
    legs = []
    edges = []
    for i in (1, 2, 3):
        verts.append(lm.Vertex(f"v{i}", 0, {i}, 1, (1, 1, 1), "principal"))
        edges.append(lm.Edge(f"e{i}", (f"v{i}", "v0"), {1, 2, 3}, contact=s_e[i]))
        contact = tuple(3 if j == i else 0 for j in (1, 2, 3))
        legs.append(lm.Leg(f"z{i}", f"v{i}", contact))
    g = lm.DecoratedDualGraph(3, 3, verts, edges, legs)
    data = lm.CurveData()
    for i, q in zip((1, 2, 3), nodes):
        pos = P1Point.infinity() if q is None else P1Point.finite(q)
        data.positions[(f"e{i}", 1)] = pos  # ghost side is end 1 here
        data.positions[(f"e{i}", 0)] = P1Point.finite(0)  # node on the line side
        data.leg_positions[f"z{i}"] = P1Point.finite(1)
        # line i carries its own section for coordinate i: pole of order 2 at
        # the node, zero of order 3 at the marked point
        data.sections.setdefault(f"v{i}", {})[i] = lm.build_section(
            1, [(P1Point.finite(0), -2), (P1Point.finite(1), 3)], scales[i]
        )
        for j in (1, 2, 3):
            if j != i:
                val = slopes[(i, j)]
                data.eta[(f"e{i}", 0, j)] = val if isinstance(val, Q) else Q(val)
    return g, data


def good_ex2_character():
    idx = [(f"e{i}", j) for i in (1, 2, 3) for j in (1, 2, 3)]
    row = [0] * 9

    def setc(i, j, val):
        row[idx.index((f"e{i}", j))] = val

    setc(1, 2, 1)
    setc(2, 3, 1)
    setc(3, 1, 1)
    setc(1, 3, -1)
    setc(3, 2, -1)
    setc(2, 1, -1)
    return lm.Characters([row], idx)


def good_ex2_branch_character(node_id="m"):
    idx = [(node_id, j, i) for j in range(3) for i in (1, 2, 3)]
    row = [0] * 9
    pos = {key: k for k, key in enumerate(idx)}
    row[pos[(node_id, 0, 2)]] = 1
    row[pos[(node_id, 1, 3)]] = 1
    row[pos[(node_id, 2, 1)]] = 1
    row[pos[(node_id, 0, 3)]] = -1
    row[pos[(node_id, 2, 2)]] = -1
    row[pos[(node_id, 1, 1)]] = -1
    return lm.Characters([row], idx)


def bad_ex1(m2, m3, alpha, tangency_eta=None):
    """Two lines and a ramified double cover of a coordinate line joined by a
    ghost; nodes at alpha, 0, 1 and the ghost's marked point at infinity."""
    verts = [
        lm.Vertex("v0", 0, {1, 2}, 0, (0, 0), "ghost"),
        lm.Vertex("v1", 0, {2}, 2, (2, 2), "bubble", cover_degree=2,
                  base_degrees=(1, 1), base_c1_log=1),
        lm.Vertex("v2", 0, (), 1, (1, 1), "bubble"),
        lm.Vertex("v3", 0, (), 1, (1, 1), "bubble"),
    ]
    edges = [
        lm.Edge("e1", ("v0", "v1"), {1, 2}, contact=(-2, -1)),
        lm.Edge("e2", ("v0", "v2"), {1, 2}, contact=(-1, -1)),
        lm.Edge("e3", ("v0", "v3"), {1, 2}, contact=(-1, -1)),
    ]
    legs = [lm.Leg("z1", "v0", (4, 3)), lm.Leg("z2", "v1", (0, 1))]
    g = lm.DecoratedDualGraph(2, 2, verts, edges, legs)
    data = lm.CurveData()
    data.positions[("e1", 0)] = P1Point.finite(alpha)
    data.positions[("e2", 0)] = P1Point.finite(0)
    data.positions[("e3", 0)] = P1Point.finite(1)
    data.leg_positions["z1"] = P1Point.infinity()
    # the double cover's domain: node at 0, second marked point at 1
    data.positions[("e1", 1)] = P1Point.finite(0)
    data.leg_positions["z2"] = P1Point.finite(1)
    data.eta[("e1", 1, 1)] = tangency_eta or Q(1)
    for eid, m in (("e2", m2), ("e3", m3)):
        data.eta[(eid, 1, 1)] = Q(1)
        data.eta[(eid, 1, 2)] = m if isinstance(m, Q) else Q(m)
    return g, data


def bad_ex1_character():
    idx = [("e1", 1), ("e1", 2), ("e2", 1), ("e2", 2), ("e3", 1), ("e3", 2)]
    return lm.Characters([[0, 0, 1, -1, -1, 1]], idx)


def bad_ex1_branch_character(node_id="m"):
    idx = [(node_id, j, i) for j in range(3) for i in (1, 2)]
    return lm.Characters([[0, 0, 1, -1, -1, 1]], idx)


def mc_dep(m1, m2, m3, z1, z2, q1, q2, q3, labels=False):
    """Double cover of the deepest stratum line joined to three lines; the
    marked points carry full-degree tangency with one divisor each."""
    verts = [
        lm.Vertex("v0", 0, {1, 2}, 4, (2, 2), "bubble", cover_degree=2,
                  base_degrees=(1, 1), base_c1_log=2,
                  image_label="L" if labels else None),
        lm.Vertex("v1", 0, (), 2, (1, 1), "bubble"),
        lm.Vertex("v2", 0, (), 2, (1, 1), "bubble"),
        lm.Vertex("v3", 0, (), 2, (1, 1), "bubble"),
    ]
    def lab(name):
        return name if labels else None

    edges = [
        lm.Edge("e1", ("v0", "v1"), {1, 2}, contact=(-1, -1),
                image_labels=(lab("alpha"), None)),
        lm.Edge("e2", ("v0", "v2"), {1, 2}, contact=(-1, -1),
                image_labels=(lab("alpha"), None)),
        lm.Edge("e3", ("v0", "v3"), {1, 2}, contact=(-1, -1),
                image_labels=(lab("alpha3"), None)),
    ]
    legs = [
        lm.Leg("z1", "v0", (5, 0), image_label=lab("beta")),
        lm.Leg("z2", "v0", (0, 5), image_label=lab("beta")),
    ]
    g = lm.DecoratedDualGraph(2, 3, verts, edges, legs)
    data = lm.CurveData()
    data.positions[("e1", 0)] = P1Point.finite(q1)
    data.positions[("e2", 0)] = P1Point.finite(q2)
    data.positions[("e3", 0)] = P1Point.finite(q3)
    data.leg_positions["z1"] = P1Point.finite(z1)
    data.leg_positions["z2"] = P1Point.finite(z2)
    for eid, m in (("e1", m1), ("e2", m2), ("e3", m3)):
        data.eta[(eid, 1, 1)] = Q(1)
        data.eta[(eid, 1, 2)] = m if isinstance(m, Q) else Q(m)
    return g, data


def mc_issue(a, d):
    """a lines meeting the deepest stratum plus a degree-d cover of a line in
    it; edge contacts follow the displayed kernel generator."""
    verts = [
        lm.Vertex("v0", 0, {1, 2}, d, (3 * d - a, d), "bubble", cover_degree=d,
                  base_degrees=(3, 1), base_c1_log=1, image_label="L"),
    ]
    edges = []
    for j in range(1, a + 1):
        verts.append(lm.Vertex(f"v{j}", 0, (), 1, (4, 1), "bubble"))
        edges.append(lm.Edge(f"e{j}", (f"v{j}", "v0"), {1, 2}, contact=(4, 1),
                             image_labels=(None, f"p{j}")))
    legs = [lm.Leg("z1", "v0", (3 * (d + a), d + a), image_label="pz")]
    return lm.DecoratedDualGraph(2, 4, verts, edges, legs)


def mc_issue_reduced(a):
    """The underlying simple graph: the image line plus the a lines."""
    verts = [lm.Vertex("v0", 0, {1, 2}, 1, (3, 1), "bubble")]
    edges = []
    for j in range(1, a + 1):
        verts.append(lm.Vertex(f"v{j}", 0, (), 1, (4, 1), "bubble"))
        edges.append(lm.Edge(f"e{j}", (f"v{j}", "v0"), {1, 2}, contact=(4, 1)))
    legs = [lm.Leg("z1", "v0", (3 + 4 * a, 1 + a))]
    return lm.DecoratedDualGraph(2, 4, verts, edges, legs)


# ---------------------------------------------------------------------------
# A = 0 examples
# ---------------------------------------------------------------------------


def zero_class_graph(stratum, shape="tree", k=3):
    """All components constant into one stratum, zero classes, zero legs."""
    I = frozenset(stratum)
    N = max(I) if I else 0
    verts = [
        lm.Vertex("u1", 0, I, 0, (0,) * N, "ghost"),
        lm.Vertex("u2", 0, I, 0, (0,) * N, "ghost"),
        lm.Vertex("u3", 0, I, 0, (0,) * N, "ghost"),
    ]
    edges = [
        lm.Edge("e1", ("u1", "u2"), I, contact=(0,) * N),
        lm.Edge("e2", ("u2", "u3"), I, contact=(0,) * N),
    ]
    if shape == "cycle":
        edges.append(lm.Edge("e3", ("u3", "u1"), I, contact=(0,) * N))
    legs = [lm.Leg(f"z{i}", "u1", (0,) * N) for i in range(1, k + 1)]
    return lm.DecoratedDualGraph(N, 3, verts, edges, legs)


# ---------------------------------------------------------------------------
# randomized generators
# ---------------------------------------------------------------------------


def graph_like_matrices():
    """Seeded matrices shaped like the lattice maps of dual graphs: two or
    three nonzeros per row, 10 to 60 columns, some zero rows and some zero
    columns, tall and wide."""
    rng = random.Random(20261019)
    out = []
    for tall in [True, False] * 15:
        cols = rng.randint(10, 60)
        rows = cols + rng.randint(1, 30) if tall else rng.randint(5, cols - 1)
        used = rng.sample(range(cols), cols - rng.randint(1, 3))  # the rest stay zero
        m = [[0] * cols for _ in range(rows)]
        for row in m:
            if rng.random() < 0.1:
                continue  # a zero row
            for j in rng.sample(used, rng.randint(2, 3)):
                row[j] = rng.choice([1, -1, 1, -1, 2, -2, 3, 4])
        out.append(m)
    return out


def random_balanced_graph(rng: random.Random, max_vertices=5, N_max=3, cyclic=False):
    """A valid decorated graph with nested strata along a random tree; edge
    contacts drawn first, vertex pairings set to balance."""
    N = rng.randint(0, N_max)
    nv = rng.randint(1, max_vertices)
    strata = []
    for _ in range(nv):
        depth = rng.randint(0, N)
        strata.append(frozenset(range(1, depth + 1)))
    edges = []
    for idx in range(1, nv):
        other = rng.randrange(idx)
        edges.append((idx, other))
    if cyclic and nv >= 2:
        for _ in range(rng.randint(0, 2)):
            a = rng.randrange(nv)
            b = rng.randrange(nv)
            if a != b:
                edges.append((a, b))
    return _balanced_graph(rng, N, strata, edges)


def random_cycle_rich_graph(rng: random.Random, nv, N=4, feasible=False):
    """A random spanning tree on nv vertices plus nv // 2 chords, strata
    {1..depth} with depth uniform in 0..N, balanced as above.  With
    feasible, each (vertex, i in its stratum) gets a slope in 1..6 and each
    contact is the slope difference across its edge, so edge lengths 1 are
    a tropical witness."""
    strata = [frozenset(range(1, rng.randint(0, N) + 1)) for _ in range(nv)]
    edges = [(idx, rng.randrange(idx)) for idx in range(1, nv)]
    while len(edges) < nv - 1 + nv // 2:
        a, b = rng.randrange(nv), rng.randrange(nv)
        if a != b:
            edges.append((a, b))
    slopes = [{i: rng.randint(1, 6) for i in st} for st in strata] if feasible else None
    return _balanced_graph(rng, N, strata, edges, slopes)


def _balanced_graph(rng, N, strata, edges, slopes=None):
    """Draw edge contacts (or take slope differences) and legs, then set
    vertex pairings to balance."""
    nv = len(strata)
    edge_objs = []
    contacts = {}
    for eidx, (a, b) in enumerate(edges):
        stratum = strata[a] | strata[b]
        vec = []
        for i in range(1, N + 1):
            if slopes is not None:
                vec.append(slopes[b].get(i, 0) - slopes[a].get(i, 0))
            elif i not in stratum:
                vec.append(0)
            elif i not in strata[a]:
                vec.append(rng.randint(1, 3))
            elif i not in strata[b]:
                vec.append(-rng.randint(1, 3))
            else:
                vec.append(rng.randint(-3, 3))
        contacts[eidx] = tuple(vec)
        edge_objs.append((f"e{eidx}", f"w{a}", f"w{b}", stratum, tuple(vec)))
    leg_count = rng.randint(0, 3)
    legs = []
    leg_sum = {v: [0] * N for v in range(nv)}
    for li in range(leg_count):
        v = rng.randrange(nv)
        vec = []
        for i in range(1, N + 1):
            if i in strata[v]:
                vec.append(rng.randint(-2, 3))
            else:
                vec.append(rng.randint(0, 3))
        legs.append(lm.Leg(f"z{li}", f"w{v}", tuple(vec)))
        for i in range(N):
            leg_sum[v][i] += vec[i]
    totals = {v: [0] * N for v in range(nv)}
    for eidx, (a, b) in enumerate(edges):
        for i in range(N):
            totals[a][i] += contacts[eidx][i]
            totals[b][i] -= contacts[eidx][i]
    verts = []
    for v in range(nv):
        degrees = tuple(totals[v][i] + leg_sum[v][i] for i in range(N))
        genus = rng.randint(0, 2)
        verts.append(
            lm.Vertex(f"w{v}", genus, strata[v], rng.randint(-3, 5), degrees, "principal")
        )
    g = lm.DecoratedDualGraph(
        N, rng.randint(2, 4),
        verts,
        [lm.Edge(e, (va, vb), st, contact=c) for e, va, vb, st, c in edge_objs],
        legs,
    )
    return g


def random_ghost_star(rng: random.Random):
    """A ghost with random special points joined to user-eta branches; the
    ghost's marked point balances the books.  Edge orientations are random."""
    N = rng.randint(1, 3)
    I0 = frozenset(range(1, N + 1))
    branches = rng.randint(2, 4)
    verts = [lm.Vertex("g0", 0, I0, 0, (0,) * N, "ghost")]
    edges = []
    data = lm.CurveData()
    used = set()

    def fresh_point():
        while True:
            z = Q(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                  Fraction(rng.randint(-2, 2), 1))
            if z not in used_vals:
                used_vals.add(z)
                return P1Point.finite(z)

    used_vals = set()
    total = [0] * N
    for j in range(1, branches + 1):
        sub_depth = rng.randint(0, 0)  # branch vertices transverse to everything
        stratum = frozenset()
        vec = tuple(rng.randint(1, 3) for _ in range(N))
        for i in range(N):
            total[i] += vec[i]
        out_of_ghost = rng.random() < 0.5
        if out_of_ghost:
            ends = ("g0", f"b{j}")
            contact = tuple(-x for x in vec)
            ghost_end, branch_end = 0, 1
        else:
            ends = (f"b{j}", "g0")
            contact = vec
            ghost_end, branch_end = 1, 0
        verts.append(lm.Vertex(f"b{j}", 0, stratum, 0, vec, "bubble"))
        edges.append(lm.Edge(f"e{j}", ends, I0, contact=contact))
        data.positions[(f"e{j}", ghost_end)] = fresh_point()
        for i in range(1, N + 1):
            num = 0
            while num == 0:
                cand = Q(Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                         Fraction(rng.randint(-3, 3), 1))
                if not cand.is_zero():
                    num = 1
                    data.eta[(f"e{j}", branch_end, i)] = cand
    legs = [lm.Leg("z1", "g0", tuple(total))]
    data.leg_positions["z1"] = fresh_point()
    g = lm.DecoratedDualGraph(N, 3, verts, edges, legs)
    return g, data


def two_ghost_clusters():
    """A principal component carrying two ghost clusters: the adjacent
    ghosts g1, g2 on node a, and the lone ghost g3 on node b."""
    verts = [
        lm.Vertex("p", 0, (), 2, (2,), "principal"),
        lm.Vertex("g1", 0, {1}, 0, (0,), "ghost"),
        lm.Vertex("g2", 0, {1}, 0, (0,), "ghost"),
        lm.Vertex("g3", 0, {1}, 0, (0,), "ghost"),
    ]
    edges = [
        lm.Edge("a", ("p", "g1"), {1}, contact=(1,)),
        lm.Edge("t", ("g1", "g2"), {1}, contact=(1,)),
        lm.Edge("b", ("p", "g3"), {1}, contact=(1,)),
    ]
    legs = [
        lm.Leg("z1", "g1", (0,)),
        lm.Leg("z2", "g2", (1,)),
        lm.Leg("z3", "g2", (0,)),
        lm.Leg("z4", "g3", (1,)),
        lm.Leg("z5", "g3", (0,)),
    ]
    return lm.DecoratedDualGraph(1, 2, verts, edges, legs)


def random_map_model(rng: random.Random):
    """A stable model with ghosts, covers, and shared image labels."""
    N = rng.randint(1, 2)
    deep = frozenset(range(1, N + 1))
    verts = [lm.Vertex("p0", rng.randint(0, 2), (), rng.randint(0, 4),
                       tuple(rng.randint(1, 3) for _ in range(N)), "principal")]
    edges = []
    legs = []
    leg_idx = 0
    balance = {"p0": [0] * N}

    def add_leg(vid, vec, label=None):
        nonlocal leg_idx
        leg_idx += 1
        legs.append(lm.Leg(f"z{leg_idx}", vid, tuple(vec), image_label=label))
        for i in range(N):
            balance[vid][i] += vec[i]

    n_ghost = rng.randint(0, 2)
    n_cover = rng.randint(0, 2)
    vid_counter = 0
    for _ in range(n_ghost):
        vid_counter += 1
        gid = f"g{vid_counter}"
        verts.append(lm.Vertex(gid, 0, deep, 0, (0,) * N, "ghost"))
        balance[gid] = [0] * N
        vec = tuple(rng.randint(1, 2) for _ in range(N))
        eid = f"ge{vid_counter}"
        edges.append(lm.Edge(eid, ("p0", gid), deep, contact=vec))
        for i in range(N):
            balance["p0"][i] += vec[i]
            balance[gid][i] -= vec[i]
        # marked points to keep the ghost stable and balanced
        add_leg(gid, vec)
        add_leg(gid, (0,) * N)
        add_leg(gid, (0,) * N)
    base_label = "shared"
    for c in range(n_cover):
        vid_counter += 1
        cid = f"c{vid_counter}"
        d = rng.randint(2, 3)
        base_c1 = rng.randint(0, 3)
        base_deg = tuple(rng.randint(0, 2) for _ in range(N))
        label = base_label if rng.random() < 0.5 else f"img{c}"
        verts.append(
            lm.Vertex(cid, 0, deep, d * base_c1,
                      tuple(d * x for x in base_deg), "bubble",
                      image_label=label, cover_degree=d,
                      base_degrees=base_deg, base_c1_log=base_c1)
        )
        balance[cid] = [0] * N
        vec = tuple(rng.randint(1, 2) for _ in range(N))
        eid = f"ce{vid_counter}"
        point_label = f"pt{c}" if rng.random() < 0.5 else None
        edges.append(lm.Edge(eid, ("p0", cid), deep, contact=vec,
                             image_labels=(None, point_label)))
        for i in range(N):
            balance["p0"][i] += vec[i]
            balance[cid][i] -= vec[i]
        need = tuple(d * base_deg[i] - balance[cid][i] for i in range(N))
        add_leg(cid, need, label=f"mk{c}" if rng.random() < 0.5 else None)
    new_verts = []
    for v in verts:
        if v.id == "p0":
            new_verts.append(
                lm.Vertex("p0", v.genus, v.stratum, v.c1_log,
                          tuple(balance["p0"]), "principal")
            )
        else:
            new_verts.append(v)
    g = lm.DecoratedDualGraph(N, rng.randint(2, 4), new_verts, edges, legs)
    return lm.MapModel(g)


def random_rt_model(rng: random.Random):
    """A graph for the reduction, which MapModel or rt_reduce may reject.

    N is 0 or 1, and every stratum is {1} when N = 1, so no sign rule
    applies.  One principal component and 1-7 bubbles and ghosts lie on a
    random tree plus 0-3 extra edges (loops and, rarely, a three-branch
    node included).  Image labels a, b, c or none sit on vertices, edge
    ends and legs; some bubbles are covers of degree 2 or 3; a leg balances
    each ghost, and every other vertex takes its contact sum as pairings.
    A few bubbles break the model: genus 1, a missing base pairing or a
    class pairing off its degree.
    """
    N = rng.randint(0, 1)
    stratum = frozenset(range(1, N + 1))
    labels = ("a", "b", "c", None)
    ids = [f"v{k}" for k in range(rng.randint(2, 8))]
    principal = rng.choice(ids)
    kinds = {vid: "principal" if vid == principal else rng.choice(("bubble", "ghost"))
             for vid in ids}

    def contact():
        return tuple(rng.randint(-2, 2) for _ in range(N))

    def end_labels(ends):
        return tuple(rng.choice(labels) for _ in ends) if rng.random() < 0.6 else None

    pairs = []
    order = ids[:]
    rng.shuffle(order)
    for k in range(1, len(order)):
        pair = [order[k], rng.choice(order[:k])]
        rng.shuffle(pair)
        pairs.append(tuple(pair))
    pairs += [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 3))]
    edges = [lm.Edge(f"e{k}", ends, stratum, contact=contact(), image_labels=end_labels(ends))
             for k, ends in enumerate(pairs, 1)]
    if rng.random() < 0.1:
        ends = tuple(rng.choice(ids) for _ in range(3))
        edges.append(lm.Edge("m", ends, stratum, contacts=((0,) * N,) * 3,
                             image_labels=end_labels(ends)))
    legs = [lm.Leg(f"z{k}", rng.choice(ids), contact(), image_label=rng.choice(labels))
            for k in range(rng.randint(0, 3))]
    graph = lm.DecoratedDualGraph(N, 3, [lm.Vertex(vid, 0, stratum, 0, (0,) * N) for vid in ids],
                                  edges, legs)
    legs += [lm.Leg(f"w{vid}", vid, tuple(-x for x in graph.balance(vid)),
                    image_label=rng.choice(labels))
             for vid in ids if kinds[vid] == "ghost"]
    graph = lm.DecoratedDualGraph(N, 3, graph.vertices, edges, legs)
    verts = []
    for vid in ids:
        kind = kinds[vid]
        genus, c1_log, cover = 0, 0, {}
        if kind == "principal":
            genus, c1_log = rng.randint(0, 1), rng.randint(0, 4)
        elif kind == "bubble":
            c1_log = rng.randint(0, 3)
            genus = 1 if rng.random() < 0.03 else 0
            if rng.random() < 0.35:
                d, base = rng.choice((2, 3)), rng.randint(0, 2)
                c1_log = d * base + (1 if rng.random() < 0.08 else 0)
                cover = {"cover_degree": d,
                         "base_c1_log": None if rng.random() < 0.05 else base}
        label = rng.choice(labels) if kind != "principal" or rng.random() < 0.2 else None
        verts.append(lm.Vertex(vid, genus, stratum, c1_log, graph.balance(vid), kind,
                               image_label=label, **cover))
    return lm.DecoratedDualGraph(N, 3, verts, edges, legs)


@pytest.fixture
def rng():
    return random.Random(20260810)
