"""Seeded input generators for the benchmark.

Every generator takes a `random.Random` and returns library objects; the
same draw sequence gives the same graph.  The benchmark derives one
`random.Random` per pool entry from a string key (`pool_rng`), so an entry
is reproducible on its own and baseline answers can be stored per key.

`balanced_graph`, `ghost_star` and `map_model` are ports of the randomized
builders the test suite uses.  `ladder_graph` and `tropical_graph` build the
size-ladder graphs: a fixed vertex count, N = 4, a random spanning tree and,
when cycle-rich, nv // 2 chords.
"""

from __future__ import annotations

import random
from fractions import Fraction

import logmoduli as lm
from logmoduli.qi import GaussianRational as Q
from logmoduli.sections import P1Point


def pool_rng(*key) -> random.Random:
    """The generator for one pool entry, e.g. pool_rng("lattice", "cycle", 10, 3)."""
    return random.Random(":".join(str(k) for k in key))


def _contact(rng, stratum, sa, sb, N):
    vec = []
    for i in range(1, N + 1):
        if i not in stratum:
            vec.append(0)
        elif i not in sa:
            vec.append(rng.randint(1, 3))
        elif i not in sb:
            vec.append(-rng.randint(1, 3))
        else:
            vec.append(rng.randint(-3, 3))
    return tuple(vec)


def _assemble(rng, N, strata, pairs, contacts):
    """Attach random legs, set each vertex's pairings to balance, draw n."""
    nv = len(strata)
    legs = []
    leg_sum = {v: [0] * N for v in range(nv)}
    for li in range(rng.randint(0, 3)):
        v = rng.randrange(nv)
        vec = []
        for i in range(1, N + 1):
            vec.append(rng.randint(-2, 3) if i in strata[v] else rng.randint(0, 3))
        legs.append(lm.Leg(f"z{li}", f"w{v}", tuple(vec)))
        for i in range(N):
            leg_sum[v][i] += vec[i]
    totals = {v: [0] * N for v in range(nv)}
    for (a, b), vec in zip(pairs, contacts):
        for i in range(N):
            totals[a][i] += vec[i]
            totals[b][i] -= vec[i]
    verts = []
    for v in range(nv):
        degrees = tuple(totals[v][i] + leg_sum[v][i] for i in range(N))
        verts.append(lm.Vertex(f"w{v}", rng.randint(0, 2), strata[v], rng.randint(-3, 5),
                               degrees, "principal"))
    edges = [
        lm.Edge(f"e{k}", (f"w{a}", f"w{b}"), strata[a] | strata[b], contact=vec)
        for k, ((a, b), vec) in enumerate(zip(pairs, contacts))
    ]
    return lm.DecoratedDualGraph(N, rng.randint(2, 4), verts, edges, legs)


def _tree_and_chords(rng, nv, chords):
    pairs = [(idx, rng.randrange(idx)) for idx in range(1, nv)]
    while chords and nv >= 2:
        a, b = rng.randrange(nv), rng.randrange(nv)
        if a != b:
            pairs.append((a, b))
            chords -= 1
    return pairs


def ladder_graph(rng: random.Random, nv: int, cyclic: bool, N: int = 4):
    """Size-ladder graph: a random spanning tree on nv vertices plus nv//2
    chords when cyclic; stratum {1..depth} with depth uniform in 0..N and
    contacts drawn as in `balanced_graph`."""
    strata = [frozenset(range(1, rng.randint(0, N) + 1)) for _ in range(nv)]
    pairs = _tree_and_chords(rng, nv, nv // 2 if cyclic else 0)
    contacts = [_contact(rng, strata[a] | strata[b], strata[a], strata[b], N) for a, b in pairs]
    return _assemble(rng, N, strata, pairs, contacts)


def tropical_graph(rng: random.Random, nv: int, feasible: bool, N: int = 4):
    """Cycle-rich ladder graph for the tropical condition.

    feasible=True draws a positive integer slope for every (vertex, i) with i
    in the vertex stratum and sets each contact to the slope difference
    across the edge, so all edge lengths 1 are a witness.  feasible=False
    draws contacts independently, which on cycles is infeasible for most
    draws; the stored baseline verdict is the reference either way.
    """
    strata = [frozenset(range(1, rng.randint(0, N) + 1)) for _ in range(nv)]
    pairs = _tree_and_chords(rng, nv, nv // 2)
    if feasible:
        slopes = [{i: rng.randint(1, 6) for i in st} for st in strata]
        contacts = [
            tuple(slopes[b].get(i, 0) - slopes[a].get(i, 0) for i in range(1, N + 1))
            for a, b in pairs
        ]
    else:
        contacts = [_contact(rng, strata[a] | strata[b], strata[a], strata[b], N) for a, b in pairs]
    return _assemble(rng, N, strata, pairs, contacts)


def balanced_graph(rng: random.Random, max_vertices=5, N_max=3, cyclic=False):
    """A valid decorated graph with nested strata along a random tree; edge
    contacts drawn first, vertex pairings set to balance."""
    N = rng.randint(0, N_max)
    nv = rng.randint(1, max_vertices)
    strata = [frozenset(range(1, rng.randint(0, N) + 1)) for _ in range(nv)]
    pairs = [(idx, rng.randrange(idx)) for idx in range(1, nv)]
    if cyclic and nv >= 2:
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randrange(nv), rng.randrange(nv)
            if a != b:
                pairs.append((a, b))
    contacts = [_contact(rng, strata[a] | strata[b], strata[a], strata[b], N) for a, b in pairs]
    return _assemble(rng, N, strata, pairs, contacts)


def ghost_star(rng: random.Random):
    """A ghost with random special points joined to user-eta branches; the
    ghost's marked point balances the books.  Edge orientations are random."""
    N = rng.randint(1, 3)
    I0 = frozenset(range(1, N + 1))
    verts = [lm.Vertex("g0", 0, I0, 0, (0,) * N, "ghost")]
    edges = []
    data = lm.CurveData()
    used = set()

    def fresh_point():
        while True:
            z = Q(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(rng.randint(-2, 2), 1))
            if z not in used:
                used.add(z)
                return P1Point.finite(z)

    total = [0] * N
    for j in range(1, rng.randint(2, 4) + 1):
        rng.randint(0, 0)  # keeps the draw sequence of the test-suite builder
        vec = tuple(rng.randint(1, 3) for _ in range(N))
        for i in range(N):
            total[i] += vec[i]
        if rng.random() < 0.5:
            ends, contact, ghost_end, branch_end = ("g0", f"b{j}"), tuple(-x for x in vec), 0, 1
        else:
            ends, contact, ghost_end, branch_end = (f"b{j}", "g0"), vec, 1, 0
        verts.append(lm.Vertex(f"b{j}", 0, frozenset(), 0, vec, "bubble"))
        edges.append(lm.Edge(f"e{j}", ends, I0, contact=contact))
        data.positions[(f"e{j}", ghost_end)] = fresh_point()
        for i in range(1, N + 1):
            while True:
                cand = Q(Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                         Fraction(rng.randint(-3, 3), 1))
                if not cand.is_zero():
                    data.eta[(f"e{j}", branch_end, i)] = cand
                    break
    legs = [lm.Leg("z1", "g0", tuple(total))]
    data.leg_positions["z1"] = fresh_point()
    return lm.DecoratedDualGraph(N, 3, verts, edges, legs), data


def map_model(rng: random.Random):
    """The graph of a stable map model with ghosts, covers and shared image
    labels (wrap it in `lm.MapModel` to reduce it)."""
    N = rng.randint(1, 2)
    deep = frozenset(range(1, N + 1))
    p0 = lm.Vertex("p0", rng.randint(0, 2), (), rng.randint(0, 4),
                   tuple(rng.randint(1, 3) for _ in range(N)), "principal")
    verts = [p0]
    edges = []
    legs = []
    balance = {"p0": [0] * N}

    def add_leg(vid, vec, label=None):
        legs.append(lm.Leg(f"z{len(legs) + 1}", vid, tuple(vec), image_label=label))
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
        edges.append(lm.Edge(f"ge{vid_counter}", ("p0", gid), deep, contact=vec))
        for i in range(N):
            balance["p0"][i] += vec[i]
            balance[gid][i] -= vec[i]
        add_leg(gid, vec)
        add_leg(gid, (0,) * N)
        add_leg(gid, (0,) * N)
    for c in range(n_cover):
        vid_counter += 1
        cid = f"c{vid_counter}"
        d = rng.randint(2, 3)
        base_c1 = rng.randint(0, 3)
        base_deg = tuple(rng.randint(0, 2) for _ in range(N))
        label = "shared" if rng.random() < 0.5 else f"img{c}"
        verts.append(lm.Vertex(cid, 0, deep, d * base_c1, tuple(d * x for x in base_deg),
                               "bubble", image_label=label, cover_degree=d,
                               base_degrees=base_deg, base_c1_log=base_c1))
        balance[cid] = [0] * N
        vec = tuple(rng.randint(1, 2) for _ in range(N))
        point_label = f"pt{c}" if rng.random() < 0.5 else None
        edges.append(lm.Edge(f"ce{vid_counter}", ("p0", cid), deep, contact=vec,
                             image_labels=(None, point_label)))
        for i in range(N):
            balance["p0"][i] += vec[i]
            balance[cid][i] -= vec[i]
        need = tuple(d * base_deg[i] - balance[cid][i] for i in range(N))
        add_leg(cid, need, label=f"mk{c}" if rng.random() < 0.5 else None)
    verts[0] = lm.Vertex("p0", p0.genus, p0.stratum, p0.c1_log, tuple(balance["p0"]), "principal")
    return lm.DecoratedDualGraph(N, rng.randint(2, 4), verts, edges, legs)
