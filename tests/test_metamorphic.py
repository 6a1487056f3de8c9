"""Metamorphic invariance: a transform that changes how a graph is written
but not what it is must leave every answer unchanged.

The lattice layer first.  Renaming vertex and edge ids reorders the rows
and columns of rho, and so which pivots of its echelon form are units;
flipping an edge negates its contact and swaps its ends.  Neither changes
the rank of rho, the ranks of its kernel and cokernel, or its invariant
factors.

Then the tropical condition.  Both transforms keep the solution set of the
node equations up to a permutation and the signs of their rows, so they
keep `tropical_feasible`'s verdict; its witness or its certificate is
checked on the transformed graph's own equations.
"""

import dataclasses
import random

import logmoduli as lm
from logmoduli import linprog, tropical

from conftest import random_balanced_graph, random_cycle_rich_graph


def _pool():
    """200 seeded graphs: 100 cycle-rich ones with 3 to 14 vertices and 100
    balanced ones with up to 6 vertices, a few chords and N up to 3."""
    rng = random.Random(20261020)
    graphs = [random_cycle_rich_graph(rng, rng.randint(3, 14)) for _ in range(100)]
    graphs += [random_balanced_graph(rng, max_vertices=6, cyclic=True) for _ in range(100)]
    return graphs


def _lattice_answers(graph):
    rho = lm.build_rho(graph)
    return rho.rank, rho.kernel_rank, rho.cokernel_rank, rho.invariant_factors()


def _unit_pivots(graph):
    return sum(row[min(row)] == 1 for row in lm.build_rho(graph)._rows())


def _renamed(graph, rng):
    """The graph with its vertex and edge ids permuted at random."""
    vids = [v.id for v in graph.vertices]
    eids = [e.id for e in graph.edges]
    vname = dict(zip(vids, rng.sample(vids, len(vids))))
    ename = dict(zip(eids, rng.sample(eids, len(eids))))
    vertices = [dataclasses.replace(v, id=vname[v.id]) for v in graph.vertices]
    edges = [dataclasses.replace(e, id=ename[e.id], ends=tuple(vname[x] for x in e.ends))
             for e in graph.edges]
    legs = [dataclasses.replace(leg, vertex=vname[leg.vertex]) for leg in graph.legs]
    return lm.DecoratedDualGraph(graph.N, graph.n, vertices, edges, legs)


def _half_flipped(graph, rng):
    """The graph with a random half of its edges flipped by `flip_edge`."""
    edges = [e.id for e in graph.edges]
    for eid in rng.sample(edges, len(edges) // 2):
        graph, _ = lm.flip_edge(graph, None, eid)
    return graph


def test_lattice_pool_invariant_under_renaming():
    """The pool has graphs whose renaming changes how many pivots
    of rho's echelon form are units, which the invariant factors split off."""
    rng = random.Random(1)
    moved = 0
    for graph in _pool():
        renamed = _renamed(graph, rng)
        moved += _unit_pivots(renamed) != _unit_pivots(graph)
        assert _lattice_answers(renamed) == _lattice_answers(graph), graph
    assert moved >= 20


def test_lattice_pool_invariant_under_edge_flips():
    rng = random.Random(2)
    flipped = 0
    for graph in _pool():
        transformed = _half_flipped(graph, rng)
        flipped += transformed.edges != graph.edges
        assert _lattice_answers(transformed) == _lattice_answers(graph), graph
    assert flipped >= 150


def _tropical_verdict(graph):
    """tropical_feasible's verdict, once its witness passes
    `TropicalWitness.check` or its certificate passes `verify_farkas` on
    the graph's equations with b = -A.1 (x >= 1 shifted to x >= 0)."""
    res = lm.tropical_feasible(graph)
    if res.feasible:
        assert res.witness.check(graph), graph
    else:
        _, rows, labels = tropical._system(graph)
        y = [res.certificate.get(label, 0) for label in labels]
        assert linprog.verify_farkas(rows, [-sum(row) for row in rows], y), graph
    return res.feasible


def test_tropical_pool_verdict_invariant_under_renaming():
    rng = random.Random(3)
    pool = _pool()
    feasible = 0
    for graph in pool:
        verdict = _tropical_verdict(graph)
        assert _tropical_verdict(_renamed(graph, rng)) == verdict, graph
        feasible += verdict
    assert 0 < feasible < len(pool)  # both verdicts are exercised


def test_tropical_pool_verdict_invariant_under_edge_flips():
    rng = random.Random(4)
    pool = _pool()
    feasible = 0
    for graph in pool:
        verdict = _tropical_verdict(graph)
        assert _tropical_verdict(_half_flipped(graph, rng)) == verdict, graph
        feasible += verdict
    assert 0 < feasible < len(pool)
