"""Library functions never mutate their arguments.

Each call gets arguments that, after the call, are compared with deep copies
taken before it.  The inputs are seeded ghost stars and the fixtures; the
test names carry `pool`, so CI runs them under two hash seeds as well.
"""

import copy
import json
import os
import random
from fractions import Fraction

import logmoduli as lm
from logmoduli import linprog, schema
from logmoduli.errors import LogModuliError

from conftest import random_ghost_star

FIXTURES = os.path.join(os.path.dirname(schema.__file__), "fixtures")


def _ghost_stars(count=100):
    rng = random.Random(20261022)
    return [random_ghost_star(rng) for _ in range(count)]


def _fixture_documents():
    """(name, raw JSON document) for each fixture that is a graph document."""
    out = []
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            raw = json.load(fh)
        if isinstance(raw, dict) and "vertices" in raw:
            out.append((name, raw))
    return out


def _state(graph, data):
    """What a call could change of a graph and its curve data.  The data is
    read by repr, since a RationalSection compares by identity."""
    return (graph.N, graph.n, graph.vertices, graph.edges, graph.legs), repr(data)


def _curve_calls(graph, data, characters=None):
    """The library calls that take curve data, on every ghost and every
    regular edge of the graph; a call the graph does not admit raises a
    LogModuliError, which is fine here."""
    calls = [lambda: lm.compute_ob(graph, data, characters)]
    for v in graph.vertices:
        if v.kind == "ghost":
            calls.append(lambda vid=v.id: lm.collapse_ghost(graph, data, vid))
            calls.append(lambda vid=v.id: lm.relation_check(graph, data, vid))
    for e in graph.edges:
        if not e.is_multinode:
            calls.append(lambda eid=e.id: lm.flip_edge(graph, data, eid))
    return calls


def test_curve_data_calls_leave_their_arguments_on_the_pool():
    cases = [(g, data, None) for g, data in _ghost_stars()]
    for _, raw in _fixture_documents():
        graph, data, _, characters, _ = schema.parse_document(raw)
        cases.append((graph, data, characters))
    ran = 0
    for graph, data, characters in cases:
        for call in _curve_calls(graph, data, characters):
            before = _state(graph, copy.deepcopy(data))
            try:
                call()
                ran += 1
            except LogModuliError:
                pass
            assert _state(graph, data) == before
    assert ran > 200


def test_schema_leaves_its_arguments_on_the_pool():
    documents = [raw for _, raw in _fixture_documents()]
    documents += [schema.serialize_document(g, data) for g, data in _ghost_stars()]
    for raw in documents:
        kept = copy.deepcopy(raw)
        graph, data, _, characters, expect = schema.parse_document(raw)
        assert raw == kept
        profile = raw.get("profile")
        args = (data, profile, expect)
        kept = copy.deepcopy(args)
        schema.serialize_document(graph, data, profile, characters, expect)
        assert (repr(data), profile, expect) == (repr(kept[0]), kept[1], kept[2])
    assert sum(raw.get("profile") is not None for raw in documents) >= 1
    assert sum(raw.get("expect") is not None for raw in documents) >= 1


def test_lattice_map_leaves_its_matrix_on_the_pool():
    graphs = [g for g, _ in _ghost_stars()]
    for _, raw in _fixture_documents():
        try:
            graphs.append(schema.parse_document(raw)[0])
        except LogModuliError:
            pass
    ran = 0
    for graph in graphs:
        try:
            rho = lm.build_rho(graph)
        except LogModuliError:
            continue
        matrix = [list(row) for row in rho.matrix]
        domain, codomain = list(rho.domain_index), list(rho.codomain_index)
        kept = copy.deepcopy((matrix, domain, codomain))
        lmap = lm.LatticeMap(matrix, domain, codomain)
        lmap.rank, lmap.kernel_basis(), lmap.character_basis(), lmap.invariant_factors()
        assert (matrix, domain, codomain) == kept
        ran += 1
    assert ran > 40


def _systems(rng, count=150):
    """Random small systems (A, b) with int and Fraction entries."""
    out = []
    for _ in range(count):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = [[rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 3))])
              for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-4, 4) for _ in range(m)]
        out.append((a, b))
    return out


def test_linprog_leaves_its_arguments_on_the_pool():
    rng = random.Random(20261023)
    certificates = 0
    for a, b in _systems(rng):
        lower = [rng.randint(-1, 2) for _ in a[0]]
        kept = copy.deepcopy((a, b, lower))
        res = linprog.solve_eq_nonneg(a, b)
        linprog.feasible_eq_lower(a, b, lower)
        if res.certificate is not None:
            y = list(res.certificate)
            kept_y = list(y)
            assert linprog.verify_farkas(a, b, y)
            assert y == kept_y
            certificates += 1
        assert (a, b, lower) == kept
        # the same rows as inequalities, row . (x, 1) >= 0
        ineqs = [[*row, bi] for row, bi in zip(a, b)]
        kept = copy.deepcopy(ineqs)
        linprog.fourier_motzkin(ineqs, len(a[0]))
        assert ineqs == kept
    assert certificates > 10
