"""The phase-1 simplex against a dense reference with the same pivot rule."""

import math
import random
from fractions import Fraction

import logmoduli as lm
from logmoduli import linprog, tropical

from conftest import random_balanced_graph, random_cycle_rich_graph


def dense_solve_eq_nonneg(a, b):
    """Reference phase-1 simplex that rewrites full dense tableau rows on
    every pivot; Bland's rule and the ratio-test tie-break as in linprog."""
    m = len(a)
    n = len(a[0]) if m else 0
    a = [[Fraction(x) for x in row] for row in a]
    b = [Fraction(x) for x in b]
    if m == 0:
        return linprog.Feasibility(True, tuple())
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    tab = [row[:] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]]
           for i, row in enumerate(a)]
    basis = [n + i for i in range(m)]
    obj = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            obj[j] += tab[i][j]
    for i in range(m):
        obj[n + i] -= 1

    def pivot(row, col):
        piv = tab[row][col]
        tab[row] = [x / piv for x in tab[row]]
        for r in range(m):
            if r != row and tab[r][col] != 0:
                f = tab[r][col]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[row])]
        if obj[col] != 0:
            f = obj[col]
            for j in range(n + m + 1):
                obj[j] -= f * tab[row][j]
        basis[row] = col

    while True:
        col = None
        for j in range(n + m):
            if obj[j] > 0:
                col = j
                break
        if col is None:
            break
        best = None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            break
        pivot(best[1], col)

    if obj[-1] != 0:
        return linprog.Feasibility(False, None, tuple(obj[n + i] + 1 for i in range(m)))
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
    return linprog.Feasibility(True, tuple(x))


def _tropical_system(graph):
    """The tropical equations shifted to x >= 0, as feasible_eq_lower does."""
    _, rows, _ = tropical._system(graph)
    return rows, [-sum(row) for row in rows]


def test_sparse_pivots_match_dense_reference_on_random_systems():
    rng = random.Random(20261018)
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        density = rng.choice((0.3, 0.6, 1.0))
        a = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(m)]
        b = [rng.randint(-4, 4) for _ in range(m)]
        assert linprog.solve_eq_nonneg(a, b) == dense_solve_eq_nonneg(a, b)


def test_integer_rows_match_dense_reference_on_fraction_systems():
    rng = random.Random(20261019)

    def entry(top):
        return Fraction(rng.randint(-top, top), rng.randint(1, 6))

    for _ in range(150):
        m, n = rng.randint(1, 7), rng.randint(1, 8)
        density = rng.choice((0.3, 0.6, 1.0))
        a = [[entry(4) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        b = [entry(5) for _ in range(m)]
        assert linprog.solve_eq_nonneg(a, b) == dense_solve_eq_nonneg(a, b)


def _tropical_graphs():
    rng = random.Random(7)
    graphs = [random_balanced_graph(rng, max_vertices=6, cyclic=True) for _ in range(40)]
    graphs += [random_cycle_rich_graph(rng, nv) for nv in (4, 6, 8)]
    graphs += [random_cycle_rich_graph(rng, nv) for nv in (10, 16, 20)]
    # the dense reference takes seconds on feasible systems past nv = 10
    graphs.append(random_cycle_rich_graph(rng, 10, feasible=True))
    return graphs


def test_sparse_pivots_match_dense_reference_on_tropical_systems():
    graphs = _tropical_graphs()
    feasible = 0
    for g in graphs:
        a, b = _tropical_system(g)
        res = linprog.solve_eq_nonneg(a, b)
        assert res == dense_solve_eq_nonneg(a, b)
        feasible += res.feasible
    assert 0 < feasible < len(graphs)  # both outcomes are exercised


def test_tableau_entries_stay_within_64_bits(monkeypatch):
    """Every pivot divides the rows it changes by the gcd of their entries,
    row denominators included; the entries of this system then peak at 21
    bits, and without that step they pass 64 bits about 50 pivots before
    the end."""
    pivot = linprog._pivot
    pivots = []

    def bounded_pivot(rows, basis, r, col):
        pivot(rows, basis, r, col)
        bits = max(abs(x).bit_length() for row in rows for x in row)
        assert bits <= 64, f"pivot {len(pivots) + 1}: a {bits}-bit tableau entry"
        pivots.append(bits)

    monkeypatch.setattr(linprog, "_pivot", bounded_pivot)
    graph = random_cycle_rich_graph(random.Random(12), 20, feasible=True)
    res = lm.tropical_feasible(graph)
    assert res.feasible and res.witness.check(graph)
    assert len(pivots) > 100


def test_every_pivot_keeps_the_rows_primitive_and_positive_at_their_basic_column(monkeypatch):
    """The tableau invariant: after each pivot every row, the objective
    row included, has coprime entries and a positive entry at its basic
    column, the row's denominator; row r is basic at col from then on."""
    pivot = linprog._pivot
    pivots = []

    def checked_pivot(rows, basis, r, col):
        pivot(rows, basis, r, col)
        assert len(basis) == len(rows)
        for k, row in enumerate(rows):
            assert math.gcd(*row) == 1, f"pivot {len(pivots) + 1}: row {k} is not primitive"
            assert row[col if k == r else basis[k]] > 0, f"pivot {len(pivots) + 1}: row {k}"
        pivots.append((r, col))

    monkeypatch.setattr(linprog, "_pivot", checked_pivot)
    for g in _tropical_graphs():
        linprog.solve_eq_nonneg(*_tropical_system(g))
    assert len(pivots) > 100
