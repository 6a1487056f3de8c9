import os
import random
from fractions import Fraction
from math import gcd, lcm

from logmoduli import intlinalg as il
from logmoduli.lattice import LatticeMap, build_rho

from conftest import graph_like_matrices

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


def _rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _det(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if a[r][c] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def test_hnf_transformation_is_unimodular():
    rng = random.Random(2)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _rand_matrix(rng, rows, cols)
        h, u = il.hnf_row(m)
        assert il.mat_mul(u, m) == h
        assert abs(_det(u)) == 1


def test_hnf_shape():
    h = il.hnf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    # pivots positive, entries above reduced, zero rows last
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        j = nz[0]
        assert row[j] > 0
        pivots.append(j)
    assert pivots == sorted(pivots)


def test_kernel_annihilates_and_is_saturated():
    rng = random.Random(3)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = _rand_matrix(rng, rows, cols)
        ker = il.kernel(m)
        for vec in ker:
            assert all(v == 0 for v in il.mat_vec(m, list(vec)))
        assert len(ker) == cols - il.rank(m)
        # saturation: any integer vector in the rational span lies in the lattice
        if ker:
            combo = [
                sum(2 * vec[j] for vec in ker) + 3 * ker[0][j] for j in range(cols)
            ]
            assert il.in_lattice(combo, [list(k) for k in ker])


def test_left_kernel_matches_transpose_kernel():
    rng = random.Random(4)
    for _ in range(20):
        m = _rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        lk = il.left_kernel(m)
        tk = il.kernel(il.transpose(m))
        assert il.lattices_equal([list(r) for r in lk], [list(r) for r in tk] or [])
    # a map from Z^0 is zero, so every functional kills it
    assert il.left_kernel([[], []]) == [[1, 0], [0, 1]]


def test_snf_invariant_factors_divide():
    rng = random.Random(5)
    for _ in range(25):
        m = _rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        diag = il.smith_normal_form(m)
        assert len(diag) == il.rank(m)
        for a, b in zip(diag, diag[1:]):
            assert a > 0 and b % a == 0


def test_snf_known_example():
    assert il.smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert il.smith_normal_form([[2, 0], [0, 4]]) == [2, 4]


def test_lattice_membership():
    basis = [[2, 0], [0, 2]]
    assert il.in_lattice([4, -2], basis)
    assert not il.in_lattice([1, 0], basis)
    assert il.in_lattice([0, 0], [])
    assert not il.in_lattice([1], [])
    # dependent generators: [2] and [3] span all of Z
    assert il.in_lattice([1], [[2], [3]])
    assert il.in_lattice([1, 1], [[2, 2], [3, 3], [0, 4]])
    assert not il.in_lattice([1, 0], [[2, 2], [3, 3], [0, 4]])


# (matrix, rank, kernel, left_kernel, smith_normal_form, hnf) on empty and zero shapes
EMPTY_SHAPES = [
    ([], 0, [], [], [], []),
    ([[]], 0, [], [[1]], [], [[]]),
    ([[], []], 0, [], [[1, 0], [0, 1]], [], [[], []]),
    ([[0, 0]], 0, [[1, 0], [0, 1]], [[1]], [], [[0, 0]]),
    ([[0], [0]], 0, [[1]], [[1, 0], [0, 1]], [], [[0], [0]]),
    ([[0, 0], [0, 0]], 0, [[1, 0], [0, 1]], [[1, 0], [0, 1]], [], [[0, 0], [0, 0]]),
]


def test_empty_and_zero_shapes_keep_their_answers():
    for m, rank, ker, left, snf, h in EMPTY_SHAPES:
        assert il.rank(m) == rank, m
        assert il.kernel(m) == ker, m
        assert il.left_kernel(m) == left, m
        assert il.smith_normal_form(m) == snf, m
        assert il.hnf(m) == h, m


def test_normal_forms_leave_their_argument_alone():
    m = [[2, 4, 0], [0, 6, 3], [2, 10, 3], [0, 0, 0]]
    before = [row[:] for row in m]
    il.rank(m), il.hnf(m), il.kernel(m), il.left_kernel(m), il.smith_normal_form(m)
    il.lattices_equal(m, m[:2])
    assert m == before


def test_normal_forms_read_tuples_and_lists_alike():
    """A matrix as a tuple of tuples, as LatticeMap passes it, gives every
    answer that the same matrix as lists gives, and the list is untouched."""
    rng = random.Random(19)
    for _ in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        m = _rand_matrix(rng, rows, cols, -4, 4)
        basis = _rand_matrix(rng, rng.randint(1, 4), cols, -3, 3)
        vec = [rng.randint(-6, 6) for _ in range(cols)]
        before = [row[:] for row in m]
        t = tuple(map(tuple, m))

        def answers(a):
            return (il.hnf(a), il.rank(a), il.kernel(a), il.left_kernel(a),
                    il.smith_normal_form(a), il.lattices_equal(a, basis),
                    il.in_lattice(vec, a))

        assert answers(t) == answers(m), m
        assert m == before


# -- the back-substitution that visits every pivot row, kept as a reference --

def _every_pivot_walk(h, cols):
    """(free columns, numerators, denominators) of the back-substitution on
    the reversed echelon rows h that computes every pivot row's sum for each
    free column, as `il._null_space` did before it walked only the rows a
    free column reaches."""
    pivots = [min(row) for row in h]
    taken = set(pivots)
    free = [j for j in range(cols - 1, -1, -1) if j not in taken]
    steps = [(p, row[p], [(j, v) for j, v in row.items() if j != p])
             for p, row in zip(reversed(pivots), reversed(h))]
    nums, dens = [], []
    for f in free:
        x = {f: 1}
        den = 1
        for p, pv, tail in steps:
            s = sum(v * x[j] for j, v in tail if j in x)
            if s % pv:
                g = pv // gcd(s, pv)
                x = {j: t * g for j, t in x.items()}
                den *= g
                s *= g
            if s:
                x[p] = -s // pv
        g = gcd(*x.values())
        nums.append({cols - 1 - j: t // g for j, t in x.items()})
        dens.append(den // g)
    return free, nums, dens


def _null_space_every_pivot(h, cols):
    """`il._null_space` through `_every_pivot_walk`, saturated the same way."""
    free, nums, dens = _every_pivot_walk(h, cols)
    if not free:
        return []
    d = lcm(*dens)
    if d == 1:
        return [il._dense(x, cols) for x in nums]
    pivots = [min(row) for row in h]
    num = [{j: t * (d // den) for j, t in x.items()} for x, den in zip(nums, dens)]
    at = {cols - 1 - p: n for n, p in enumerate(pivots)}
    a = [{at[j]: t % d for j, t in x.items() if j in at and t % d} for x in num]
    out = []
    for y in il._saturate(a, len(pivots), d):
        acc = {}
        for i, s in y.items():
            for j, t in num[i].items():
                acc[j] = acc.get(j, 0) + s * t
        out.append(il._dense({j: t // d for j, t in acc.items()}, cols))
    return out


def _reversed_transpose(m):
    n = len(m)
    out = [{} for _ in range(len(m[0]) if m else 0)]
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if x:
                out[j][n - 1 - i] = x
    return out


def _sparse_matrices():
    """2400 seeded sparse matrices: up to 9 x 9 with zero to four nonzeros
    per row, entries in -9..9, a zero column in a third of them, and the
    empty shapes (no rows, no columns, or neither) among them."""
    rng = random.Random(20261019)
    out = []
    for _ in range(2400):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        zero = rng.randrange(cols) if cols and rng.random() < 0.35 else None
        used = [j for j in range(cols) if j != zero]
        m = [[0] * cols for _ in range(rows)]
        for row in m:
            for j in rng.sample(used, min(len(used), rng.randint(0, 4))):
                row[j] = rng.choice([-1, 1]) * rng.randint(1, 9)
        out.append(m)
    return out


def test_null_space_differential_against_the_every_pivot_walk():
    """`kernel` and `left_kernel`, whose back-substitution walks only the
    pivot rows each free column reaches, equal the every-pivot reference on
    every seeded sparse matrix; the sample covers each case the walk
    distinguishes."""
    seen = {"empty": 0, "no free column": 0, "free column reaching no pivot": 0,
            "denominator grows": 0}
    matrices = _sparse_matrices()
    assert len(matrices) >= 2000
    for m in matrices:
        cols = len(m[0]) if m else 0
        seen["empty"] += not m or not cols
        for rows, width, public in [(il._reversed(m, cols), cols, il.kernel),
                                    (_reversed_transpose(m), len(m), il.left_kernel)]:
            h = il._echelon(rows, width)
            free, _, dens = _every_pivot_walk(h, width)
            reached = {j for row in h for j in row}
            seen["no free column"] += not free
            seen["free column reaching no pivot"] += any(f not in reached for f in free)
            seen["denominator grows"] += any(den > 1 for den in dens)
            assert public(m) == _null_space_every_pivot(h, width), m
    assert min(seen.values()) >= 100, seen


# -- the Smith form by alternation on all of M, kept as a reference ----------

def _smith_full_alternation(m):
    """Invariant factors of M from its whole row HNF, as `il._smith` took
    them before it split off the unit pivots: the echelon form reduced above
    its pivots, Hermite forms of it and its transposes alternated until it
    is diagonal, then the diagonal turned into a divisibility chain."""
    h = il._reduce_above(il._echelon(il._sparse(m), il._width(m)))
    while not all(len(row) == 1 and i in row for i, row in enumerate(h)):
        t = {}
        for i, row in enumerate(h):
            for j, x in row.items():
                t.setdefault(j, {})[i] = x
        h = il._hnf_rows(list(t.values()), len(h))
    diag = [row[i] for i, row in enumerate(h)]
    chain = [x for x in diag if x != 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            chain[i], chain[j] = gcd(chain[i], chain[j]), lcm(chain[i], chain[j])
    return [1] * (len(diag) - len(chain)) + chain


def _smith_matrices():
    """3000 seeded matrices up to 10 x 10 whose echelon forms mix unit and
    non-unit pivots: entries drawn mostly from +-1 with some 2, 3, 4 and 6,
    half of them zero, a zero row in a fifth and a zero column in a third
    of them, and the empty shapes among them."""
    rng = random.Random(20261020)
    out = []
    for _ in range(3000):
        rows, cols = rng.randint(0, 10), rng.randint(0, 10)
        zero = rng.randrange(cols) if cols and rng.random() < 0.35 else None
        m = [[rng.choice([1, -1, 1, -1, 2, -2, 3, -4, 6]) if j != zero and rng.random() < 0.5
              else 0 for j in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.2:
            m[rng.randrange(rows)] = [0] * cols
        out.append(m)
    return out


def _pivot_kinds(h):
    units = sum(row[min(row)] == 1 for row in h)
    return units, len(h) - units


def test_smith_differential_against_the_full_alternation():
    """`smith_normal_form`, which diagonalises only the rows left after the
    unit pivots are split off, equals the alternation on the whole HNF on
    every seeded matrix, and `il._smith` leaves the echelon rows it reads
    unchanged; the sample covers each case the split distinguishes."""
    seen = {"empty": 0, "only unit pivots": 0, "no unit pivot": 0, "mixed pivots": 0,
            "zero row": 0, "zero column": 0}
    for m in _smith_matrices():
        cols = len(m[0]) if m else 0
        h = il._echelon(il._sparse(m), cols)
        before = [dict(row) for row in h]
        units, others = _pivot_kinds(h)
        seen["empty"] += not h
        seen["only unit pivots"] += units > 0 and not others
        seen["no unit pivot"] += others > 0 and not units
        seen["mixed pivots"] += units > 0 and others > 0
        seen["zero row"] += any(not any(row) for row in m)
        seen["zero column"] += bool(m) and any(not any(col) for col in zip(*m))
        expected = _smith_full_alternation(m)
        assert il.smith_normal_form(m) == expected, m
        assert il._smith(h) == expected, m
        assert h == before, m
    assert min(seen.values()) >= 100, seen


def _graph_like_and_ladder_maps(monkeypatch):
    """The maps of the oracle's graph-like matrices, then the maps of cyclic
    and tree ladder graphs from nv = 4 to 24, drawn as the benchmark draws
    its lattice pool."""
    for m in graph_like_matrices():
        yield LatticeMap(m, range(len(m[0])), range(len(m)))
    monkeypatch.syspath_prepend(BENCH)
    import gen
    for family in ("cycle", "tree"):
        for nv in range(4, 25):
            graph = gen.ladder_graph(gen.pool_rng("lattice", family, nv, 0), nv, family == "cycle")
            yield build_rho(graph)


def test_invariant_factors_differential_on_graph_like_and_ladder_maps(monkeypatch):
    """On graph-like matrices and ladder maps, `smith_normal_form` and
    `LatticeMap.invariant_factors` equal the alternation on the whole HNF,
    and the map's kept echelon form is the same before and after."""
    count = mixed = 0
    for lmap in _graph_like_and_ladder_maps(monkeypatch):
        m = lmap.matrix
        expected = _smith_full_alternation(m)
        assert il.smith_normal_form(m) == expected, m
        before = [dict(row) for row in lmap._rows()]
        assert list(lmap.invariant_factors()) == expected, m
        assert lmap._rows() == before, m
        units, others = _pivot_kinds(before)
        count += 1
        mixed += units > 0 and others > 0
    assert count == 30 + 2 * 21
    assert mixed >= 60
