"""The integer normal forms checked against sympy as an independent oracle.

sympy is a test-only dependency (the `test` extra); without it this module
is skipped.  sympy's `hermite_normal_form` follows Cohen's convention of
column operations with pivots taken from the right, so its result is
compared as a lattice: our HNF of its rows must equal our HNF of M.
"""

import random

import pytest

from logmoduli import intlinalg as il
from logmoduli.lattice import LatticeMap

from conftest import graph_like_matrices

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors  # noqa: E402

SMALL = 4  # matrices up to SMALL x SMALL are also checked against hnf_row


def _entry(rng):
    return rng.randint(-4, 4) if rng.random() < 0.7 else 0


def _matrices():
    rng = random.Random(20261017)
    out = []
    for _ in range(100):  # tall
        cols = rng.randint(1, 4)
        rows = cols + rng.randint(1, 3)
        out.append([[_entry(rng) for _ in range(cols)] for _ in range(rows)])
    for _ in range(100):  # wide
        rows = rng.randint(1, 4)
        cols = rows + rng.randint(1, 3)
        out.append([[_entry(rng) for _ in range(cols)] for _ in range(rows)])
    for _ in range(100):  # rank-deficient: a product through a narrower middle
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        mid = rng.randint(0, min(rows, cols) - 1)
        left = [[_entry(rng) for _ in range(mid)] for _ in range(rows)]
        right = [[_entry(rng) for _ in range(cols)] for _ in range(mid)]
        out.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                    if mid else [0] * cols for row in left])
    return out


MATRICES = _matrices()


GRAPH_LIKE = graph_like_matrices()


def _nonzero(rows):
    return [list(r) for r in rows if any(r)]


def _assert_row_hnf(h, rows, cols):
    assert len(h) == rows and all(len(r) == cols for r in h)
    nonzero = _nonzero(h)
    assert h[len(nonzero):] == [[0] * cols] * (rows - len(nonzero))
    pivots = [next(j for j, x in enumerate(r) if x) for r in nonzero]
    assert pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(nonzero, pivots)):
        assert row[p] > 0
        assert all(0 <= above[p] < row[p] for above in nonzero[:i])


def _sympy_factors(m):
    return [abs(int(x)) for x in invariant_factors(sympy.Matrix(m), domain=sympy.ZZ) if x]


def _u_path_left_kernel(m):
    """The left kernel read off the transform of the U-certified HNF."""
    h, u = il.hnf_row(m)
    ker = [u[i] for i in range(len(h)) if not any(h[i])]
    return _nonzero(il.hnf_row(ker)[0]) if ker else []


def test_oracle_covers_each_shape():
    assert len(MATRICES) == 300
    assert sum(len(m) > len(m[0]) for m in MATRICES) >= 100
    assert sum(len(m) < len(m[0]) for m in MATRICES) >= 100
    assert sum(il.rank(m) < min(len(m), len(m[0])) for m in MATRICES) >= 100


def test_hnf_shape_and_lattice_match_sympy():
    for m in MATRICES:
        h = il.hnf(m)
        _assert_row_hnf(h, len(m), len(m[0]))
        ref = hermite_normal_form(sympy.Matrix(m).T).T.tolist()
        assert _nonzero(il.hnf(ref)) == _nonzero(h), m


def test_smith_normal_form_matches_sympy():
    for m in MATRICES:
        assert il.smith_normal_form(m) == _sympy_factors(m), m


def test_kernels_match_sympy_and_are_saturated():
    for m in MATRICES:
        mt = il.transpose(m)
        ker = il.kernel(m)
        left = il.left_kernel(m)
        assert len(ker) == len(sympy.Matrix(m).nullspace()), m
        assert len(left) == len(sympy.Matrix(m).T.nullspace()), m
        for k in ker:
            assert not any(il.mat_vec(m, k))
        for chi in left:
            assert not any(il.mat_vec(mt, chi))
        for basis in (ker, left):
            if basis:
                assert _sympy_factors(basis) == [1] * len(basis), (m, basis)
                _assert_row_hnf(basis, len(basis), len(basis[0]))


def test_small_matrices_match_the_u_path():
    small = [m for m in MATRICES if len(m) <= SMALL and len(m[0]) <= SMALL]
    assert len(small) >= 100
    for m in small:
        assert il.hnf(m) == il.hnf_row(m)[0], m
        assert il.rank(m) == len(_nonzero(il.hnf_row(m)[0]))
        assert il.left_kernel(m) == _u_path_left_kernel(m), m
        assert il.kernel(m) == _u_path_left_kernel(il.transpose(m)), m


def test_graph_like_matrices_cover_each_shape():
    assert len(GRAPH_LIKE) == 30
    assert sum(len(m) > len(m[0]) for m in GRAPH_LIKE) == 15
    assert sum(len(m) < len(m[0]) for m in GRAPH_LIKE) == 15
    for m in GRAPH_LIKE:
        assert 10 <= len(m[0]) <= 60
        assert all(sum(map(bool, row)) in (0, 2, 3) for row in m)
        assert not all(any(col) for col in zip(*m))
    assert sum(not any(row) for m in GRAPH_LIKE for row in m) >= 30


def test_graph_like_matrices_match_sympy():
    for m in GRAPH_LIKE:
        assert il.smith_normal_form(m) == _sympy_factors(m), m
        h = il.hnf(m)
        _assert_row_hnf(h, len(m), len(m[0]))
        ref = hermite_normal_form(sympy.Matrix(m).T).T.tolist()
        assert _nonzero(il.hnf(ref)) == _nonzero(h), m
        assert il.rank(m) == len(_nonzero(h)) == sympy.Matrix(m).rank()
        for basis, mat in ((il.kernel(m), m), (il.left_kernel(m), il.transpose(m))):
            assert len(basis) == len(mat[0]) - il.rank(m), m
            for vec in basis:
                assert not any(il.mat_vec(mat, vec))
            if basis:
                assert _sympy_factors(basis) == [1] * len(basis), (m, basis)
                _assert_row_hnf(basis, len(basis), len(basis[0]))


def test_lattice_map_answers_match_sympy():
    """The map path: each graph-like matrix in a LatticeMap, whose rank,
    kernel and invariant factors read one cached echelon form, with each of
    the three calls first, since the shared cache makes the order
    matter."""
    orders = [("rank", "kernel_basis", "invariant_factors"),
              ("invariant_factors", "kernel_basis", "rank"),
              ("kernel_basis", "invariant_factors", "rank")]
    for m in GRAPH_LIKE:
        rank = sympy.Matrix(m).rank()
        factors = _sympy_factors(m)
        for order in orders:
            lmap = LatticeMap(m, range(len(m[0])), range(len(m)))
            answers = {call: lmap.rank if call == "rank" else getattr(lmap, call)()
                       for call in order}
            assert answers["rank"] == rank, (m, order)
            assert list(answers["invariant_factors"]) == factors, (m, order)
            ker = [list(k) for k in answers["kernel_basis"]]
            assert len(ker) == len(m[0]) - rank, (m, order)
            for k in ker:
                assert not any(il.mat_vec(m, k))
            if ker:
                assert _sympy_factors(ker) == [1] * len(ker), (m, order)
                _assert_row_hnf(ker, len(ker), len(m[0]))
