"""Integer matrix normal forms over arbitrary-precision ints.

Row-style Hermite normal form, Smith normal form, and the kernel /
left-kernel lattices.  Matrices are lists of lists of Python ints and there
is no floating point anywhere.  No public routine carries the unimodular
transform U of U*M = H, whose entries grow without bound under Euclidean
elimination: kernels come from a rational null space saturated modulo its
common denominator (Cohen, *A Course in Computational Algebraic Number
Theory*, 2.4; Domich, Kannan and Trotter 1987), the one place that uses
modular arithmetic.  The Smith normal form has no elimination of its own:
it alternates the Hermite form of the matrix and of its transpose until
the matrix is diagonal (Kannan and Bachem 1979), then turns the diagonal
into a divisibility chain.  `hnf_row` keeps the U-certified elimination as
the reference the tests compare against.
"""

from __future__ import annotations

from math import gcd, lcm


def _copy(m):
    return [row[:] for row in m]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return [[] for _ in a]
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j in range(cols):
                    acc[j] += x * brow[j]
        out.append(acc)
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def hnf_row(m):
    """Return (H, U) with U unimodular, U*M = H in row Hermite normal form.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows are collected at the bottom.
    """
    h = _copy(m)
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = identity(rows)
    r = 0
    for c in range(cols):
        # find a nonzero entry in column c at or below row r
        piv = None
        for i in range(r, rows):
            if h[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        u[r], u[piv] = u[piv], u[r]
        # euclidean elimination below the pivot
        while True:
            done = True
            for i in range(r + 1, rows):
                if h[i][c] != 0:
                    done = False
                    q = h[i][c] // h[r][c]
                    if q:
                        h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if h[i][c] != 0:
                        h[r], h[i] = h[i], h[r]
                        u[r], u[i] = u[i], u[r]
            if done:
                break
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == rows:
            break
    return h, u


def _echelon(m):
    """Nonzero rows of a row echelon form of M with positive pivots.

    Entries above the pivots are left unreduced.  Each column is cleared by
    Euclidean steps that always divide by the live row of smallest |entry|;
    the transform is not kept.
    """
    pool = [list(row) for row in m]
    cols = len(pool[0]) if pool else 0
    out = []
    for c in range(cols):
        live = [row for row in pool if row[c]]
        if not live:
            continue
        pool = [row for row in pool if not row[c]]
        head = [0] * c
        while True:
            p = min(live, key=lambda row: abs(row[c]))
            pv = p[c]
            tail = p[c:]
            rest = []
            for row in live:
                if row is not p:
                    q = row[c] // pv
                    row = head + [x - q * y for x, y in zip(row[c:], tail)]
                    (rest if row[c] else pool).append(row)
            if not rest:
                break
            rest.append(p)
            live = rest
        out.append(p if pv > 0 else [-x for x in p])
        if not pool:
            break
    return out


def hnf(m):
    """Row Hermite normal form of M, computed without the transform.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows are collected at the bottom.
    """
    h = _hnf_rows(m)
    cols = len(m[0]) if m else 0
    return h + [[0] * cols for _ in range(len(m) - len(h))]


def _hnf_rows(m):
    """The nonzero rows of hnf(M)."""
    h = _echelon(m)
    for r, prow in enumerate(h):
        c = next(j for j, x in enumerate(prow) if x)
        tail = prow[c:]
        for i in range(r):
            q = h[i][c] // prow[c]
            if q:
                h[i] = h[i][:c] + [x - q * y for x, y in zip(h[i][c:], tail)]
    return h


def rank(m):
    return len(_echelon(m))


def kernel(m):
    """Basis of {x in Z^cols : M*x = 0} as a list of rows, HNF-canonical.

    Rational null space plus saturation, without a transform:
      1. take a row echelon form of M with its column order reversed; row
         operations keep the null space, and the columns this echelon form
         leaves free are exactly the pivot columns of the kernel's own HNF;
      2. back-substitute on those rows to get the rational basis C = N/d of
         the null space with an identity block on the free columns, which
         is the kernel's reduced row echelon form;
      3. saturate: the integer kernel is Lambda*C with
         Lambda = {y in Z^k : y*N = 0 mod d}, a lattice containing d*Z^k,
         built one pivot column at a time with every entry reduced mod d;
      4. the HNF of Lambda mapped through C is the HNF of the kernel.
    """
    cols = len(m[0]) if m else 0
    # steps 1 and 2 index the columns in reversed order
    h = _echelon([row[::-1] for row in m])
    pivots = [next(j for j, x in enumerate(row) if x) for row in h]
    taken = set(pivots)
    free = [j for j in range(cols - 1, -1, -1) if j not in taken]
    if not free:
        return []
    steps = [(p, row[p], [(j, row[j]) for j in range(p + 1, cols) if row[j]])
             for p, row in zip(reversed(pivots), reversed(h))]
    # back-substitution, one free column at a time, as an integer numerator
    # over a denominator that grows only when a pivot fails to divide
    nums, dens = [], []
    for f in free:
        x = [0] * cols
        x[f] = den = 1
        for p, pv, tail in steps:
            s = sum(v * x[j] for j, v in tail)
            if s % pv:
                g = pv // gcd(s, pv)
                x = [t * g for t in x]
                den *= g
                s *= g
            x[p] = -s // pv
        g = gcd(*x)
        nums.append([t // g for t in reversed(x)])
        dens.append(den // g)
    d = lcm(*dens)
    if d == 1:
        return nums
    num = [[t * (d // den) for t in x] for x, den in zip(nums, dens)]
    lam = _saturate([[x[cols - 1 - p] for p in pivots] for x in num], d)
    return [[t // d for t in row] for row in mat_mul(lam, num)]


def _saturate(a, d):
    """Row HNF of Lambda = {y in Z^k : y*A = 0 mod d}, A the k-row matrix a.

    Rows are generators of a lattice taken together with d*Z^k, so every
    entry is kept mod d.  Rows [y | y*A] start from the unit vectors y; each
    column of A is cleared by Euclidean steps and one rescaled row.  Then an
    echelon pass over the y columns, adding d*e_c at column c, yields a
    triangular basis, reduced above its pivots.
    """
    k = len(a)
    rows = [[int(i == j) for j in range(k)] + [t % d for t in a[i]] for i in range(k)]
    for j in range(k, len(rows[0])):
        live = [row for row in rows if row[j]]
        if live:
            rows = [row for row in rows if not row[j]]
            p, cleared = _clear_mod(live, j, d)
            scale = d // gcd(p[j], d)
            rows += cleared + [[y * scale % d for y in p]]
    rows = [row[:k] for row in rows]
    basis = []
    for c in range(k):
        live = [row for row in rows if row[c]]
        live.append([0] * c + [d] + [0] * (k - c - 1))
        rows = [row for row in rows if not row[c]]
        p, cleared = _clear_mod(live, c, d)
        basis.append(p)
        rows += cleared
    for c in range(k):
        for i in range(c):
            q = basis[i][c] // basis[c][c]
            if q:
                basis[i] = [y - q * t for y, t in zip(basis[i], basis[c])]
    return basis


def _clear_mod(live, j, d):
    """Euclidean steps mod d on rows nonzero in column j, entries in [0, d).

    Returns the one row left nonzero there and the rows now zero there.
    """
    cleared = []
    while True:
        p = min(live, key=lambda row: row[j])
        rest = []
        for row in live:
            if row is not p:
                q = row[j] // p[j]
                row = [(y - q * t) % d for y, t in zip(row, p)]
                (rest if row[j] else cleared).append(row)
        if not rest:
            return p, cleared
        rest.append(p)
        live = rest


def left_kernel(m):
    """Basis of {x in Z^rows : x*M = 0}, HNF-canonical: `kernel` of M^T."""
    if m and not m[0]:
        return identity(len(m))
    return kernel(transpose(m))


def smith_normal_form(m):
    """Diagonal invariant factors d_1 | d_2 | ... of M (nonzero ones only).

    Alternating Hermite forms (Kannan and Bachem 1979): the nonzero rows of
    hnf(M), then of hnf of their transpose, and so on until the matrix is
    diagonal; both steps keep the Smith form.  Pairwise (gcd, lcm) steps
    then turn the diagonal into a divisibility chain.
    """
    h = _hnf_rows(m)
    while any(x for i, row in enumerate(h) for j, x in enumerate(row) if i != j):
        h = _hnf_rows(transpose(h))
    diag = [row[i] for i, row in enumerate(h)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return diag


def lattices_equal(a, b) -> bool:
    """Whether two row-span lattices in Z^n coincide."""
    return _hnf_rows(a) == _hnf_rows(b)


def in_lattice(vec, basis) -> bool:
    """Whether an integer vector lies in the row-span lattice of basis.

    The generators may be dependent: vec is a member exactly when adding it
    leaves the Hermite normal form unchanged.
    """
    return lattices_equal(basis, [*basis, vec])
