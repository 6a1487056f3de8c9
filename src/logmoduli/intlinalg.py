"""Integer matrix normal forms over arbitrary-precision ints.

Row-style Hermite normal form, Smith normal form, and the kernel /
left-kernel lattices.  The public routines take and return matrices as
lists of lists of Python ints, and there is no floating point anywhere.

Inside, every elimination runs on sparse rows: a row is a dict from column
to nonzero int, and an entry that becomes zero is deleted, so a row update
costs the nonzeros of the pivot row, not the width of the matrix (the
lattice maps of dual graphs have two or three nonzeros per row; Dumas,
Saunders and Villard, *On efficient sparse integer matrix Smith normal form
computations*, 2001).  The echelon keeps each live row in a bucket keyed by
its leading column and walks the columns in increasing order.

No public routine carries the unimodular transform U of U*M = H, whose
entries grow without bound under Euclidean elimination: kernels come from a
rational null space saturated modulo its common denominator (Cohen, *A
Course in Computational Algebraic Number Theory*, 2.4; Domich, Kannan and
Trotter 1987), the one place that uses modular arithmetic.  The kernel
reads a row echelon form of the matrix with its column order reversed and
never changes it, so a caller that keeps that echelon form (a lattice map
does) takes its rank, its kernel and its Smith form from one elimination.
Its back-substitution walks only the pivot rows each free column reaches,
not every pivot row.  A caller that keeps M as sparse rows (a lattice map
again) takes its left kernel from them through `_left_null_space`, which
transposes in one pass over the nonzeros.
The Smith normal form has no elimination of its own: it starts from any
echelon form of the matrix with positive pivots, its columns in any order,
and only reads it.  The rows whose pivot is 1 each give an invariant factor
1 and are split off; the other rows, cleared at the unit-pivot columns,
form a block, and only that block alternates the Hermite form of the
matrix and of its transpose until it is diagonal (Kannan and Bachem 1979),
then its diagonal becomes a divisibility chain.  Most pivots of a lattice
map are 1, so the block is small.  Every answer is canonical (the rank,
the HNF, the HNF-canonical kernels and the invariant factors), so it does
not depend on which pivot breaks a tie.
`hnf_row` keeps the dense, U-certified elimination as the reference the
tests compare against.
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


# -- sparse rows: dicts from column to nonzero int ---------------------------

def _sparse(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _dense(row, cols):
    out = [0] * cols
    for j, x in row.items():
        out[j] = x
    return out


def _width(m):
    return len(m[0]) if m else 0


def _sub(row, q, p):
    """row -= q * p in place for q != 0, deleting the entries that become zero."""
    for j, y in p.items():
        x = row.get(j, 0) - q * y
        if x:
            row[j] = x
        else:
            del row[j]


def _echelon(rows, cols):
    """Nonzero rows of a row echelon form of the sparse rows, positive pivots.

    Consumes its rows.  Entries above the pivots are left unreduced.  Each
    row waits in the bucket of its leading column; each column is cleared by
    Euclidean steps that always divide by the live row of smallest |entry|,
    and a reduced row moves to the bucket of its new leading column.  The
    transform is not kept.
    """
    buckets = [[] for _ in range(cols)]
    for row in rows:
        if row:
            buckets[min(row)].append(row)
    out = []
    for c in range(cols):
        live = buckets[c]
        if not live:
            continue
        while len(live) > 1:
            p = min(live, key=lambda row: abs(row[c]))
            pv = p[c]
            rest = [p]
            for row in live:
                if row is not p:
                    _sub(row, row[c] // pv, p)
                    if c in row:
                        rest.append(row)
                    elif row:
                        buckets[min(row)].append(row)
            live = rest
        p = live[0]
        out.append(p if p[c] > 0 else {j: -x for j, x in p.items()})
    return out


def _reduce_above(h):
    """Reduce, in place, the entries above each pivot of the echelon rows h
    into [0, pivot); returns h."""
    for r, prow in enumerate(h):
        c = min(prow)
        pv = prow[c]
        for row in h[:r]:
            x = row.get(c)
            if x is not None and (x < 0 or x >= pv):
                _sub(row, x // pv, prow)
    return h


def _hnf_rows(rows, cols):
    """The nonzero rows of the HNF of the sparse rows, in pivot order."""
    return _reduce_above(_echelon(rows, cols))


def hnf(m):
    """Row Hermite normal form of M, computed without the transform.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows are collected at the bottom.
    """
    cols = _width(m)
    h = [_dense(row, cols) for row in _hnf_rows(_sparse(m), cols)]
    return h + [[0] * cols for _ in range(len(m) - len(h))]


def rank(m):
    return len(_echelon(_sparse(m), _width(m)))


def _reversed(m, cols):
    """Sparse rows of M with the column order reversed: column j under key
    cols - 1 - j."""
    return [{cols - 1 - j: x for j, x in enumerate(row) if x} for row in m]


def kernel(m):
    """Basis of {x in Z^cols : M*x = 0} as a list of rows, HNF-canonical."""
    cols = _width(m)
    return _null_space(_echelon(_reversed(m, cols), cols), cols)


def left_kernel(m):
    """Basis of {x in Z^rows : x*M = 0}, HNF-canonical: `kernel` of M^T."""
    return _left_null_space(_sparse(m), _width(m))


def _left_null_space(rows, cols):
    """`left_kernel` of M from its sparse rows, `cols` columns wide; the rows
    are only read.  M^T with its column order reversed is built in one pass
    over the nonzeros."""
    n = len(rows)
    reversed_t = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            reversed_t[j][n - 1 - i] = x
    return _null_space(_echelon(reversed_t, n), n)


def _null_space(h, cols):
    """`kernel` of M from the nonzero rows h of a row echelon form of M with
    its column order reversed (column j under key cols - 1 - j), positive
    pivots; h is only read.

    Rational null space plus saturation, without a transform:
      1. row operations keep the null space, and the columns the reversed
         echelon form leaves free are exactly the pivot columns of the
         kernel's own HNF;
      2. back-substitute on those rows to get the rational basis C = N/d of
         the null space with an identity block on the free columns, which
         is the kernel's reduced row echelon form; the pivots are walked
         from the last up, and a free column visits only the pivot rows it
         reaches (rows with a nonzero entry at a column already set), read
         from an index of each column's pivot rows built once per call;
      3. saturate: the integer kernel is Lambda*C with
         Lambda = {y in Z^k : y*N = 0 mod d}, a lattice containing d*Z^k,
         built one pivot column at a time with every entry reduced mod d;
      4. the HNF of Lambda mapped through C is the HNF of the kernel.
    """
    pivots = [min(row) for row in h]
    taken = set(pivots)
    free = [j for j in range(cols - 1, -1, -1) if j not in taken]
    if not free:
        return []
    # the pivot rows that reach each column, with the entry they have there
    reach = {}
    for p, row in zip(pivots, h):
        for j, v in row.items():
            if j != p:
                reach.setdefault(j, []).append((p, v))
    steps = [(p, row[p]) for p, row in zip(reversed(pivots), reversed(h))]
    # back-substitution, one free column at a time, as an integer numerator
    # over a denominator that grows only when a pivot fails to divide; each
    # value set in x is pushed at once into the pending sums of the pivot
    # rows it reaches, so a pivot row without a pending sum is skipped and
    # the walk stops when none is left; the numerators go back to the
    # original column order
    nums, dens = [], []
    for f in free:
        x = {f: 1}
        den = 1
        pending = dict(reach.get(f, ()))
        for p, pv in steps:
            if not pending:
                break
            s = pending.pop(p, 0)
            if not s:
                continue
            if s % pv:
                g = pv // gcd(s, pv)
                x = {j: t * g for j, t in x.items()}
                pending = {q: t * g for q, t in pending.items()}
                den *= g
                s *= g
            t = x[p] = -s // pv
            for q, v in reach.get(p, ()):
                pending[q] = pending.get(q, 0) + v * t
        g = gcd(*x.values())
        nums.append({cols - 1 - j: t // g for j, t in x.items()})
        dens.append(den // g)
    d = lcm(*dens)
    if d == 1:
        return [_dense(x, cols) for x in nums]
    num = [{j: t * (d // den) for j, t in x.items()} for x, den in zip(nums, dens)]
    # N restricted to the pivot columns, numbered in pivot order, mod d
    at = {cols - 1 - p: n for n, p in enumerate(pivots)}
    a = [{at[j]: t % d for j, t in x.items() if j in at and t % d} for x in num]
    out = []
    for y in _saturate(a, len(pivots), d):
        acc = {}
        for i, s in y.items():
            for j, t in num[i].items():
                acc[j] = acc.get(j, 0) + s * t
        out.append(_dense({j: t // d for j, t in acc.items()}, cols))
    return out


def _saturate(a, width, d):
    """Row HNF of Lambda = {y in Z^k : y*A = 0 mod d} as k sparse rows, for
    the k sparse rows a of A, `width` columns wide, entries in [0, d).

    Rows are generators of a lattice taken together with d*Z^k, so every
    entry is kept mod d and only the nonzero ones are stored.  Rows [y | y*A]
    start from the unit vectors y; each column of A is cleared by Euclidean
    steps and one rescaled row, which leaves the A part of every row zero.
    Then an echelon pass over the y columns, adding d*e_c at column c,
    yields a triangular basis, reduced above its pivots.
    """
    k = len(a)
    rows = [{i: 1} | {k + j: t for j, t in arow.items()} for i, arow in enumerate(a)]
    for j in range(k, k + width):
        live = [row for row in rows if j in row]
        if live:
            rows = [row for row in rows if j not in row]
            p, cleared = _clear_mod(live, j, d)
            scale = d // gcd(p[j], d)
            rows += cleared
            rows.append({c: z for c, y in p.items() if (z := y * scale % d)})
    basis = []
    for c in range(k):
        live = [row for row in rows if c in row]
        live.append({c: d})
        rows = [row for row in rows if c not in row]
        p, cleared = _clear_mod(live, c, d)
        basis.append(p)
        rows += cleared
    return _reduce_above(basis)


def _clear_mod(live, j, d):
    """Euclidean steps mod d on sparse rows nonzero in column j, entries in
    [0, d); updates the rows in place.

    Returns the one row left nonzero there and the other rows, now zero
    there, without the ones that became zero everywhere.
    """
    cleared = []
    while True:
        p = min(live, key=lambda row: row[j])
        pv = p[j]
        rest = []
        for row in live:
            if row is not p:
                q = row[j] // pv
                for c, t in p.items():
                    y = (row.get(c, 0) - q * t) % d
                    if y:
                        row[c] = y
                    else:
                        row.pop(c, None)
                if j in row:
                    rest.append(row)
                elif row:
                    cleared.append(row)
        if not rest:
            return p, cleared
        rest.append(p)
        live = rest


def smith_normal_form(m):
    """Diagonal invariant factors d_1 | d_2 | ... of M (nonzero ones only)."""
    return _smith(_echelon(_sparse(m), _width(m)))


def _smith(h):
    """`smith_normal_form` of M from the nonzero rows h of a row echelon form
    of M with positive pivots, its columns in any order; h is only read.

    The rows whose pivot is 1 are set aside.  Each other row is copied and
    cleared at the unit-pivot columns it holds, left to right, by
    subtracting that unit row: a unit row has entries only right of its
    pivot, so a cleared column is never refilled.  Each unit-pivot column
    then holds one nonzero, its unit row's pivot, and column operations
    reduce the unit rows to unit vectors without touching the cleared rows,
    so SNF(h) is one 1 per unit row followed by the SNF of the block of
    cleared rows.  The block is diagonalised by alternating Hermite forms
    (Kannan and Bachem 1979): the nonzero rows of the HNF of its transpose,
    then of that one's transpose, and so on until row i is exactly {i: v};
    transposing and row operations keep the Smith form.  Pairwise
    (gcd, lcm) steps then turn the diagonal entries other than 1 into a
    divisibility chain, which the 1s precede.
    """
    units, block = {}, []
    for row in h:
        p = min(row)
        if row[p] == 1:
            units[p] = row
        else:
            block.append(dict(row))
    for row in block:
        while held := [j for j in row if j in units]:
            c = min(held)
            _sub(row, row[c], units[c])
    while not all(len(row) == 1 and i in row for i, row in enumerate(block)):
        t = {}
        for i, row in enumerate(block):
            for j, x in row.items():
                t.setdefault(j, {})[i] = x
        block = _hnf_rows(list(t.values()), len(block))
    diag = [row[i] for i, row in enumerate(block)]
    chain = [x for x in diag if x != 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            chain[i], chain[j] = gcd(chain[i], chain[j]), lcm(chain[i], chain[j])
    return [1] * (len(units) + len(diag) - len(chain)) + chain


def lattices_equal(a, b) -> bool:
    """Whether two row-span lattices in Z^n coincide."""
    return _hnf_rows(_sparse(a), _width(a)) == _hnf_rows(_sparse(b), _width(b))


def in_lattice(vec, basis) -> bool:
    """Whether an integer vector lies in the row-span lattice of basis.

    The generators may be dependent: vec is a member exactly when adding it
    leaves the Hermite normal form unchanged.
    """
    return lattices_equal(basis, [*basis, vec])
