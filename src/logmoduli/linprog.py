"""Exact rational linear feasibility: phase-1 simplex and Fourier-Motzkin.

The simplex uses Bland's rule so it terminates on every input, and
infeasibility comes with a Farkas certificate that can be verified
independently.  Its tableau is fraction-free: each row is a primitive
integer vector (coprime entries) that is positive at its basic column, and
that entry is the row's denominator, so a row is the unique such
representation of its rational values.  The objective row is basic in a
column of its own.  The sign tests read the integers, the ratio test
cross-multiplies, and only the returned point and certificate are built as
Fractions; the pivots are therefore exactly those of a Fraction tableau.
Fourier-Motzkin works on primitive integer rows too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .errors import SizeCapError

_FM_ROW_CAP = 5000  # rows held at once by fourier_motzkin


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    point: Optional[tuple] = None  # solution of A x = b, x >= 0
    certificate: Optional[tuple] = None  # y with y^T A <= 0, y^T b > 0


def solve_eq_nonneg(a, b) -> Feasibility:
    """Decide {x : A x = b, x >= 0} over Q by a phase-1 simplex.

    Returns a feasible point, or a Farkas certificate y (one rational per
    equation) with y^T A <= 0 and y^T b > 0 proving emptiness.
    """
    m = len(a)
    if m == 0:
        return Feasibility(True, tuple())
    n = len(a[0])
    # primitive integer tableau rows; columns 0..n-1 original, n..n+m-1
    # artificial, z = n+m the objective's, last = rhs, rows flipped to make
    # b >= 0; row m is the objective, the sum of the artificials, whose
    # reduced costs start as the sum of the rows
    z = n + m
    rows = []
    for i in range(m):
        nums, den = _integer_row([*a[i], b[i]])
        if nums[-1] < 0:
            nums = [-x for x in nums]
        artificial = [0] * (m + 1)
        artificial[i] = den
        rows.append(nums[:-1] + artificial + nums[-1:])
    scale = lcm(*(row[n + i] for i, row in enumerate(rows)))
    obj = [0] * (z + 2)
    for i, row in enumerate(rows):
        f = scale // row[n + i]
        for j, x in enumerate(row):
            if x:
                obj[j] += f * x
    obj[n:z + 1] = [0] * m + [scale]  # the artificial columns cancel; z is basic
    rows.append(_primitive(obj))
    basis = [n + i for i in range(m)] + [z]

    while True:
        # Bland: smallest index with positive reduced cost (maximizing -sum)
        obj = rows[m]
        col = next((j for j in range(z) if obj[j] > 0), None)
        if col is None:
            break
        # ratio test rhs_i / p_i (the row denominators cancel), Bland
        # tie-break on basis index
        best = None
        for i in range(m):
            p = rows[i][col]
            if p > 0:
                rhs = rows[i][-1]
                if best is None or rhs * best_p < best_rhs * p or (
                        rhs * best_p == best_rhs * p and basis[i] < basis[best]):
                    best, best_rhs, best_p = i, rhs, p
        if best is None:
            break  # unbounded phase-1 cannot happen; safety
        _pivot(rows, basis, best, col)
        basis[best] = col

    obj = rows[m]
    if obj[-1] != 0:
        # infeasible: certificate from the objective row's equation multipliers.
        # obj started as sum of rows; pivots keep obj = y0^T(original rows) + const
        # recover y via artificial columns: obj coefficient of artificial i is
        # y_i - 1 (it began at 0 and each row i was added once).
        return Feasibility(False, None, tuple(Fraction(obj[n + i] + obj[z], obj[z])
                                              for i in range(m)))
    # read off solution; artificials still basic are at zero
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(rows[i][-1], rows[i][bv])
    return Feasibility(True, tuple(x))


def _integer_row(values):
    """(nums, den) with value j equal to nums[j] / den, den > 0 and
    gcd(den, *nums) == 1."""
    if all(type(x) is int for x in values):
        return list(values), 1
    qs = [Fraction(x) for x in values]
    den = lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


def _pivot(rows, basis, r, col):
    """Pivot the integer tableau on row r, column col, where rows[r][col] > 0.

    Row r is left as it is: it is primitive, and its entry p in col
    becomes its denominator.  Every other row with a nonzero entry t in
    col becomes row * p - t * rows[r], with the factor gcd(t, p) taken out
    first, and is then divided by the gcd of its entries unless its basic
    entry (its column in basis) is 1.  So every row stays the unique
    representation of its rational values and the entries stay as small as
    the values allow.
    """
    prow = rows[r]
    p = prow[col]
    # zero entries of the pivot row leave the other rows as they are, up
    # to the common scale
    nonzero = [(j, x) for j, x in enumerate(prow) if x]
    for k, row in enumerate(rows):
        t = row[col]
        if k == r or t == 0:
            continue
        g = gcd(t, p)
        scale, t = p // g, t // g
        if scale != 1:
            row = [x * scale for x in row]
        for j, x in nonzero:
            row[j] -= t * x
        rows[k] = row if row[basis[k]] == 1 else _primitive(row)


def feasible_eq_lower(a, b, lower) -> Feasibility:
    """Decide {x : A x = b, x_j >= lower_j}; substitution to x' >= 0."""
    shift = [_exact(l) for l in lower]
    b2 = [_exact(bi) - sum(_exact(x) * s for x, s in zip(row, shift) if x)
          for row, bi in zip(a, b)]
    res = solve_eq_nonneg(a, b2)
    if not res.feasible:
        return res
    if res.point:
        return Feasibility(True, tuple(x + s for x, s in zip(res.point, shift)))
    return Feasibility(True, tuple(Fraction(s) for s in shift))


def _exact(x):
    """x itself when it is an int, else x as a Fraction."""
    return x if isinstance(x, int) else Fraction(x)


def verify_farkas(a, b, y) -> bool:
    """Check y^T A <= 0 and y^T b > 0 after normalizing rows to b >= 0."""
    m = len(a)
    n = len(a[0]) if m else 0
    a2 = [[Fraction(x) for x in row] for row in a]
    b2 = [Fraction(x) for x in b]
    for i in range(m):
        if b2[i] < 0:
            a2[i] = [-x for x in a2[i]]
            b2[i] = -b2[i]
    comb = [sum(y[i] * a2[i][j] for i in range(m)) for j in range(n)]
    rhs = sum(y[i] * b2[i] for i in range(m))
    return all(c <= 0 for c in comb) and rhs > 0


def fourier_motzkin(ineqs, n) -> bool:
    """Feasibility of {x in Q^n : row . (x,1) >= 0 for each row}.

    Rows have length n+1 (affine part last).  Exact; intended as an
    independent cross-check for small systems.  Rows are held as primitive
    integer vectors, the positive multiple with coprime entries.  Each row
    carries the set of input rows it combines, and by Chernikov's rule a
    row derived after t eliminations that combines more than t + 1 of them
    is implied by the others and dropped.  More than _FM_ROW_CAP rows at
    once raise SizeCapError.
    """
    rows = [(tuple(_primitive(_integer_row(r)[0])), frozenset((k,))) for k, r in enumerate(ineqs)]
    for var in range(n):
        pos, neg, new_rows = [], [], []
        for r, origin in rows:
            if r[var] > 0:
                pos.append((r, origin))
            elif r[var] < 0:
                neg.append((r, origin))
            else:
                new_rows.append((r, origin))
        for p, p_origin in pos:
            for q, q_origin in neg:
                origin = p_origin | q_origin
                if len(origin) > var + 2:
                    continue
                # eliminate: p scaled by -q[var], q scaled by p[var]
                lam = -q[var]
                mu = p[var]
                comb = [lam * a + mu * b for a, b in zip(p, q)]
                comb[var] = 0
                new_rows.append((tuple(_primitive(comb)), origin))
                if len(new_rows) > _FM_ROW_CAP:
                    raise SizeCapError(f"fourier-motzkin capped at {_FM_ROW_CAP} rows")
        rows = _dedupe(new_rows)
    return all(r[-1] >= 0 for r, _ in rows)


def _primitive(row):
    """The integer list divided by the gcd of its entries (a zero row as is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _dedupe(rows):
    """Zero rows dropped; of equal rows the one combining the fewest input
    rows is kept."""
    kept = {}
    for r, origin in rows:
        if not any(r):
            continue
        if r not in kept or len(origin) < len(kept[r]):
            kept[r] = origin
    return list(kept.items())
