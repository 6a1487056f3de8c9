"""Exact rational linear feasibility: phase-1 simplex and Fourier-Motzkin.

Both solvers work over fractions.Fraction throughout; the simplex uses
Bland's rule so it terminates on every input, and infeasibility comes with a
Farkas certificate that can be verified independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


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
    n = len(a[0]) if m else 0
    a = [[Fraction(x) for x in row] for row in a]
    b = [Fraction(x) for x in b]
    if m == 0:
        return Feasibility(True, tuple())
    # flip rows to make b >= 0
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # tableau with artificial variables; objective = sum of artificials
    # columns: 0..n-1 original, n..n+m-1 artificial, last = rhs
    tab = [row[:] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]]
           for i, row in enumerate(a)]
    basis = [n + i for i in range(m)]
    # objective row: minimize sum artificials -> reduced costs
    obj = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            obj[j] += tab[i][j]
    # (artificial columns cancel to 1-1=0 after subtracting e_i rows)
    for i in range(m):
        obj[n + i] -= 1

    def pivot(row, col):
        # zero entries of the pivot row leave every other row unchanged, so
        # only its nonzero columns are scaled and subtracted
        prow = tab[row]
        piv = prow[col]
        nonzero = [j for j, x in enumerate(prow) if x != 0]
        for j in nonzero:
            prow[j] /= piv
        for r in range(m):
            f = tab[r][col]
            if r != row and f != 0:
                target = tab[r]
                for j in nonzero:
                    target[j] -= f * prow[j]
        f = obj[col]
        if f != 0:
            for j in nonzero:
                obj[j] -= f * prow[j]
        basis[row] = col

    while True:
        # Bland: smallest index with positive reduced cost (maximizing -sum)
        col = None
        for j in range(n + m):
            if obj[j] > 0:
                col = j
                break
        if col is None:
            break
        # ratio test, Bland tie-break on basis index
        best = None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            break  # unbounded phase-1 cannot happen; safety
        pivot(best[1], col)

    if obj[-1] != 0:
        # infeasible: certificate from the objective row's equation multipliers.
        # obj started as sum of rows; pivots keep obj = y0^T(original rows) + const
        # recover y via artificial columns: obj coefficient of artificial i is
        # y_i - 1 (it began at 0 and each row i was added once).
        y = tuple(obj[n + i] + 1 for i in range(m))
        return Feasibility(False, None, y)
    # read off solution; drive artificials out if still basic at zero
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
    return Feasibility(True, tuple(x))


def feasible_eq_lower(a, b, lower) -> Feasibility:
    """Decide {x : A x = b, x_j >= lower_j}; substitution to x' >= 0."""
    m = len(a)
    n = len(a[0]) if m else 0
    shift = [Fraction(l) for l in lower]
    b2 = []
    for i in range(m):
        b2.append(Fraction(b[i]) - sum(Fraction(a[i][j]) * shift[j] for j in range(n)))
    res = solve_eq_nonneg(a, b2)
    if res.feasible:
        if n and res.point is not None:
            pt = tuple(res.point[j] + shift[j] for j in range(n))
        else:
            pt = tuple(shift)
        return Feasibility(True, pt)
    return res


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

    Rows have length n+1 (affine part last).  Exponential but exact; intended
    as an independent cross-check for small systems.
    """
    rows = [[Fraction(c) for c in r] for r in ineqs]
    for var in range(n):
        pos, neg, zero = [], [], []
        for r in rows:
            if r[var] > 0:
                pos.append(r)
            elif r[var] < 0:
                neg.append(r)
            else:
                zero.append(r)
        new_rows = zero
        for p in pos:
            for q in neg:
                # eliminate: p scaled by -q[var], q scaled by p[var]
                lam = -q[var]
                mu = p[var]
                comb = [lam * a + mu * b for a, b in zip(p, q)]
                comb[var] = Fraction(0)
                new_rows.append(comb)
        rows = _dedupe(new_rows)
    return all(r[-1] >= 0 for r in rows)


def _dedupe(rows):
    seen = set()
    out = []
    for r in rows:
        nz = [abs(x) for x in r if x != 0]
        if not nz:
            continue
        g = nz[0]
        for x in nz[1:]:
            # rational gcd: scale to make the row canonical
            g = Fraction(_gcd(g.numerator * x.denominator, x.numerator * g.denominator),
                         g.denominator * x.denominator)
        key = tuple(x / g for x in r)
        if key not in seen:
            seen.add(key)
            out.append(list(key))
    return out


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a if a else 1
