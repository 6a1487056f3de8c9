"""Tropical feasibility of a decorated dual graph and its gluing cone.

Feasibility asks for positive edge lengths and positive vertex slopes whose
differences across each node are the prescribed multiples of the contact
vectors; by homogeneity, strict positivity is normalized to >= 1.  The cone
is the kernel subspace intersected with the non-negative orthant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import intlinalg as il
from . import linprog
from .errors import InputError, SizeCapError
from .graphs import DecoratedDualGraph, require_valid
from .lattice import build_rho

_CONE_VARIABLE_CAP = 20


@dataclass(frozen=True)
class TropicalWitness:
    lam: dict  # edge id -> Fraction > 0
    slopes: dict  # (vertex id, i) -> Fraction > 0

    def check(self, graph: DecoratedDualGraph) -> bool:
        """Exact verification of the defining equations and positivity."""
        for value in self.lam.values():
            if value <= 0:
                return False
        for value in self.slopes.values():
            if value <= 0:
                return False
        for e in graph.edges:
            v1, v2 = e.ends
            for i in range(1, graph.N + 1):
                s1 = self.slopes.get((v1, i), Fraction(0))
                s2 = self.slopes.get((v2, i), Fraction(0))
                if s2 - s1 != self.lam[e.id] * e.contact[i - 1]:
                    return False
        return True


@dataclass(frozen=True)
class TropicalResult:
    feasible: bool
    witness: Optional[TropicalWitness] = None
    certificate: Optional[dict] = None  # constraint label -> multiplier


def _variables(graph: DecoratedDualGraph):
    vars_ = [("lam", e.id) for e in graph.edges]
    for v in graph.vertices:
        vars_.extend(("s", v.id, i) for i in sorted(v.stratum))
    return vars_


def _equations(graph: DecoratedDualGraph, vars_):
    pos = {var: j for j, var in enumerate(vars_)}
    rows = []
    labels = []
    for e in graph.edges:
        v1, v2 = e.ends
        st1 = graph.vertex(v1).stratum
        st2 = graph.vertex(v2).stratum
        for i in range(1, graph.N + 1):
            if i not in e.stratum and e.contact[i - 1] == 0 and i not in st1 and i not in st2:
                continue
            row = [0] * len(vars_)
            if ("s", v2, i) in pos:
                row[pos[("s", v2, i)]] += 1
            if ("s", v1, i) in pos:
                row[pos[("s", v1, i)]] -= 1
            row[pos[("lam", e.id)]] -= e.contact[i - 1]
            if any(row):
                rows.append(row)
                labels.append((e.id, i))
            elif e.contact[i - 1] != 0:
                rows.append(row)
                labels.append((e.id, i))
    return rows, labels


def tropical_feasible(graph: DecoratedDualGraph) -> TropicalResult:
    """Decide the tropical condition by exact rational feasibility."""
    require_valid(graph)
    if any(e.contact is None for e in graph.edges):
        raise InputError("all edges must carry contact vectors")

    vars_ = _variables(graph)
    if not vars_:
        return TropicalResult(True, TropicalWitness({}, {}))
    rows, labels = _equations(graph, vars_)
    b = [0] * len(rows)
    res = linprog.feasible_eq_lower(rows, b, [1] * len(vars_))
    if res.feasible:
        lam = {}
        slopes = {}
        for var, val in zip(vars_, res.point):
            if var[0] == "lam":
                lam[var[1]] = val
            else:
                slopes[(var[1], var[2])] = val
        witness = TropicalWitness(lam, slopes)
        return TropicalResult(True, witness)
    cert = {}
    if res.certificate is not None:
        for label, y in zip(labels, res.certificate):
            if y != 0:
                cert[label] = y
    return TropicalResult(False, None, cert)


@dataclass(frozen=True)
class ConeDescription:
    dimension: int
    rays: tuple  # primitive integer generators
    is_strictly_convex: bool


def cone_sigma(graph: DecoratedDualGraph) -> ConeDescription:
    """The kernel subspace meeting the non-negative orthant, by ray search.

    Desk-scale only: refuses graphs with more than a small number of domain
    coordinates.  Rays are found by intersecting the kernel with facets of
    the orthant, which is exhaustive at this scale.
    """
    require_valid(graph)
    lmap = build_rho(graph)
    n = lmap.n_cols
    if n > _CONE_VARIABLE_CAP:
        raise SizeCapError(
            f"cone_sigma supports at most {_CONE_VARIABLE_CAP} coordinates, got {n}"
        )
    kernel = [list(row) for row in lmap.kernel_basis()]
    r = len(kernel)
    if r == 0:
        return ConeDescription(0, (), True)

    # sigma in kernel coordinates: { t : (B^T t)_j >= 0 }
    constraints = [[Fraction(kernel[i][j]) for i in range(r)] for j in range(n)]

    rays = set()
    if r == 1:
        for sign in (1, -1):
            vec = [sign * x for x in kernel[0]]
            if all(v >= 0 for v in vec):
                rays.add(_primitive(vec))
    else:
        for subset in itertools.combinations(range(n), r - 1):
            dirs = _null_direction([constraints[j] for j in subset], r)
            if dirs is None:
                continue
            for sign in (1, -1):
                t = [sign * x for x in dirs]
                vec = [sum(t[i] * kernel[i][j] for i in range(r)) for j in range(n)]
                if all(v >= 0 for v in vec) and any(v != 0 for v in vec):
                    rays.add(_primitive(vec))

    ray_list = sorted(rays)
    dim = il.rank(ray_list) if ray_list else 0
    return ConeDescription(dim, tuple(ray_list), True)


def _null_direction(rows, r):
    """A nonzero rational vector killing all given rows, if unique up to scale."""
    from fractions import Fraction as F

    m = [[F(x) for x in row] for row in rows]
    # gaussian elimination
    pivots = []
    lead = 0
    for col in range(r):
        piv = None
        for i in range(lead, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[lead], m[piv] = m[piv], m[lead]
        inv = 1 / m[lead][col]
        m[lead] = [x * inv for x in m[lead]]
        for i in range(len(m)):
            if i != lead and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[lead])]
        pivots.append(col)
        lead += 1
    free = [c for c in range(r) if c not in pivots]
    if len(free) != 1:
        return None
    t = [F(0)] * r
    t[free[0]] = F(1)
    for row_idx, col in enumerate(pivots):
        t[col] = -m[row_idx][free[0]]
    return t


def _primitive(vec):
    from math import gcd

    denoms = 1
    for v in vec:
        denoms = denoms * Fraction(v).denominator // gcd(denoms, Fraction(v).denominator)
    ints = [int(Fraction(v) * denoms) for v in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def feasible_by_fourier_motzkin(graph: DecoratedDualGraph) -> bool:
    """Independent cross-check path; exponential, keep to ~12 variables."""
    vars_ = _variables(graph)
    if len(vars_) > 12:
        raise SizeCapError("fourier-motzkin cross-check capped at 12 variables")
    if not vars_:
        return True
    rows, _ = _equations(graph, vars_)
    ineqs = []
    for row in rows:
        ineqs.append([Fraction(c) for c in row] + [Fraction(0)])
        ineqs.append([-Fraction(c) for c in row] + [Fraction(0)])
    for j in range(len(vars_)):
        r = [Fraction(0)] * (len(vars_) + 1)
        r[j] = Fraction(1)
        r[-1] = Fraction(-1)  # x_j - 1 >= 0
        ineqs.append(r)
    return linprog.fourier_motzkin(ineqs, len(vars_))
