"""Tropical feasibility of a decorated dual graph and its gluing cone.

Feasibility asks for positive edge lengths and positive vertex slopes whose
differences across each node are the prescribed multiples of the contact
vectors; by homogeneity, strict positivity is normalized to >= 1.  The cone
is the kernel subspace intersected with the non-negative orthant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Optional

from . import intlinalg as il
from . import linprog
from .errors import SizeCapError
from .graphs import DecoratedDualGraph, require_valid
from .lattice import build_rho

_CONE_VARIABLE_CAP = 20


@dataclass(frozen=True)
class TropicalWitness:
    lam: dict  # edge id -> Fraction > 0
    slopes: dict  # (vertex id, i) -> Fraction > 0

    def check(self, graph: DecoratedDualGraph) -> bool:
        """Exact verification on the equations of rho: one value > 0 for each
        domain variable (lam[e] for ("edge", e), slopes[(v, i)] for
        ("vertex", v, i)), no other key, and every equation solved."""
        vars_, rows, _ = _system(graph)
        if len(self.lam) + len(self.slopes) != len(vars_):
            return False
        x = [self.lam.get(var[1]) if var[0] == "edge" else self.slopes.get(var[1:])
             for var in vars_]
        return (all(v is not None and v > 0 for v in x)
                and all(sum(a * v for a, v in zip(row, x)) == 0 for row in rows))


@dataclass(frozen=True)
class TropicalResult:
    feasible: bool
    witness: Optional[TropicalWitness] = None
    certificate: Optional[dict] = None  # constraint label -> multiplier


def _system(graph: DecoratedDualGraph):
    """(variables, rows, labels) of the slope/length equations A x = 0.

    The system is the lattice map rho, negated so that the row of node e
    and coordinate i reads s(ends[1], i) - s(ends[0], i) - lam_e * contact_i;
    the zero rows of loops are dropped, since a zero row with a label would
    put a spurious multiplier into a Farkas certificate.  A graph that fails
    validation, multi-nodes included, raises InputError.
    """
    require_valid(graph)
    lmap = build_rho(graph)
    rows, labels = [], []
    for row, label in zip(lmap._sparse_rows, lmap.codomain_index):
        if row:
            rows.append(il._dense({j: -x for j, x in row.items()}, lmap.n_cols))
            labels.append(label)
    return lmap.domain_index, rows, labels


def tropical_feasible(graph: DecoratedDualGraph) -> TropicalResult:
    """Decide the tropical condition by exact rational feasibility."""
    vars_, rows, labels = _system(graph)
    b = [0] * len(rows)
    res = linprog.feasible_eq_lower(rows, b, [1] * len(vars_))
    if res.feasible:
        lam = {var[1]: x for var, x in zip(vars_, res.point) if var[0] == "edge"}
        slopes = {var[1:]: x for var, x in zip(vars_, res.point) if var[0] == "vertex"}
        return TropicalResult(True, TropicalWitness(lam, slopes))
    cert = {label: y for label, y in zip(labels, res.certificate or ()) if y != 0}
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

    # sigma in kernel coordinates: { t : (B^T t)_j >= 0 }; a candidate ray
    # is the direction on which r - 1 of these facets vanish, when unique
    constraints = [[kernel[i][j] for i in range(r)] for j in range(n)]
    rays = set()
    for subset in itertools.combinations(range(n), r - 1):
        dirs = il.kernel([constraints[j] for j in subset]) if subset else il.identity(1)
        if len(dirs) != 1:
            continue
        for sign in (1, -1):
            t = [sign * x for x in dirs[0]]
            vec = [sum(t[i] * kernel[i][j] for i in range(r)) for j in range(n)]
            if all(v >= 0 for v in vec) and any(v != 0 for v in vec):
                g = gcd(*vec)
                rays.add(tuple(v // g for v in vec))

    ray_list = sorted(rays)
    dim = il.rank(ray_list) if ray_list else 0
    return ConeDescription(dim, tuple(ray_list), True)


def feasible_by_fourier_motzkin(graph: DecoratedDualGraph) -> bool:
    """Independent cross-check path; exponential, keep to ~12 variables."""
    vars_, rows, _ = _system(graph)
    if len(vars_) > 12:
        raise SizeCapError("fourier-motzkin cross-check capped at 12 variables")
    ineqs = []
    for row in rows:
        ineqs.append(row + [0])
        ineqs.append([-c for c in row] + [0])
    for j in range(len(vars_)):
        r = [0] * (len(vars_) + 1)
        r[j] = 1
        r[-1] = -1  # x_j - 1 >= 0
        ineqs.append(r)
    return linprog.fourier_motzkin(ineqs, len(vars_))
