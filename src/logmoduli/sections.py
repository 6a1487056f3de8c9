"""Exact meromorphic sections of O(d) on P1 over the Gaussian rationals.

A section is kept in factored form: a nonzero scale times a product of
(z - root)^mult over finite roots; the multiplicity at infinity is forced by
the degree.  Charts: trivializations over the two affine charts with
transition z^d, so the local representative at infinity is w^d * zeta(1/w).

`RationalSection` is the one check of a divisor (distinct points, integer
orders, the order at infinity the degree forces); `build_section` adds only
the degree rule, that the listed orders sum to the degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .errors import InputError, StructuralError
from .graphs import int_entries
from .qi import QI_ONE, GaussianRational, qi_parse, qi_str

INF = "inf"


@dataclass(frozen=True)
class P1Point:
    """A point of P1: a finite Gaussian-rational coordinate or infinity."""

    value: Optional[GaussianRational]  # None encodes infinity

    @staticmethod
    def finite(z) -> "P1Point":
        if isinstance(z, P1Point):
            return z
        if isinstance(z, GaussianRational):
            return P1Point(z)
        return P1Point(GaussianRational(z))

    @staticmethod
    def infinity() -> "P1Point":
        return P1Point(None)

    @staticmethod
    def parse(s: str) -> "P1Point":
        if s == INF:
            return P1Point(None)
        return P1Point(qi_parse(s))

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __str__(self):
        return INF if self.value is None else qi_str(self.value)


class RationalSection:
    """Factored section of O(degree) with prescribed zero/pole divisor.

    The one check of a divisor: its points are pairwise distinct, infinity
    and points of order 0 included, its orders and the degree are integers,
    and a listed order at infinity is the one the degree forces.
    """

    def __init__(self, degree: int, scale: GaussianRational, factors):
        if not isinstance(scale, GaussianRational):
            scale = GaussianRational(scale)
        if scale.is_zero():
            raise InputError("section scale must be nonzero")
        orders = {}
        for pt, order in factors:
            pt = P1Point.finite(pt)
            if pt in orders:
                raise InputError(f"divisor points must be pairwise distinct; {pt} repeats")
            orders[pt] = order
        self.degree = int_entries((degree,), "section", ("degree",))[0]
        int_entries(orders.values(), "section divisor order")
        self.scale = scale
        inf_order = orders.pop(P1Point.infinity(), None)
        self.finite_factors = dict(sorted(((pt, m) for pt, m in orders.items() if m),
                                          key=lambda kv: str(kv[0])))
        forced = self.degree - sum(self.finite_factors.values())
        if inf_order is not None and inf_order != forced:
            raise InputError(
                f"order at infinity {inf_order} inconsistent with degree (needs {forced})"
            )
        self.inf_order = forced

    # -- queries -------------------------------------------------------------

    def order_at(self, pt: P1Point) -> int:
        if pt.is_infinity:
            return self.inf_order
        return self.finite_factors.get(pt, 0)

    def divisor(self):
        out = dict(self.finite_factors)
        if self.inf_order:
            out[P1Point.infinity()] = self.inf_order
        return out

    def evaluate(self, z: GaussianRational) -> GaussianRational:
        """Value in the finite chart; poles raise ZeroDivisionError."""
        out = self.scale
        for pt, mult in self.finite_factors.items():
            out = out * (z - pt.value) ** mult
        return out

    def rescaled(self, c: GaussianRational) -> "RationalSection":
        return RationalSection(self.degree, self.scale * c, list(self.finite_factors.items()))

    def __repr__(self):
        root_bits = ", ".join(f"({p}: {m})" for p, m in self.finite_factors.items())
        return f"RationalSection(deg={self.degree}, scale={self.scale}, roots=[{root_bits}], inf={self.inf_order})"


@dataclass
class CurveData:
    """Analytic decorations: point positions, sections, and user-supplied
    leading coefficients for coordinates transverse to a component."""

    positions: Dict[tuple, P1Point] = field(default_factory=dict)  # (edge id, end idx)
    leg_positions: Dict[str, P1Point] = field(default_factory=dict)
    sections: Dict[str, Dict[int, RationalSection]] = field(default_factory=dict)
    eta: Dict[tuple, GaussianRational] = field(default_factory=dict)  # (edge id, end idx, i)


def build_section(degree: int, divisor: Sequence[Tuple], scale=QI_ONE) -> RationalSection:
    """Section of O(degree) whose zeros/poles are exactly the given divisor.

    A point absent from the divisor carries order 0, infinity included, so a
    section exists iff the listed orders sum to the degree: the genus-zero
    line-bundle triviality criterion.  That degree rule is the one check
    added here; `RationalSection` checks the divisor itself.
    """
    divisor = tuple(divisor)
    section = RationalSection(degree, scale, divisor)
    listed = sum(order for _, order in divisor)
    if listed != degree:
        raise InputError(f"no such section: divisor degree {listed} != bundle degree {degree}")
    return section


def leading_coefficient(section: RationalSection, point: P1Point):
    """(order, eta): order of the divisor at the point and the leading term
    of the chart-local representative in the coordinate w = z - p (w = 1/z at
    infinity, with the transition z^degree applied)."""
    point = P1Point.finite(point)
    if point.is_infinity:
        # representative w^d * zeta(1/w) = scale * prod (1 - q w)^m * w^(d - sum m)
        return section.inf_order, section.scale
    order = section.order_at(point)
    eta = section.scale
    for pt, mult in section.finite_factors.items():
        if pt == point:
            continue
        eta = eta * (point.value - pt.value) ** mult
    if eta.is_zero():
        raise InputError("leading coefficient vanished; invalid section data")
    return order, eta


def order_vector(
    N: int,
    stratum,
    sections: dict,
    point: P1Point,
    tangency: Optional[dict] = None,
) -> tuple:
    """Contact order vector at a point of a component with image stratum I_v.

    Coordinates in the stratum read zero/pole orders off the sections;
    coordinates outside it are the supplied tangency orders (default 0),
    which must be non-negative.
    """
    tangency = tangency or {}
    out = []
    for i in range(1, N + 1):
        if i in stratum:
            sec = sections.get(i)
            if sec is None:
                raise StructuralError(f"missing section for coordinate {i}")
            out.append(sec.order_at(point))
        else:
            t = int_entries((tangency.get(i, 0),), "tangency", (f"coordinate {i}",))[0]
            if t < 0:
                raise InputError(f"tangency order for coordinate {i} must be >= 0")
            out.append(t)
    return tuple(out)

