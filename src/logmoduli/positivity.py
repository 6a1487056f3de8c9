"""Positivity classifiers for a divisor-complement geometry profile.

A profile lists curve-class families per stratum, each a generator with
integer Chern and divisor pairings taken at multiplicities m >= 1 (symbolic)
or over a finite list.  The checks are the implications restricting
low-Chern effective classes; the hypothesis threshold carries one unit of
slack for nonempty divisors, accounting for the marked point a contracted
cluster may carry (this reproduces the arrangement ranges exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .errors import InputError, StructuralError
from .graphs import int_entries

Multiplicity = Union[str, Tuple[int, ...]]


@dataclass(frozen=True)
class CurveFamily:
    label: str
    stratum: frozenset
    c1_tx: int
    dot: tuple  # generator pairing with each divisor component
    effective: bool = True
    multiplicity: Multiplicity = "all"
    delta: Union[int, tuple, None] = None  # int, or ("linear", w) for m*w

    def __post_init__(self):
        object.__setattr__(self, "stratum", frozenset(self.stratum))
        int_entries((self.c1_tx,), f"family {self.label!r}", ("c1_tx",))
        object.__setattr__(self, "dot", int_entries(self.dot, f"family {self.label!r} dot"))
        if self.multiplicity != "all":
            object.__setattr__(self, "multiplicity",
                               int_entries(self.multiplicity, f"family {self.label!r} multiplicity"))
        delta = tuple(self.delta) if isinstance(self.delta, list) else self.delta
        if not (delta is None or type(delta) is int or type(delta) is tuple and len(delta) == 2):
            raise StructuralError(f"family {self.label!r}: delta must be None, an integer or a "
                                  f"(tag, weight) pair, got {delta!r}")
        if type(delta) is tuple and delta[0] == "linear":
            int_entries(delta[1:], f"family {self.label!r}", ("linear delta weight",))
        object.__setattr__(self, "delta", delta)

    @property
    def c1_log_unit(self) -> int:
        return self.c1_tx - sum(self.dot)

    def delta_at(self, m: int) -> int:
        if self.delta is None:
            return 0  # conservative default: makes the strong check hardest
        if isinstance(self.delta, int):
            return self.delta
        tag, w = self.delta
        if tag != "linear":
            raise InputError("cannot decide symbolically: unsupported delta form; enumerate")
        return m * w


@dataclass(frozen=True)
class GeometryProfile:
    n: int
    N: int
    families: tuple

    def __post_init__(self):
        int_entries((self.n, self.N), "profile", ("n", "N"))
        object.__setattr__(self, "families", tuple(self.families))
        for f in self.families:
            if len(f.dot) != self.N:
                raise InputError(f"family {f.label!r}: pairing length != N")
            if any(i < 1 or i > self.N for i in f.stratum):
                raise InputError(f"family {f.label!r}: stratum outside [1..N]")


@dataclass(frozen=True)
class Witness:
    family: str
    stratum: tuple
    multiplicity: int
    condition: str


@dataclass(frozen=True)
class Classification:
    nef: bool
    semi_positive: bool
    positive: bool
    strongly_semi_positive: bool
    strongly_positive: bool
    witnesses: tuple
    strongly_semi_positive_strict_flag: Optional[bool] = None
    delta_defaulted: bool = False


def _multiplicities(profile: GeometryProfile, family: CurveFamily):
    if family.multiplicity == "all":
        # symbolic family: thresholds and caps are all saturated beyond this
        # bound (caps need m*w >= 2, triggers die once m|c| exceeds the
        # constant threshold), so finite enumeration is exact.
        cap = max(2 * profile.n + 5, abs(3 - profile.n) + profile.N + 6, 8)
        return range(1, cap + 1)
    return family.multiplicity


def classify_pair(profile: GeometryProfile, exempt_empty_zero: bool = True) -> Classification:
    """Evaluate all positivity implications, reporting every violation.

    Each 'false' verdict carries a concrete (family, stratum, multiplicity)
    witness; substituting it re-violates the implication exactly.
    """
    n, N = profile.n, profile.N
    slack = 1 if N >= 1 else 0
    witnesses: List[Witness] = []
    nef = True
    semi = True
    pos = True
    strong = True
    strong_strict = True
    delta_defaulted = any(f.delta is None for f in profile.families)

    for fam in profile.families:
        if not fam.effective:
            continue
        I = fam.stratum
        w_out = sum(fam.dot[j - 1] for j in range(1, N + 1) if j not in I)
        c = fam.c1_log_unit
        if any(d < 0 for d in fam.dot):
            nef = False
            witnesses.append(Witness(fam.label, tuple(sorted(I)), 1, "nef"))
        for m in _multiplicities(profile, fam):
            c1 = m * c
            ell = min(m * w_out, 2)
            threshold = 3 - n + len(I) - ell - slack
            trigger = c1 >= threshold
            if not trigger:
                continue
            if c1 < 0:
                semi = False
                witnesses.append(Witness(fam.label, tuple(sorted(I)), m, "semi-positive"))
            if c1 <= 0:
                pos = False
                witnesses.append(Witness(fam.label, tuple(sorted(I)), m, "positive"))
            # the exemption excuses only the strengthened requirement, never
            # the basic one, so the strong verdict stays monotone
            exempt = exempt_empty_zero and not I and fam.delta_at(m) == 0
            need = max(0, 2 - fam.delta_at(m))
            if c1 < need:
                strong_strict = False
            if c1 < (0 if exempt else need):
                strong = False
                witnesses.append(Witness(fam.label, tuple(sorted(I)), m, "strongly-semi-positive"))

    if not nef:
        # the strong checks presuppose a Nef divisor
        strong = False
        strong_strict = False

    return Classification(
        nef=nef,
        semi_positive=semi,
        positive=pos,
        strongly_semi_positive=strong,
        strongly_positive=strong and pos,
        witnesses=tuple(witnesses),
        strongly_semi_positive_strict_flag=(strong_strict if strong_strict != strong else None),
        delta_defaulted=delta_defaulted,
    )


def hyperplane_profile(n: int, d: int) -> GeometryProfile:
    """d transverse hyperplanes in complex projective n-space.

    Strata of depth i < n carry the line class of the sub-arrangement; the
    geometric intersection counts equal the homological pairings here.
    """
    fams = []
    for depth in range(0, min(d, n - 1) + 1):
        stratum = frozenset(range(1, depth + 1))
        dot = tuple(1 for _ in range(d))
        fams.append(
            CurveFamily(
                label=f"line-depth-{depth}",
                stratum=stratum,
                c1_tx=n + 1,
                dot=dot,
                multiplicity="all",
                delta=("linear", d - depth),
            )
        )
    return GeometryProfile(n=n, N=d, families=tuple(fams))
