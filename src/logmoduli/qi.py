"""Exact arithmetic in the field Q(i) of Gaussian rationals.

Values serialize as "a/b" (rational) or "a/b+c/d*i"; the string "inf" is
reserved for the point at infinity and handled by the sections module.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import StructuralError

_RAT = r"-?\d+(?:/\d+)?"
_FULL = re.compile(rf"^({_RAT})$|^({_RAT})([+-]{_RAT})\*i$|^({_RAT})\*i$")


class GaussianRational:
    """An element of Q(i), kept in lowest terms componentwise."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(i)")
        n = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return (QI_ONE / self) ** (-k)
        out = QI_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        return QI_ONE / self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    # -- structural equality / hashing --------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return qi_str(self)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


QI_ZERO = GaussianRational(0)
QI_ONE = GaussianRational(1)
QI_I = GaussianRational(0, 1)


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(i)")


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def qi_str(z: GaussianRational) -> str:
    """Canonical serialization; round-trips bit-exactly through qi_parse."""
    if z.im == 0:
        return _frac_str(z.re)
    sign = "+" if z.im >= 0 else "-"
    return f"{_frac_str(z.re)}{sign}{_frac_str(abs(z.im))}*i"


def qi_parse(s: str) -> GaussianRational:
    """Parse "a/b", "a/b+c/d*i", or "c/d*i" (integers allowed for a/b)."""
    if not isinstance(s, str):
        raise StructuralError(f"Gaussian rational must be a string, got {type(s).__name__}")
    text = s.strip().replace(" ", "")
    m = _FULL.match(text)
    if m is None:
        raise StructuralError(f"cannot parse Gaussian rational from {s!r}")
    try:
        if m.group(1) is not None:
            return GaussianRational(Fraction(m.group(1)))
        if m.group(4) is not None:
            return GaussianRational(0, Fraction(m.group(4)))
        return GaussianRational(Fraction(m.group(2)), Fraction(m.group(3)))
    except ZeroDivisionError:
        raise StructuralError(f"zero denominator in Gaussian rational {s!r}") from None
