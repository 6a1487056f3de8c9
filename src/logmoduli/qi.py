"""Exact arithmetic in the field Q(i) of Gaussian rationals.

A value is three Python ints (a, b, d), meaning (a + b*i)/d, with d > 0 and
gcd(a, b, d) == 1.  Every operation works on the integers and reduces its
result with one three-way gcd (Knuth, TAOCP vol. 2, 4.5.1).  The parts are
offered as Fractions through `.re` and `.im`; `fractions` is imported only
there and for a constructor argument that is neither an int nor a Fraction,
so the document layer does not load it.

Values serialize as "a/b" (rational) or "a/b+c/d*i"; the string "inf" is
reserved for the point at infinity and handled by the sections module.
"""

from __future__ import annotations

import re
from math import gcd

from .errors import StructuralError

_RAT = r"(-?\d+)(?:/(\d+))?"
# groups: 1-2 a real value; 3-4 the real part, 5 the sign and 6-7 the size
# of the imaginary part; 8-9 an imaginary value
_FULL = re.compile(rf"^{_RAT}$|^{_RAT}([+-])(\d+)(?:/(\d+))?\*i$|^{_RAT}\*i$")


class GaussianRational:
    """An element (a + b*i)/d of Q(i), kept as a canonical integer triple:
    d > 0 and gcd(a, b, d) == 1, so equal values have equal triples."""

    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        a, b, d = p * s, r * q, q * s
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(a, b, d)
        _SET(self, (a // g, b // g, d // g))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self):
        from fractions import Fraction

        return Fraction(self._abd[0], self._abd[2])

    @property
    def im(self):
        from fractions import Fraction

        return Fraction(self._abd[1], self._abd[2])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b, d = self._abd
        c, e, f = _triple(other)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, d = self._abd
        c, e, f = _triple(other)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b, d = self._abd
        c, e, f = _triple(other)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, d = self._abd
        c, e, f = _triple(other)
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # (a + bi)/d * f(c - ei)/(c^2 + e^2)
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    def __rtruediv__(self, other):
        return _wrap(_triple(other)) / self

    def __neg__(self):
        a, b, d = self._abd
        return _wrap((-a, -b, d))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        a, b, d = (self if k >= 0 else self.inverse())._abd
        k = abs(k)
        dk = d ** k
        # (a + bi)^k by squaring on the integer pair, then one reduction
        x, y = 1, 0
        while k:
            if k & 1:
                x, y = x * a - y * b, x * b + y * a
            k >>= 1
            if k:
                a, b = a * a - b * b, 2 * a * b
        return _reduced(x, y, dk)

    def inverse(self):
        a, b, d = self._abd
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _reduced(a * d, -b * d, n)

    def conjugate(self):
        a, b, d = self._abd
        return _wrap((a, -b, d))

    def is_zero(self) -> bool:
        return self._abd == (0, 0, 1)

    def is_one(self) -> bool:
        return self._abd == (1, 0, 1)

    # -- structural equality / hashing --------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._abd == other._abd
        try:
            return self._abd == (other.numerator, 0, other.denominator)
        except AttributeError:
            return NotImplemented

    def __hash__(self):
        return hash(self._abd)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the value from its triple; the
        # default slot restore would go through the refusing __setattr__
        return _wrap, (self._abd,)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return qi_str(self)

    def __complex__(self):
        a, b, d = self._abd
        return complex(a / d, b / d)


_NEW = object.__new__
_SET = GaussianRational._abd.__set__


def _wrap(abd) -> GaussianRational:
    """The value with the canonical triple abd, built without a check."""
    z = _NEW(GaussianRational)
    _SET(z, abd)
    return z


def _reduced(a, b, d) -> GaussianRational:
    """(a + b*i)/d for d > 0, brought to lowest terms by one gcd."""
    g = gcd(a, b, d)
    return _wrap((a // g, b // g, d // g))


def _ratio(x):
    """x as (numerator, denominator): ints, Fractions and other rationals
    through their attributes, anything else through Fraction(x)."""
    if type(x) is int:
        return x, 1
    try:
        return x.numerator, x.denominator
    except AttributeError:
        from fractions import Fraction

        x = Fraction(x)
        return x.numerator, x.denominator


def _triple(x):
    """The canonical triple of an operand: a GaussianRational, an int or a
    Fraction (any value with an integer numerator and denominator)."""
    if isinstance(x, GaussianRational):
        return x._abd
    if type(x) is int:
        return x, 0, 1
    try:
        return x.numerator, 0, x.denominator
    except AttributeError:
        raise TypeError(f"cannot coerce {type(x).__name__} into Q(i)") from None


QI_ONE = GaussianRational(1)


def _ratio_str(p: int, q: int) -> str:
    g = gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def qi_str(z: GaussianRational) -> str:
    """Canonical serialization; round-trips bit-exactly through qi_parse."""
    a, b, d = z._abd
    if b == 0:
        return _ratio_str(a, d)
    sign = "+" if b > 0 else "-"
    return f"{_ratio_str(a, d)}{sign}{_ratio_str(abs(b), d)}*i"


def qi_parse(s: str) -> GaussianRational:
    """Parse "a/b", "a/b+c/d*i", or "c/d*i" (integers allowed for a/b)."""
    if not isinstance(s, str):
        raise StructuralError(f"Gaussian rational must be a string, got {type(s).__name__}")
    text = s.strip().replace(" ", "")
    m = _FULL.match(text)
    if m is None:
        raise StructuralError(f"cannot parse Gaussian rational from {s!r}")
    g = m.groups()
    if g[0] is not None:  # "a/b"
        real, imag = g[0:2], ("0", None)
    elif g[7] is not None:  # "c/d*i"
        real, imag = ("0", None), g[7:9]
    else:  # "a/b+c/d*i"
        real, imag = g[2:4], (g[4] + g[5], g[6])
    (p, q), (r, t) = _parts(*real), _parts(*imag)
    if q == 0 or t == 0:
        raise StructuralError(f"zero denominator in Gaussian rational {s!r}")
    return _reduced(p * t, r * q, q * t)


def _parts(num: str, den) -> tuple:
    return int(num), 1 if den is None else int(den)
