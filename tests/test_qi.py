import copy
import math
import os
import pickle
import random
from fractions import Fraction

import pytest

from logmoduli.errors import StructuralError
from logmoduli.qi import GaussianRational as Q
from logmoduli.qi import qi_parse, qi_str


def test_field_axioms_on_samples():
    rng = random.Random(7)
    vals = []
    while len(vals) < 12:
        z = Q(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
              Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        if not z.is_zero():
            vals.append(z)
    for a in vals[:4]:
        for b in vals[4:8]:
            assert (a + b) - b == a
            assert (a * b) / b == a
            assert a * b == b * a
    i = Q(0, 1)
    assert i * i == Q(-1)


def test_powers_and_inverse():
    z = Q(Fraction(2, 3), Fraction(-1, 5))
    assert z ** 3 == z * z * z
    assert z ** -2 == (z * z).inverse()
    assert z ** 0 == Q(1)
    assert (z * z.inverse()).is_one()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Q(1) / Q(0)


@pytest.mark.parametrize(
    "text",
    ["3/4", "-3/4", "0", "7", "1/2+3/4*i", "1/2-3/4*i", "-2+5*i", "3*i", "-1/3*i"],
)
def test_parse_serialize_roundtrip(text):
    z = qi_parse(text)
    assert qi_parse(qi_str(z)) == z


def test_serialize_is_canonical_fixed_point():
    for text in ["2/4", "1/2+2/4*i", "-4/8-2/2*i"]:
        once = qi_str(qi_parse(text))
        assert qi_str(qi_parse(once)) == once


def test_parse_rejects_garbage():
    for bad in ["", "i", "1/2+", "1//2", "inf", "1.5", "a"]:
        with pytest.raises(StructuralError):
            qi_parse(bad)


def test_parse_rejects_zero_denominator():
    for bad in ["1/0", "1/2+3/0*i", "0/0*i"]:
        with pytest.raises(StructuralError):
            qi_parse(bad)


def test_parse_rejects_a_doubled_sign():
    # the sign of the imaginary part is one character; "+-" or "--" once
    # escaped as a ValueError instead of naming the bad value
    for bad in ["1/2+-3/4*i", "1/2--3/4*i", "1+-1*i"]:
        with pytest.raises(StructuralError):
            qi_parse(bad)


# -- oracle: the integer-triple class against a plain (Fraction, Fraction) pair --

def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def _ref_pow(x, k):
    if k < 0:
        return _ref_pow(_ref_div((Fraction(1), Fraction(0)), x), -k)
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _ref_mul(out, x)
    return out


def _frac_str(q):
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _ref_str(x):
    re, im = x
    if im == 0:
        return _frac_str(re)
    return f"{_frac_str(re)}{'+' if im >= 0 else '-'}{_frac_str(abs(im))}*i"


def _samples(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        parts = []
        for _ in range(2):
            roll = rng.random()
            if roll < 0.2:
                parts.append(Fraction(0))
            elif roll < 0.4:
                parts.append(Fraction(rng.randint(-12, 12)))
            else:
                parts.append(Fraction(rng.randint(-40, 40), rng.randint(1, 18)))
        out.append(tuple(parts))
    return out


def _agrees(z, x):
    """z has the value x, as Fractions, and keeps a canonical triple."""
    a, b, d = z._abd
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (z.re, z.im) == x
    assert type(z.re) is Fraction and type(z.im) is Fraction
    return True


def test_arithmetic_matches_a_fraction_pair_oracle():
    values = _samples("qi-oracle", 60)
    for x, y in zip(values, reversed(values)):
        zx, zy = Q(*x), Q(*y)
        assert _agrees(zx, x)
        assert _agrees(zx + zy, (x[0] + y[0], x[1] + y[1]))
        assert _agrees(zx - zy, (x[0] - y[0], x[1] - y[1]))
        assert _agrees(zx * zy, _ref_mul(x, y))
        assert _agrees(-zx, (-x[0], -x[1]))
        assert _agrees(zx.conjugate(), (x[0], -x[1]))
        if y != (0, 0):
            assert _agrees(zx / zy, _ref_div(x, y))
            assert _agrees(zy.inverse(), _ref_div((Fraction(1), Fraction(0)), y))
        for k in range(-4, 5):
            if k < 0 and x == (0, 0):
                with pytest.raises(ZeroDivisionError):
                    zx ** k
            else:
                assert _agrees(zx ** k, _ref_pow(x, k))
        assert zx.is_zero() == (x == (0, 0))
        assert zx.is_one() == (x == (1, 0))


def test_mixed_operands_match_the_oracle():
    values = _samples("qi-mixed", 40)
    scalars = [0, 1, -3, 7, Fraction(2, 3), Fraction(-5, 4)]
    for x in values:
        z = Q(*x)
        for s in scalars:
            t = (Fraction(s), Fraction(0))
            assert _agrees(z + s, (x[0] + s, x[1])) and _agrees(s + z, (x[0] + s, x[1]))
            assert _agrees(z - s, (x[0] - s, x[1])) and _agrees(s - z, (s - x[0], -x[1]))
            assert _agrees(z * s, _ref_mul(x, t)) and _agrees(s * z, _ref_mul(x, t))
            if s != 0:
                assert _agrees(z / s, _ref_div(x, t))
            if x != (0, 0):
                assert _agrees(s / z, _ref_div(t, x))


def test_equality_with_int_and_fraction_and_hash_agree():
    values = _samples("qi-eq", 80)
    for x in values:
        z = Q(*x)
        # the same value reached by another route
        w = (Q(x[0] * 6, x[1] * 6) / 3) / 2
        assert z == w and hash(z) == hash(w)
        assert (z == x[0]) == (x[1] == 0) and (x[0] == z) == (x[1] == 0)
        if x[0].denominator == 1:
            assert (z == int(x[0])) == (x[1] == 0)
            assert (int(x[0]) == z) == (x[1] == 0)
        assert z != 0.5 and z != "1"
    for x, y in zip(values, values[1:]):
        assert (Q(*x) == Q(*y)) == (x == y)
    assert len({Q(*x) for x in values}) == len(set(values))
    assert Q(Fraction(4, 2), 0) == 2 and Q(True) == 1 and Q() == 0


def test_strings_and_repr_keep_their_bytes():
    for x in _samples("qi-str", 200) + [(Fraction(0), Fraction(-1)), (Fraction(-7), Fraction(1))]:
        z = Q(*x)
        assert qi_str(z) == str(z) == _ref_str(x)
        assert repr(z) == f"GaussianRational({x[0]!r}, {x[1]!r})"
        assert qi_parse(_ref_str(x)) == z
        # unreduced input parses to the same value
        re, im = x
        text = f"{re.numerator * 3}/{re.denominator * 3}{'-' if im < 0 else '+'}" \
               f"{abs(im.numerator) * 2}/{im.denominator * 2}*i"
        assert _agrees(qi_parse(text), x)
    assert repr(Q(Fraction(1, 2), -3)) == "GaussianRational(Fraction(1, 2), Fraction(-3, 1))"
    assert complex(Q(Fraction(1, 3), Fraction(-2, 7))) == complex(1 / 3, -2 / 7)


def test_constructor_takes_what_fraction_takes():
    assert Q(Fraction(6, 4), 2)._abd == (3, 4, 2)
    assert Q("3/4", "-1/2") == Q(Fraction(3, 4), Fraction(-1, 2))
    assert Q(0.5) == Q(Fraction(1, 2))
    with pytest.raises(TypeError):
        Q(Q(1))


def test_errors_division_by_zero_and_immutability():
    z = Q(Fraction(2, 3), 1)
    for divide in (lambda: z / 0, lambda: z / Q(0), lambda: 1 / Q(0),
                   lambda: Fraction(1, 2) / Q(0), lambda: Q(0).inverse(), lambda: Q(0) ** -2):
        with pytest.raises(ZeroDivisionError):
            divide()
    for name in ("re", "im", "_abd", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
    assert z == Q(Fraction(2, 3), 1)
    with pytest.raises(TypeError):
        z + 0.5
    with pytest.raises(TypeError):
        z ** Fraction(1, 2)


def test_copy_deepcopy_and_pickle_rebuild_the_value():
    for z in (Q(1, 2), Q(Fraction(-3, 4), Fraction(5, 6)), Q(0)):
        for twin in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
            assert type(twin) is Q and twin == z and twin._abd == z._abd
            with pytest.raises(AttributeError):
                twin._abd = (0, 0, 1)


def test_deepcopy_of_parsed_curve_data():
    from logmoduli import schema

    fixtures = os.path.join(os.path.dirname(os.path.abspath(schema.__file__)), "fixtures")
    with open(os.path.join(fixtures, "good_ex1.json"), encoding="utf-8") as fh:
        data = schema.loads(fh.read())[1]
    assert data.eta and all(type(z) is Q for z in data.eta.values())
    twin = copy.deepcopy(data)
    assert twin == data and twin is not data
