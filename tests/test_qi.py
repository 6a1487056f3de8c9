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
