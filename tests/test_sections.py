import random
from fractions import Fraction

import pytest

from logmoduli.errors import InputError, StructuralError
from logmoduli.qi import GaussianRational as Q
from logmoduli.sections import (
    P1Point, RationalSection, build_section, leading_coefficient, order_vector,
)

INF = P1Point.infinity()


def pt(x):
    return P1Point.finite(x)


def test_build_section_with_infinity_slack():
    beta = Q(Fraction(3, 2))
    alpha = Q(7)
    sec = build_section(0, [(pt(0), -1), (pt(1), -1), (pt(alpha), -1), (INF, 3)], beta)
    assert sec.order_at(INF) == 3
    assert sec.order_at(pt(0)) == -1
    assert sec.order_at(pt(5)) == 0


def test_build_section_degree_mismatch_errors():
    with pytest.raises(InputError):
        build_section(0, [(pt(0), 1), (pt(1), 1)])
    with pytest.raises(InputError):
        build_section(2, [(pt(0), 1)])


def test_build_section_zero_two_pole_one():
    beta = Q(5)
    sec = build_section(0, [(pt(0), 2), (pt(1), -1), (INF, -1)], beta)
    assert sec.order_at(INF) == -1
    # zeta(z) = beta z^2/(z-1): value at z=2 is beta*4
    assert sec.evaluate(Q(2)) == beta * Q(4)


def test_repeated_divisor_point_rejected():
    with pytest.raises(InputError):
        build_section(0, [(pt(1), 1), (pt(1), -1)])
    # infinity and points of order 0 repeat too, whichever way the section is made
    for degree, divisor in ((2, [(INF, 1), (INF, 1)]), (0, [(pt(3), 0), (pt(3), 0)])):
        for make in (build_section, lambda d, div: RationalSection(d, Q(1), div)):
            with pytest.raises(InputError, match="pairwise distinct"):
                make(degree, divisor)


def test_section_degree_and_orders_must_be_integers():
    with pytest.raises(StructuralError, match="section divisor order entry 1.9 at position 0"):
        build_section(1, [(pt(0), 1.9)])
    with pytest.raises(StructuralError, match="section entry 1.0 at degree"):
        RationalSection(1.0, Q(1), [(pt(0), 1)])
    with pytest.raises(InputError, match="order at infinity 0 inconsistent"):
        RationalSection(1, Q(1), [(pt(0), 0), (INF, 0)])


def test_a_section_of_scale_zero_is_refused():
    for scale in (0, Q(0)):
        with pytest.raises(InputError, match="^section scale must be nonzero$"):
            RationalSection(1, scale, [(pt(0), 1)])


def test_leading_coefficient_simple_pole():
    # zeta = beta/(z(z-1)(z-alpha)) at 0: order -1, eta = beta/alpha
    rng = random.Random(11)
    for _ in range(3):
        alpha = Q(Fraction(rng.randint(2, 30), rng.randint(1, 7)))
        beta = Q(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        sec = build_section(0, [(pt(0), -1), (pt(1), -1), (pt(alpha), -1), (INF, 3)], beta)
        order, eta = leading_coefficient(sec, pt(0))
        assert order == -1
        assert eta == beta / alpha
        # float cross-check of the limit z * zeta(z) as z -> 0
        z = 1e-9
        a = complex(alpha)
        b = complex(beta)
        approx = b / ((z - 1) * (z - a))
        assert abs(approx - complex(eta)) < 1e-5


def test_leading_coefficient_at_infinity_is_scale():
    beta = Q(Fraction(7, 3))
    sec = build_section(0, [(pt(0), -1), (pt(1), -1), (pt(4), -1), (INF, 3)], beta)
    order, eta = leading_coefficient(sec, INF)
    assert (order, eta) == (3, beta)


def test_identity_section():
    sec = build_section(0, [(pt(0), 1), (INF, -1)], Q(1))
    assert leading_coefficient(sec, pt(0)) == (1, Q(1))


def test_rescaling_scales_eta_only():
    sec = build_section(0, [(pt(0), 2), (pt(1), -1), (INF, -1)], Q(3))
    c = Q(Fraction(5, 7), Fraction(1, 2))
    sec2 = sec.rescaled(c)
    for p in (pt(0), pt(1), INF):
        o1, e1 = leading_coefficient(sec, p)
        o2, e2 = leading_coefficient(sec2, p)
        assert o1 == o2
        assert e2 == c * e1


def test_divisor_sums_to_degree(rng):
    for _ in range(20):
        degree = rng.randint(-3, 4)
        pts = rng.sample(range(-6, 7), rng.randint(0, 4))
        orders = [rng.choice([-2, -1, 1, 2]) for _ in pts]
        divisor = [(pt(x), o) for x, o in zip(pts, orders)]
        divisor.append((INF, degree - sum(orders)))
        sec = build_section(degree, divisor)
        assert sum(sec.divisor().values()) == degree


def test_order_vector_reads_sections_and_tangencies():
    secs = {
        1: build_section(0, [(pt(0), -1), (pt(1), 1)]),
        2: build_section(0, [(pt(0), 2), (pt(1), -1), (INF, -1)]),
    }
    vec = order_vector(3, {1, 2}, secs, pt(0), tangency={3: 4})
    assert vec == (-1, 2, 4)
    assert order_vector(3, {1, 2}, secs, pt(9)) == (0, 0, 0)
    with pytest.raises(InputError):
        order_vector(3, {1, 2}, secs, pt(0), tangency={3: -1})
    with pytest.raises(StructuralError, match="tangency entry 1.9 at coordinate 3"):
        order_vector(3, {1, 2}, secs, pt(0), tangency={3: 1.9})
    # a stratum coordinate is read off its section, so it needs one
    with pytest.raises(StructuralError, match="^missing section for coordinate 2$"):
        order_vector(3, {1, 2}, {1: secs[1]}, pt(0))


def test_order_vector_three_hyperplane_ghost():
    # the deepest-point ghost of the hyperplane star at its first node
    secs = {
        1: build_section(0, [(pt(0), 2), (pt(1), -1), (INF, -1)]),
        2: build_section(0, [(pt(1), 2), (pt(0), -1), (INF, -1)]),
        3: build_section(0, [(pt(0), -1), (pt(1), -1), (INF, 2)]),
    }
    assert order_vector(3, {1, 2, 3}, secs, pt(0)) == (2, -1, -1)
    assert order_vector(3, {1, 2, 3}, secs, pt(1)) == (-1, 2, -1)
    assert order_vector(3, {1, 2, 3}, secs, INF) == (-1, -1, 2)


def _mobius_apply(a, b, c, d, z):
    return (a * z + b) / (c * z + d)


def test_chart_independence_under_mobius(rng):
    # For degree-0 sections with balanced finite divisor, transporting the
    # divisor by a Mobius map multiplies each eta by the derivative to the
    # order, up to one global scale (the C* ambiguity of sections).
    tested = 0
    while tested < 10:
        a, b, c, d = (Q(rng.randint(1, 5)), Q(rng.randint(-4, 4)),
                      Q(rng.randint(0, 2)), Q(rng.randint(1, 5)))
        det = a * d - b * c
        if det.is_zero():
            continue
        roots = []
        while len(roots) < 3:
            z = Q(rng.randint(-8, 8), rng.randint(0, 3))
            if z not in roots and not (c * z + d).is_zero():
                roots.append(z)
        orders = [1, -2, 1]  # balanced: no slack at infinity on either side
        images = [_mobius_apply(a, b, c, d, z) for z in roots]
        if len({str(w) for w in images}) < 3:
            continue
        if not c.is_zero() and any(w == a / c for w in images):
            continue  # the pullback would move a root to infinity
        src = build_section(0, [(pt(z), o) for z, o in zip(roots, orders)],
                            Q(rng.randint(1, 7)))
        tgt = build_section(0, [(pt(w), o) for w, o in zip(images, orders)], Q(1))

        def deriv(z):
            return det / ((c * z + d) ** 2)

        scale = None
        for zk, wk, ok in zip(roots, images, orders):
            _, eta_t = leading_coefficient(tgt, pt(wk))
            predicted = eta_t * deriv(zk) ** ok
            src_ord, eta_s = leading_coefficient(src, pt(zk))
            assert src_ord == ok
            ratio = eta_s / predicted
            if scale is None:
                scale = ratio
            else:
                assert ratio == scale  # one global constant across all points
        tested += 1
