import re

import pytest

import logmoduli as lm
from logmoduli.errors import InputError, StructuralError


def test_hyperplane_arrangement_ranges():
    for n in range(1, 7):
        for d in range(1, 21):
            cls = lm.classify_pair(lm.hyperplane_profile(n, d))
            assert cls.nef
            assert cls.semi_positive == (not (n + 2 <= d <= 2 * n + 1)), (n, d)
            assert cls.positive == (not (n + 1 <= d <= 2 * n + 1)), (n, d)
            # the arrangement's strong check coincides with the plain one
            assert cls.strongly_semi_positive == cls.semi_positive, (n, d)


def test_low_dimension_always_semipositive_without_divisor():
    # any profile over an empty divisor in complex dimension <= 3
    for n in (1, 2, 3):
        fams = [
            lm.CurveFamily("a", (), c1, (), multiplicity="all")
            for c1 in (-3, -1, 0, 2)
        ]
        cls = lm.classify_pair(lm.GeometryProfile(n, 0, fams))
        assert cls.semi_positive


def test_n0_reduction_is_classical():
    # c1 = -1 class in complex dimension 4: hypothesis c1 >= 3-n = -1 holds
    fams = [lm.CurveFamily("a", (), -1, (), multiplicity="all")]
    cls = lm.classify_pair(lm.GeometryProfile(4, 0, fams))
    assert not cls.semi_positive
    assert cls.witnesses[0].condition == "semi-positive"


def test_mc_issue_profile_flags_line_class():
    # deepest-stratum line class: c1_log = 1, no residual divisors, delta 0
    fams = [
        lm.CurveFamily("line-in-surface", {1, 2}, 5, (3, 1),
                       multiplicity="all", delta=0),
        lm.CurveFamily("ambient-line", (), 5, (3, 1), multiplicity="all",
                       delta=("linear", 2)),
    ]
    profile = lm.GeometryProfile(4, 2, fams)
    cls = lm.classify_pair(profile)
    assert cls.semi_positive
    assert not cls.strongly_semi_positive
    assert any(
        w.family == "line-in-surface" and w.condition == "strongly-semi-positive"
        for w in cls.witnesses
    )


def test_monotonicity_of_verdicts():
    profiles = [
        lm.hyperplane_profile(2, 3),
        lm.hyperplane_profile(3, 9),
        lm.GeometryProfile(4, 2, [
            lm.CurveFamily("a", {1, 2}, 5, (3, 1), multiplicity="all", delta=0)
        ]),
        lm.GeometryProfile(3, 1, [
            lm.CurveFamily("b", (), 1, (4,), multiplicity="all", delta=0)
        ]),
    ]
    for profile in profiles:
        cls = lm.classify_pair(profile)
        if cls.strongly_positive:
            assert cls.strongly_semi_positive and cls.positive
        if cls.strongly_semi_positive:
            assert cls.semi_positive
        if cls.positive:
            assert cls.semi_positive


def test_symbolic_agrees_with_enumeration():
    for n in (2, 4):
        for d in (1, n + 1, n + 2, 2 * n + 1, 2 * n + 2, 15):
            if d < 1:
                continue
            symbolic = lm.hyperplane_profile(n, d)
            fams = []
            for f in symbolic.families:
                fams.append(
                    lm.CurveFamily(f.label, f.stratum, f.c1_tx, f.dot,
                                   multiplicity=tuple(range(1, 2 * n + 6)),
                                   delta=f.delta)
                )
            enum = lm.GeometryProfile(n, d, fams)
            a = lm.classify_pair(symbolic)
            b = lm.classify_pair(enum)
            assert (a.semi_positive, a.positive, a.strongly_semi_positive) == (
                b.semi_positive, b.positive, b.strongly_semi_positive)


def test_witnesses_reverify():
    profile = lm.hyperplane_profile(2, 4)
    cls = lm.classify_pair(profile)
    assert not cls.semi_positive
    for w in cls.witnesses:
        fam = next(f for f in profile.families if f.label == w.family)
        m = w.multiplicity
        c1 = m * fam.c1_log_unit
        w_out = sum(fam.dot[j - 1] for j in range(1, profile.N + 1)
                    if j not in fam.stratum)
        ell = min(m * w_out, 2)
        threshold = 3 - profile.n + len(fam.stratum) - ell - 1
        if w.condition == "semi-positive":
            assert c1 >= threshold and c1 < 0
        if w.condition == "positive":
            assert c1 >= threshold and c1 <= 0


def test_non_nef_profile_reported():
    fams = [lm.CurveFamily("bad", (), 3, (-1, 2), multiplicity=(1, 2))]
    cls = lm.classify_pair(lm.GeometryProfile(3, 2, fams))
    assert not cls.nef
    assert not cls.strongly_semi_positive


def test_unsupported_symbolic_delta_rejected():
    fam = lm.CurveFamily("odd", (), 3, (1,), multiplicity="all",
                         delta=("quadratic", 2))
    with pytest.raises(InputError):
        lm.classify_pair(lm.GeometryProfile(3, 1, [fam]))


def test_empty_zero_exemption_flag():
    # a class triggering the hypothesis with c1_log in {0,1} and delta = 0:
    # exempted by default, flagged when the exemption is disabled
    fams = [lm.CurveFamily("edge", (), 3, (2,), multiplicity=(1,), delta=0)]
    profile = lm.GeometryProfile(3, 1, fams)
    default = lm.classify_pair(profile)
    strict = lm.classify_pair(profile, exempt_empty_zero=False)
    assert default.strongly_semi_positive
    assert not strict.strongly_semi_positive
    assert default.strongly_semi_positive_strict_flag is False


def test_list_multiplicity_is_the_finite_tuple():
    def classify(dot, multiplicity):
        fam = lm.CurveFamily("f", (), 4, dot, multiplicity=multiplicity)
        return lm.classify_pair(lm.GeometryProfile(3, 2, [fam]))

    assert lm.CurveFamily("f", (), 4, [1, 1], multiplicity=[1, 2]).multiplicity == (1, 2)
    assert classify([1, 1], [1, 2]) == classify([1, 1], (1, 2))
    # a non-nef family, so the classification carries a witness
    assert classify([-1, 2], [1, 2]) == classify([-1, 2], (1, 2))
    assert classify([-1, 2], [1, 2]).witnesses


def test_curve_family_refuses_non_integer_pairings():
    with pytest.raises(StructuralError, match=re.escape(
            "family 'f' dot entry 1.5 at position 0 is not an integer")):
        lm.CurveFamily("f", (), 4, [1.5, 1])
    with pytest.raises(StructuralError, match=re.escape(
            "family 'f' entry 4.5 at c1_tx is not an integer")):
        lm.CurveFamily("f", (), 4.5, [1, 1])
    with pytest.raises(StructuralError, match=re.escape(
            "family 'f' entry 1.9 at linear delta weight is not an integer")):
        lm.CurveFamily("f", (), 4, [1, 1], delta=("linear", 1.9))


def test_curve_family_refuses_a_non_integer_multiplicity():
    with pytest.raises(StructuralError, match=re.escape(
            "family 'f' multiplicity entry 1.5 at position 0 is not an integer")):
        lm.CurveFamily("f", (), 4, [1, -1], multiplicity=(1.5,))


@pytest.mark.parametrize("delta", [2.5, True, "linear", ("linear",), ("linear", 1, 2)])
def test_curve_family_refuses_a_delta_of_another_form(delta):
    with pytest.raises(StructuralError, match=re.escape(
            f"family 'f': delta must be None, an integer or a (tag, weight) pair, got {delta!r}")):
        lm.CurveFamily("f", (), 4, [1, -1], delta=delta)


def test_curve_family_delta_with_another_tag_is_undecided():
    fam = lm.CurveFamily("f", (), 4, [1, -1], delta=["quadratic", 2])
    assert fam.delta == ("quadratic", 2)
    with pytest.raises(InputError, match="unsupported delta form"):
        fam.delta_at(1)


def test_geometry_profile_refuses_non_integer_n_and_N():
    with pytest.raises(StructuralError, match=re.escape(
            "profile entry 2.5 at n is not an integer")):
        lm.GeometryProfile(2.5, 2, [])
    with pytest.raises(StructuralError, match=re.escape(
            "profile entry 2.0 at N is not an integer")):
        lm.GeometryProfile(2, 2.0, [])
