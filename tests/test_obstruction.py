import random
from fractions import Fraction

import pytest

import logmoduli as lm
from logmoduli import intlinalg as il
from logmoduli.errors import InputError, MissingEtaError
from logmoduli.qi import GaussianRational as Q
from conftest import (
    bad_ex1,
    bad_ex1_branch_character,
    bad_ex1_character,
    good_ex1,
    good_ex2,
    good_ex2_branch_character,
    good_ex2_character,
    mc_dep,
    random_ghost_star,
    two_ghost_clusters,
    two_line_branch_characters,
    two_line_characters,
    two_line_ghost,
)


def _q(num, den=1, imag=0):
    return Q(Fraction(num, den), Fraction(imag))


def test_two_line_ghost_ob_matches_display():
    m1, m2, m3 = _q(3), _q(5), _q(7)
    a2, a3 = _q(2), _q(11)
    g, data = two_line_ghost(m1, m2, m3, a2, a3)
    ob = lm.compute_ob(g, data, two_line_characters())
    assert ob.values == (m1 / (m2 * a2), m2 * a2 / (m3 * a3))


def test_two_line_ghost_factorization_displays():
    m1, m2, m3 = _q(2), _q(3), _q(5)
    a2, a3 = _q(4), _q(9)
    g, data = two_line_ghost(m1, m2, m3, a2, a3)
    collapsed, cdata, config, _, _ = lm.collapse_ghost(g, data, "v0")
    bch = two_line_branch_characters()
    ob_bar = lm.compute_ob_multinode(collapsed, cdata, bch)
    assert ob_bar.values == (m1 / m2, m2 / m3)
    o = lm.compute_o_v0(config)
    assert o.ftofo_values(bch) == (a2 ** -1, a2 / a3)
    assert o.lemma_values(bch) == (a2, a3 / a2)


def test_good_ex2_ob_is_minus_slope_ratio():
    rng = random.Random(9)
    for _ in range(5):
        slopes = {}
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if i != j:
                    slopes[(i, j)] = _q(rng.randint(1, 9), rng.randint(1, 5))
        g, data = good_ex2(slopes)
        ob = lm.compute_ob(g, data, good_ex2_character())
        expected = -(slopes[(1, 2)] * slopes[(2, 3)] * slopes[(3, 1)]) / (
            slopes[(1, 3)] * slopes[(3, 2)] * slopes[(2, 1)]
        )
        assert ob.values == (expected,)


def test_good_ex2_o_v0_constant_minus_one():
    rng = random.Random(10)
    slopes = {(i, j): _q(1) for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    seen = set()
    count = 0
    while count < 10:
        vals = (rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20))
        if len(set(vals)) < 3 or vals in seen:
            continue
        seen.add(vals)
        g, data = good_ex2(slopes, nodes=vals)
        _, _, config, _, _ = lm.collapse_ghost(g, data, "v0")
        o = lm.compute_o_v0(config)
        bch = good_ex2_branch_character()
        assert o.ftofo_values(bch) == (Q(-1),)
        assert o.lemma_values(bch) == (Q(-1),)
        count += 1


def test_good_ex2_ob_bar_is_plain_slope_ratio():
    slopes = {(i, j): _q(i + j, 1 + (i * j) % 3) for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    g, data = good_ex2(slopes)
    collapsed, cdata, _, _, _ = lm.collapse_ghost(g, data, "v0")
    # collapse normalizes edges out of the ghost, flipping eps on every branch
    ob_bar = lm.compute_ob_multinode(collapsed, cdata, good_ex2_branch_character())
    expected = (slopes[(1, 2)] * slopes[(2, 3)] * slopes[(3, 1)]) / (
        slopes[(1, 3)] * slopes[(3, 2)] * slopes[(2, 1)]
    )
    assert ob_bar.values == (expected ** -1,)


def test_bad_ex1_full_tuple():
    m2, m3 = _q(3), _q(7)
    alpha = _q(5)
    g, data = bad_ex1(m2, m3, alpha)
    ob = lm.compute_ob(g, data, bad_ex1_character())
    assert ob.values == ((m2 / m3) * (alpha - Q(1)) / alpha,)
    collapsed, cdata, config, _, _ = lm.collapse_ghost(g, data, "v0")
    bch = bad_ex1_branch_character()
    ob_bar = lm.compute_ob_multinode(collapsed, cdata, bch)
    assert ob_bar.values == (m2 / m3,)
    o = lm.compute_o_v0(config)
    assert o.lemma_values(bch) == (alpha / (alpha - Q(1)),)


def test_bad_ex1_unique_alpha_solving_ob_trivial():
    rng = random.Random(12)
    for _ in range(8):
        m2 = _q(rng.randint(1, 9), rng.randint(1, 4))
        m3 = _q(rng.randint(1, 9), rng.randint(1, 4))
        if m2 == m3:
            continue
        alpha_star = m2 / (m2 - m3)
        if alpha_star in (Q(0), Q(1)):
            continue
        g, data = bad_ex1(m2, m3, alpha_star)
        ob = lm.compute_ob(g, data, bad_ex1_character())
        assert ob.is_trivial
        for other in (_q(2), _q(3), _q(7)):
            if other in (alpha_star, Q(0), Q(1)):
                continue
            g2, d2 = bad_ex1(m2, m3, other)
            assert not lm.compute_ob(g2, d2, bad_ex1_character()).is_trivial


def test_good_ex1_alpha_independent():
    m1, m2, m3 = _q(2), _q(3), _q(11)
    expected = (m1 / m2, m2 / m3)
    for alpha in (_q(5), _q(-3), _q(7, 2), Q(2, 1)):
        g, data = good_ex1(m1, m2, m3, alpha)
        ob = lm.compute_ob(g, data, two_line_characters())
        assert ob.values == expected


def test_good_ex1_degenerate_slopes_constant_trivial():
    m = _q(4, 3)
    for alpha in (_q(5), _q(9), _q(-2)):
        g, data = good_ex1(m, m, m, alpha)
        ob = lm.compute_ob(g, data, two_line_characters())
        assert ob.is_trivial


def test_mc_dep_matches_cross_ratio_formula():
    rng = random.Random(13)
    count = 0
    while count < 10:
        vals = [rng.randint(-12, 12) for _ in range(5)]
        if len(set(vals)) < 5:
            continue
        z1, z2, q1, q2, q3 = (_q(v) for v in vals)
        m1, m2, m3 = (_q(rng.randint(1, 9)), _q(rng.randint(1, 9)), _q(rng.randint(1, 9)))
        g, data = mc_dep(m1, m2, m3, z1, z2, q1, q2, q3)
        ob = lm.compute_ob(g, data, two_line_characters())

        def cross_ratio(p, q):
            return ((p - z1) * (q - z2)) / ((p - z2) * (q - z1))

        expected = (
            (m1 / m2) * cross_ratio(q1, q2) ** 5,
            (m2 / m3) * cross_ratio(q2, q3) ** 5,
        )
        assert ob.values == expected
        count += 1


# -- invariance properties ----------------------------------------------------


def test_section_rescaling_leaves_values():
    m1, m2, m3 = _q(3), _q(5), _q(7)
    g, data = two_line_ghost(m1, m2, m3, _q(2), _q(11))
    base = lm.compute_ob(g, data, two_line_characters()).values
    # synthesize, then rescale the ghost sections by arbitrary constants
    from logmoduli.obstruction import _synthesize_sections

    _synthesize_sections(g, data, g.vertex("v0"))
    data.sections["v0"][1] = data.sections["v0"][1].rescaled(_q(9, 4))
    data.sections["v0"][2] = data.sections["v0"][2].rescaled(Q(0, 1) + _q(3))
    assert lm.compute_ob(g, data, two_line_characters()).values == base


def test_exp_image_multiplication_leaves_values(rng):
    g, data = two_line_ghost(_q(3), _q(5), _q(7), _q(2), _q(11))
    chars = two_line_characters()
    ob = lm.compute_ob(g, data, chars)
    rho = lm.build_rho(g)
    for _ in range(10):
        base = [Q(rng.randint(1, 7), rng.randint(0, 2)) for _ in range(rho.n_cols)]
        raw2 = dict(ob.raw)
        for r, key in enumerate(rho.codomain_index):
            factor = Q(1)
            for c in range(rho.n_cols):
                factor = factor * base[c] ** rho.matrix[r][c]
            raw2[key] = raw2[key] * factor
        assert chars.evaluate(raw2) == ob.values


def test_edge_reorientation_transports_values():
    g, data = two_line_ghost(_q(3), _q(5), _q(7), _q(2), _q(11))
    chars = two_line_characters()
    base = lm.compute_ob(g, data, chars).values
    g2, data2 = lm.flip_edge(g, data, "e2")
    rows = [[-c if key[0] == "e2" else c for c, key in zip(row, chars.index)]
            for row in chars.rows]
    flipped_chars = lm.Characters(rows, chars.index)
    assert lm.compute_ob(g2, data2, flipped_chars).values == base


def test_triviality_is_basis_independent():
    m = _q(4, 3)
    g, data = good_ex1(m, m, m, _q(5))
    canonical = lm.compute_ob(g, data)
    assert canonical.is_trivial
    # second basis: unimodular recombination of the canonical rows
    rows = list(canonical.characters.rows)
    mixed = [list(rows[0]), [a + 2 * b for a, b in zip(rows[0], rows[1])]]
    other = lm.Characters(mixed, canonical.characters.index)
    assert all(v.is_one() for v in canonical.value_under(other))


def test_missing_and_zero_eta_errors():
    g, data = two_line_ghost(_q(3), _q(5), _q(7), _q(2), _q(11))
    del data.eta[("e2", 1, 2)]
    with pytest.raises(MissingEtaError):
        lm.compute_ob(g, data, two_line_characters())
    g, data = two_line_ghost(_q(3), _q(5), _q(7), _q(2), _q(11))
    data.eta[("e2", 1, 2)] = Q(0)
    with pytest.raises(InputError):
        lm.compute_ob(g, data, two_line_characters())


def test_degenerate_coincident_points_reported():
    g, data = two_line_ghost(_q(3), _q(5), _q(7), _q(4), _q(4))
    with pytest.raises(InputError):
        lm.relation_check(g, data, "v0")


# -- collapse relation --------------------------------------------------------


def test_relation_on_fixture_examples():
    g, data = two_line_ghost(_q(3), _q(5), _q(7), _q(2), _q(11))
    assert lm.relation_check(g, data, "v0").holds
    g, data = bad_ex1(_q(3), _q(7), _q(5))
    assert lm.relation_check(g, data, "v0").holds
    slopes = {(i, j): _q(i + 2 * j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    g, data = good_ex2(slopes)
    assert lm.relation_check(g, data, "v0").holds


def test_limit_compatibility_alpha_independent_factor():
    # along the one-parameter family the surviving-side factor is constant
    # and the configuration factor carries the whole dependence, exactly
    m1, m2, m3 = _q(3), _q(5), _q(7)
    bch = two_line_branch_characters()
    bar_values = set()
    for a2, a3 in [(_q(2), _q(11)), (_q(1, 3), _q(4)), (_q(-5), _q(9, 2))]:
        g, data = two_line_ghost(m1, m2, m3, a2, a3)
        collapsed, cdata, config, _, _ = lm.collapse_ghost(g, data, "v0")
        ob_bar = lm.compute_ob_multinode(collapsed, cdata, bch)
        bar_values.add(ob_bar.values)
        o = lm.compute_o_v0(config)
        full = lm.compute_ob(g, data, two_line_characters())
        assert full.values == tuple(
            b * f for b, f in zip(ob_bar.values, o.ftofo_values(bch))
        )
    assert bar_values == {(m1 / m2, m2 / m3)}


def test_relation_on_random_ghost_stars(rng):
    for _ in range(50):
        g, data = random_ghost_star(rng)
        report = lm.relation_check(g, data, "g0")
        assert report.holds


def test_ordinary_node_as_binary_multinode_consistency():
    # a 2-branch multi-node class evaluates to the same ratio as the edge
    g, data = two_line_ghost(_q(3), _q(5), _q(7), _q(2), _q(11))
    ob = lm.compute_ob(g, data, two_line_characters())
    verts = [v for v in g.vertices]
    # re-encode edge e1 as a 2-branch multi-node with matching orientations
    e1 = g.edge("e1")
    mn = lm.Edge("e1", e1.ends, e1.stratum,
                 contacts=(e1.end_contact(0), e1.end_contact(1)),
                 into=(False, True))
    g2 = g.with_edges([mn if e.id == "e1" else e for e in g.edges])
    idx = [("e1", 0, 1), ("e1", 0, 2), ("e1", 1, 1), ("e1", 1, 2),
           ("e2", 1), ("e2", 2), ("e3", 1), ("e3", 2)]
    rows = []
    for row in two_line_characters().rows:
        # duplicate the e1 block across its two branch coordinates
        rows.append([row[0], row[1], -row[0], -row[1], row[2], row[3], row[4], row[5]])
    ob2 = lm.compute_ob_multinode(g2, data, lm.Characters(rows, idx))
    assert ob2.values == ob.values


# -- collapse homomorphism ----------------------------------------------------


def _expanded_two_ghost_chain():
    """Two-line configuration with the ghost expanded into two ghosts."""
    verts = [
        lm.Vertex("g1", 0, {1, 2}, 0, (0, 0), "ghost"),
        lm.Vertex("g2", 0, {1, 2}, 0, (0, 0), "ghost"),
        lm.Vertex("v1", 0, (), 2, (1, 1), "bubble"),
        lm.Vertex("v2", 0, (), 2, (1, 1), "bubble"),
        lm.Vertex("v3", 0, (), 2, (1, 1), "bubble"),
    ]
    edges = [
        lm.Edge("t", ("g1", "g2"), {1, 2}, contact=(1, 2)),
        lm.Edge("e1", ("g1", "v1"), {1, 2}, contact=(-1, -1)),
        lm.Edge("e2", ("g2", "v2"), {1, 2}, contact=(-1, -1)),
        lm.Edge("e3", ("g2", "v3"), {1, 2}, contact=(-1, -1)),
    ]
    legs = [lm.Leg("z1", "g1", (0, -1)), lm.Leg("z2", "g2", (3, 4))]
    return lm.DecoratedDualGraph(2, 2, verts, edges, legs)


def test_collapse_homomorphism_surjective_with_rank_drop():
    g = _expanded_two_ghost_chain()
    assert lm.validate_graph(g).valid
    result = lm.collapse_homomorphism(g, ["g1", "g2"])
    assert result.surjective
    # exactness: kernel rise plus cokernel drop equals the kernel rank of the
    # ghost tree's diagonal-quotient map (one tree edge here, so 1)
    rho_exp = lm.build_rho(g)
    rho_col = lm.build_rho(result.collapsed)
    kernel_rise = rho_exp.kernel_rank - rho_col.kernel_rank
    coker_drop = rho_col.cokernel_rank - rho_exp.cokernel_rank
    assert kernel_rise >= 0 and coker_drop >= 0
    assert kernel_rise + coker_drop == 1
    assert result.rank_drop == coker_drop


def test_collapse_homomorphism_zero_contact_tree_edge_raises_kernel():
    g = _expanded_two_ghost_chain()
    edges = [e if e.id != "t" else lm.Edge("t", e.ends, e.stratum, contact=(0, 0))
             for e in g.edges]
    legs = [lm.Leg("z1", "g1", (1, 1)), lm.Leg("z2", "g2", (2, 2))]
    g2 = lm.DecoratedDualGraph(2, 2, g.vertices, edges, legs)
    assert lm.validate_graph(g2).valid
    result = lm.collapse_homomorphism(g2, ["g1", "g2"])
    assert result.surjective
    rho_exp = lm.build_rho(g2)
    rho_col = lm.build_rho(result.collapsed)
    kernel_rise = rho_exp.kernel_rank - rho_col.kernel_rank
    coker_drop = rho_col.cokernel_rank - rho_exp.cokernel_rank
    assert kernel_rise + coker_drop == 1


def test_collapse_homomorphism_trivial_tree_identity():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    result = lm.collapse_homomorphism(g, ["v0"])
    rho = lm.build_rho(g)
    assert result.rank_drop == 0
    assert il.lattices_equal(
        [list(r) for r in result.character_map],
        [list(r) for r in rho.character_basis().rows],
    )


def test_collapse_homomorphism_rejects_non_ghosts():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    with pytest.raises(InputError):
        lm.collapse_homomorphism(g, ["v1"])
    g2 = _expanded_two_ghost_chain()
    with pytest.raises(InputError):
        lm.collapse_homomorphism(g2, ["g1", "v1"])


def test_one_ob_entry_point_behind_both_names():
    assert lm.compute_ob_multinode is lm.compute_ob


def test_compute_ob_leaves_the_callers_sections_alone():
    # two_line_ghost carries no sections: compute_ob synthesizes the ghost's
    g, data = two_line_ghost(_q(3), _q(5), _q(7), _q(2), _q(11))
    assert data.sections == {}
    first = lm.compute_ob(g, data)
    assert data.sections == {}
    assert lm.compute_ob(g, data).values == first.values
    # explicit sections stay exactly the objects the caller put there
    g, data = good_ex2({(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3) if i != j})
    before = {vid: dict(secs) for vid, secs in data.sections.items()}
    lm.compute_ob(g, data, good_ex2_character())
    assert data.sections.keys() == before.keys()
    for vid, secs in before.items():
        assert data.sections[vid].keys() == secs.keys()
        assert all(data.sections[vid][i] is sec for i, sec in secs.items())


def test_collapse_homomorphism_rejects_multinode_graph():
    g, data = two_line_ghost(1, 2, 3, 4, 5)
    collapsed, _, _, _, _ = lm.collapse_ghost(g, data, "v0")
    ghost = lm.Vertex("g", 0, {1, 2}, 0, (0, 0), "ghost")
    g2 = lm.DecoratedDualGraph(2, 2, collapsed.vertices + (ghost,), collapsed.edges, [])
    with pytest.raises(InputError, match="multi-node edge not allowed"):
        lm.collapse_homomorphism(g2, ["g"])


def test_collapse_homomorphism_rejects_a_disconnected_ghost_set():
    with pytest.raises(InputError, match="ghost tree is not connected"):
        lm.collapse_homomorphism(two_ghost_clusters(), ["g1", "g3"])
