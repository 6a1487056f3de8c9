import pytest

import logmoduli as lm
from logmoduli.errors import InputError

from conftest import (
    mc_issue,
    mc_issue_reduced,
    random_balanced_graph,
    two_line_ghost,
)


def test_log_calabi_yau_dimension_is_mark_count():
    # boundary divisor of projective 3-space: c1_log = 0, n = 3
    for g in (0, 1, 4):
        for k in (2, 5):
            assert lm.expected_dim_log(0, 3, g, k) == k


def test_classical_reduction():
    # N = 0: the formula is the classical one with the plain Chern number
    assert lm.expected_dim_log(6, 3, 0, 2) == 8
    assert lm.expected_dim_log(6, 3, 0, 2, real=True) == 16


def test_mc_issue_main_stratum_dimension():
    for a in range(1, 9):
        for d in range(1, 9):
            assert lm.expected_dim_log(d + a, 4, 0, 1) == d + a + 2


def test_expected_dim_log_validates():
    with pytest.raises(InputError):
        lm.expected_dim_log(0, 0, 0, 0)


def test_stratum_dim_trivial_graph_is_d_log():
    g = lm.DecoratedDualGraph(
        0, 3, [lm.Vertex("v", 2, (), 5, ())], [],
        [lm.Leg("z1", "v", ()), lm.Leg("z2", "v", ())],
    )
    assert lm.stratum_dim(g) == lm.expected_dim_log(5, 3, 2, 2)


def test_two_line_ghost_stratum_dim_is_d_log_minus_one():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    c1 = sum(v.c1_log for v in g.vertices)
    assert lm.stratum_dim(g) == lm.expected_dim_log(c1, g.n, 0, 2) - 1


def test_stratum_dim_refuses_a_multinode_graph():
    g, data = two_line_ghost(1, 2, 3, 4, 5)
    collapsed = lm.collapse_ghost(g, data, "v0")[0]
    with pytest.raises(InputError, match="^stratum_dim expects a graph without multi-nodes$"):
        lm.stratum_dim(collapsed)


def test_stratum_dim_two_routes_agree_randomized(rng):
    count = 0
    while count < 200:
        g = random_balanced_graph(rng, cyclic=True)
        lm.stratum_dim(g)  # raises on internal disagreement
        count += 1


def test_plog_dim_mc_issue_reduced():
    for a in (1, 2, 5, 8):
        g = mc_issue_reduced(a)
        assert lm.plog_dim(g) == 2 * a + 1


def test_gamma_stratum_dim_mc_issue():
    for a in range(1, 9):
        for d in range(1, 9):
            full = mc_issue(a, d)
            reduced = mc_issue_reduced(a)
            fiber = lm.cover_fiber_dim(d, a + 1)
            assert fiber == 2 * d - 2
            assert lm.gamma_stratum_dim(reduced, [fiber], full) == 2 * d + a


def test_mc_fiber_dims_quartic_example():
    # base: line class with c1_log = -1 in the plane with a quartic
    for d in range(1, 11):
        dims = lm.mc_fiber_dims(d, 2, 3, -1, 2)
        assert dims.d_fiber == 1
        assert dims.d_up == 2 - d
        assert dims.d_down == 0


def test_mc_fiber_identity_cover():
    dims = lm.mc_fiber_dims(1, 2, 2, 3, 4)
    assert dims.d_fiber == 0
    assert dims.d_down == dims.d_up


def test_mc_fiber_validates():
    with pytest.raises(InputError):
        lm.mc_fiber_dims(0, 1, 1, 0, 3)
    with pytest.raises(InputError):
        lm.mc_fiber_dims(2, 2, 1, 0, 3)  # k < l


def test_mclemma_window_scan():
    # semi-positive window: with l <= 2 contact points and nonnegative base
    # Chern pairing, the cover dimension never drops below the base dimension
    for d in range(1, 11):
        for l in (0, 1, 2):
            for k in range(l, min(d * l, 6) + 1) if l else [0]:
                for c1 in range(0, 6):
                    dims = lm.mc_fiber_dims(d, l, k, c1, 4)
                    if dims.d_down >= 0 and not dims.semipositive_window_violated:
                        assert dims.d_up >= dims.d_down


def test_q_quantity_ghost_collapse_deltas():
    assert lm.ghost_collapse_delta(2, 3) == 2  # five special points
    assert lm.ghost_collapse_delta(0, 3) == 0  # three special points
    assert lm.cover_replace_delta(2, 1, 3, 3) == 1


def test_q_upper_bound_adds_genus_term():
    g, _ = two_line_ghost(1, 2, 3, 4, 5)
    assert lm.q_upper_bound(g) == lm.q_quantity(g) + (g.n - 3) * (1 - g.total_genus())


def test_q_matches_closed_form_on_regular_graphs(rng):
    # no multi-nodes: Q = c1 + k + dimG - dimK
    for _ in range(50):
        g = random_balanced_graph(rng, cyclic=True)
        rho = lm.build_rho(g)
        c1 = sum(v.c1_log for v in g.vertices)
        assert lm.q_quantity(g) == c1 + g.k() + rho.cokernel_rank - rho.kernel_rank


def test_mc_issue_q_and_upper_bound():
    for a, d in [(2, 3), (4, 2)]:
        g = mc_issue(a, d)
        rho = lm.build_rho(g)
        assert rho.cokernel_rank == a - 1
        c1 = sum(v.c1_log for v in g.vertices)  # d + a
        assert c1 == d + a
        assert lm.q_upper_bound(g) == (d + a) + 1 + 1 + (a - 1) - 1
