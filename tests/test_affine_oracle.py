"""Affine-orbit order: raising steps, chain distance, cover/edge correspondence."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from conftest import vertex_by_word
from qbruhat.affine_oracle import (
    AffineOracle,
    AffineOrbitElement,
    InconclusiveSearch,
)
from qbruhat.cartan import pair
from qbruhat.degree import lift
from qbruhat.qls import QLSPath, enumerate_hat
from test_qls import example_paths


@pytest.fixture(scope="module")
def oracle_a2(a2_21):
    return AffineOracle(a2_21.graph, window=10)


def test_rejects_parabolic_override(a2_10):
    # orbit elements are keyed by vertex; only the shape's own parabolic set
    # makes that identification faithful, so no graph is built on another J
    from qbruhat.qbg import build_pqbg
    from qbruhat.weyl import coset_system

    with pytest.raises(ValueError, match="lives on J"):
        build_pqbg(a2_10.shape, coset_system(a2_10.group, frozenset()))


class TestRaisingSteps:
    def test_dominant_only_affine(self, a2_21, oracle_a2):
        e = vertex_by_word(a2_21, "e")
        steps = oracle_a2.raising_steps(AffineOrbitElement(e, 0))
        assert steps and all(s.kind == "affine" for s in steps)

    def test_affine_theta_step(self, a2_21, oracle_a2):
        # from the identity vertex, the highest-root step gains <Lambda, theta^vee> = 3
        e = vertex_by_word(a2_21, "e")
        w0 = vertex_by_word(a2_21, "s1 s2 s1")
        g = a2_21.graph
        theta_idx = g.rs.highest_root
        steps = [s for s in oracle_a2.raising_steps(AffineOrbitElement(e, 0)) if s.root == theta_idx]
        assert len(steps) == 1
        assert steps[0].target == AffineOrbitElement(w0, 3)
        assert steps[0].pairing == -3

    def test_antidominant_finite_theta_step(self, a2_21, oracle_a2):
        w0 = vertex_by_word(a2_21, "s1 s2 s1")
        e = vertex_by_word(a2_21, "e")
        g = a2_21.graph
        theta_idx = g.rs.highest_root
        steps = [s for s in oracle_a2.raising_steps(AffineOrbitElement(w0, 0)) if s.root == theta_idx]
        assert len(steps) == 1
        assert steps[0].kind == "finite"
        assert steps[0].target == AffineOrbitElement(e, 0)

    @pytest.mark.parametrize("fixture", ["a2_21", "c2_11"])
    def test_monotone_bookkeeping(self, fixture, request):
        # every step adds a positive multiple of its root to the classical
        # part (finite kind) or delta - root (affine kind); delta never drops
        ctx = request.getfixturevalue(fixture)
        oracle = AffineOracle(ctx.graph)
        g = ctx.graph
        theta = g.rs.theta.coords
        for v in range(g.num_vertices):
            for n in (-2, 0, 3):
                mu = AffineOrbitElement(v, n)
                for s in oracle.raising_steps(mu):
                    assert s.pairing < 0
                    assert s.target.delta >= mu.delta
                    gamma = g.rs.positive_roots[s.root]
                    src_w = g.orbit_weight(mu.vertex).coords
                    dst_w = g.orbit_weight(s.target.vertex).coords
                    mult = -s.pairing
                    beta_w = g.rs.root_weight_coords[s.root]
                    if s.kind == "finite":
                        assert dst_w == tuple(a + mult * b for a, b in zip(src_w, beta_w))
                    else:
                        assert dst_w == tuple(a - mult * b for a, b in zip(src_w, beta_w))
                        assert s.target.delta - mu.delta == mult
                        # delta - gamma is a nonnegative span of the simple
                        # roots extended by the lowest one: theta >= gamma
                        assert all(t >= c for t, c in zip(theta, gamma.coords))


    @pytest.mark.parametrize("fixture", ["a2_21", "c2_11"])
    def test_delta_translation(self, fixture, request):
        # the steps out of (v, n) are those out of (v, 0) shifted by n: the
        # oracle's memos and its single cover/edge pass rely on this
        ctx = request.getfixturevalue(fixture)
        oracle = AffineOracle(ctx.graph)
        for v in range(ctx.graph.num_vertices):
            base = oracle.raising_steps(AffineOrbitElement(v, 0))
            for n in (-3, 0, 4):
                shifted = oracle.raising_steps(AffineOrbitElement(v, n))
                assert [(s.kind, s.root, s.pairing, s.target.vertex, s.target.delta) for s in shifted] == [
                    (s.kind, s.root, s.pairing, s.target.vertex, s.target.delta + n) for s in base
                ]


class TestDist:
    def test_reflexive(self, oracle_a2):
        mu = AffineOrbitElement(0, 0)
        assert oracle_a2.dist(mu, mu) == 0
        assert not oracle_a2.is_cover(mu, mu)

    def test_lift_chain_pairs_are_covers(self, a2_21, oracle_a2):
        g = a2_21.graph
        for eta in example_paths(a2_21):
            lifted = lift(eta, g)
            for chain in lifted.segment_chains:
                for a, b in zip(chain, chain[1:]):
                    assert oracle_a2.is_cover(a, b)

    def test_two_step_pair_not_cover(self, a2_21, oracle_a2):
        g = a2_21.graph
        # concatenate two consecutive covers from a lifted chain
        eta1, _, _ = example_paths(a2_21)
        lifted = lift(eta1, g)
        chain = max(lifted.segment_chains, key=len)
        if len(chain) >= 3:
            assert oracle_a2.dist(chain[0], chain[2]) >= 2
            assert not oracle_a2.is_cover(chain[0], chain[2])

    def test_no_chain_downhill(self, oracle_a2):
        # delta can never decrease along a chain
        assert oracle_a2.dist(AffineOrbitElement(0, 2), AffineOrbitElement(0, 0)) is None

    def test_window_guard(self, oracle_a2):
        with pytest.raises(InconclusiveSearch):
            oracle_a2.dist(AffineOrbitElement(0, 0), AffineOrbitElement(0, 40))

    def test_negative_window_rejected(self, a2_21):
        with pytest.raises(ValueError):
            AffineOracle(a2_21.graph, window=-1)

    def test_window_monotone(self, a2_21):
        g = a2_21.graph
        small = AffineOracle(g, window=6)
        large = AffineOracle(g, window=30)
        for v in range(g.num_vertices):
            for w in range(g.num_vertices):
                for dn in range(0, 4):
                    mu = AffineOrbitElement(v, 0)
                    nu = AffineOrbitElement(w, dn)
                    assert small.dist(mu, nu) == large.dist(mu, nu)


class TestSigmaChains:
    def test_first_lift_pair(self, a2_21, oracle_a2):
        g = a2_21.graph
        eta1, _, _ = example_paths(a2_21)
        lifted = lift(eta1, g)
        assert oracle_a2.verify_sigma_chain(lifted.weights[0], lifted.weights[1], F(1, 2))

    def test_pairing_three_fails_at_half(self, a2_21, oracle_a2):
        # the only chain from (e, 0) to (w0, 3) is the single highest-root
        # cover with pairing 3, and 3/2 is not an integer
        e = vertex_by_word(a2_21, "e")
        w0 = vertex_by_word(a2_21, "s1 s2 s1")
        mu, nu = AffineOrbitElement(e, 0), AffineOrbitElement(w0, 3)
        assert oracle_a2.is_cover(mu, nu)
        assert oracle_a2.verify_sigma_chain(mu, nu, F(1, 3))
        assert not oracle_a2.verify_sigma_chain(mu, nu, F(1, 2))

    def test_single_step_chain(self, a2_21, oracle_a2):
        # the Bruhat edge from the identity vertex lifts to a cover whose
        # smaller element carries the edge source
        e = vertex_by_word(a2_21, "e")
        r1 = vertex_by_word(a2_21, "s1")
        mu, nu = AffineOrbitElement(r1, 0), AffineOrbitElement(e, 0)
        # single cover with pairing -<Lambda, alpha_1^vee> = -2
        assert oracle_a2.is_cover(mu, nu)
        assert oracle_a2.verify_sigma_chain(mu, nu, F(1, 2))


class TestVerifyLsPath:
    def test_straight(self, a2_21, oracle_a2):
        g = a2_21.graph
        lifted = lift(QLSPath((0,), (F(0), F(1))), g)
        assert oracle_a2.verify_ls_path(lifted)

    def test_example_lifts(self, a2_21, oracle_a2):
        g = a2_21.graph
        for eta in example_paths(a2_21):
            assert oracle_a2.verify_ls_path(lift(eta, g))

    def test_inconclusive_names_settling_window(self):
        # the lift has delta-coefficients 0, 3, 5: the message names 5, the
        # largest, and that window settles the check
        from qbruhat import build_context
        from qbruhat.cli import parse_path_literal

        ctx = build_context("A2", (3, 2))
        g = ctx.graph
        lifted = lift(parse_path_literal(ctx, "e;s1;s1 s2|0,1/3,1/2,1"), g)
        assert [m.delta for m in lifted.weights] == [0, 3, 5]
        with pytest.raises(InconclusiveSearch, match=r"needs window 5$"):
            AffineOracle(g, window=0).verify_ls_path(lifted)
        assert AffineOracle(g, window=5).verify_ls_path(lifted)

    def test_corrupted_lift_fails(self, a2_21, oracle_a2):
        from qbruhat.degree import AffineLSPath

        g = a2_21.graph
        eta1, _, _ = example_paths(a2_21)
        lifted = lift(eta1, g)
        bad_weights = list(lifted.weights)
        bad_weights[1] = AffineOrbitElement(bad_weights[1].vertex, bad_weights[1].delta - 1)
        corrupted = AffineLSPath(tuple(bad_weights), lifted.times, lifted.segment_chains)
        assert not oracle_a2.verify_ls_path(corrupted)


class TestCoversToEdges:
    @pytest.mark.parametrize("fixture", ["a2_21", "a2_11", "c2_11", "a3_010"])
    def test_no_mismatches(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        report = AffineOracle(ctx.graph, window=5).covers_to_edges()
        assert report.ok
        assert report.covers_checked > 0

    @pytest.mark.parametrize("fixture", ["a1_1", "a2_21", "a2_11", "c2_11", "a3_010"])
    def test_cover_edge_bijection(self, fixture, request):
        # one cover per graph edge and one lift per graph edge, whatever the window
        ctx = request.getfixturevalue(fixture)
        reports = [AffineOracle(ctx.graph, window=w).covers_to_edges() for w in (0, 3, 10)]
        assert reports[0] == reports[1] == reports[2]
        report = reports[0]
        assert report.covers_checked == report.edges_checked == len(ctx.graph.edges)
        assert report.ok and report.inconclusive == ()


class TestOracleAgreement:
    @pytest.mark.parametrize("fixture", ["a2_21", "a2_11", "c2_11", "a3_010"])
    def test_all_paths_certified(self, fixture, request):
        from qbruhat.degree import degree, endpoint_delta

        ctx = request.getfixturevalue(fixture)
        shape, g = ctx.shape, ctx.graph
        oracle = AffineOracle(g, window=10)
        cache = {}
        for eta in enumerate_hat(g):
            lifted = lift(eta, g, cache=cache)
            assert oracle.verify_ls_path(lifted)
            assert endpoint_delta(lifted) == -degree(eta, g, cache=cache)
            # first lifted weight has no delta-shift
            assert lifted.weights[0].delta == 0
            # every delta is a multiple of the coarse shape gcd
            gcd = shape.delta_gcd()
            assert all(m.delta % gcd == 0 for m in lifted.weights)
