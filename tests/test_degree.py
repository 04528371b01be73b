"""Degree formula, affine lifts, endpoint bookkeeping."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from conftest import vertex_by_word
from qbruhat.degree import (
    InvalidQLSPath,
    degree,
    endpoint_classical,
    endpoint_delta,
    lift,
    segment_energy,
)
from qbruhat.qls import QLSPath, enumerate_hat, evaluate
from test_qls import example_paths


class TestGolden:
    def test_known_degrees(self, a2_21):
        shape, g = a2_21.shape, a2_21.graph
        eta1, eta2, eta3 = example_paths(a2_21)
        assert degree(eta1, shape, g) == -1
        assert degree(eta2, shape, g) == -1
        assert degree(eta3, shape, g) == -2

    def test_straight_zero(self, a2_21):
        shape, g = a2_21.shape, a2_21.graph
        for v in range(g.num_vertices):
            assert degree(QLSPath((v,), (F(0), F(1))), shape, g) == 0


class TestSegmentEnergy:
    def test_quantum_segment(self, a2_21):
        g, lam = a2_21.graph, a2_21.shape.classical
        r2r1, r2 = vertex_by_word(a2_21, "s2 s1"), vertex_by_word(a2_21, "s2")
        seg = segment_energy(g, lam, r2r1, r2, F(1, 2))
        assert seg.energy == 2 and seg.path.length == 1 and seg.path.quantum == (True,)

    def test_bruhat_segment(self, a2_21):
        g, lam = a2_21.graph, a2_21.shape.classical
        r1, r2r1 = vertex_by_word(a2_21, "s1"), vertex_by_word(a2_21, "s2 s1")
        seg = segment_energy(g, lam, r1, r2r1, F(2, 3))
        assert seg.energy == 0 and seg.path.quantum == (False,)

    def test_degenerate_equal_pair(self, a2_21):
        g, lam = a2_21.graph, a2_21.shape.classical
        seg = segment_energy(g, lam, 3, 3, F(1, 2))
        assert seg.energy == 0 and seg.path.length == 0

    def test_invalid_segment_raises(self, a2_21):
        g, lam = a2_21.graph, a2_21.shape.classical
        e, r2 = vertex_by_word(a2_21, "e"), vertex_by_word(a2_21, "s2")
        with pytest.raises(InvalidQLSPath):
            segment_energy(g, lam, e, r2, F(1, 2))


class TestLift:
    def test_straight(self, a2_21):
        shape, g = a2_21.shape, a2_21.graph
        lifted = lift(QLSPath((2,), (F(0), F(1))), shape, g)
        assert len(lifted.weights) == 1
        assert lifted.weights[0].vertex == 2 and lifted.weights[0].delta == 0
        assert lifted.segment_chains == ()

    def test_eta1_deltas(self, a2_21):
        shape, g = a2_21.shape, a2_21.graph
        eta1, _, eta3 = example_paths(a2_21)
        l1 = lift(eta1, shape, g)
        assert [m.delta for m in l1.weights] == [0, 2, 2]
        assert [m.vertex for m in l1.weights] == list(eta1.directions)
        l3 = lift(eta3, shape, g)
        assert [m.delta for m in l3.weights] == [0, 3, 3]

    def test_chains_interpolate(self, a2_21):
        shape, g = a2_21.shape, a2_21.graph
        for eta in example_paths(a2_21):
            lifted = lift(eta, shape, g)
            for p, chain in enumerate(lifted.segment_chains):
                assert chain[0] == lifted.weights[p]
                assert chain[-1] == lifted.weights[p + 1]
                for a, b in zip(chain, chain[1:]):
                    assert b.delta >= a.delta

    def test_endpoint_examples(self, a2_21):
        shape, g = a2_21.shape, a2_21.graph
        eta1, _, eta3 = example_paths(a2_21)
        assert endpoint_delta(lift(eta1, shape, g)) == 1
        assert endpoint_delta(lift(eta3, shape, g)) == 2
        assert endpoint_delta(lift(QLSPath((0,), (F(0), F(1))), shape, g)) == 0


class TestInvariants:
    @pytest.mark.parametrize("fixture", ["a2_21", "a2_11", "c2_11", "a3_010"])
    def test_degree_is_minus_endpoint(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        shape, g = ctx.shape, ctx.graph
        cache = {}
        for eta in enumerate_hat(shape, g):
            d = degree(eta, shape, g, cache=cache)
            lifted = lift(eta, shape, g, cache=cache)
            assert d <= 0
            assert endpoint_delta(lifted) == -d
            energies = [
                lifted.weights[p + 1].delta - lifted.weights[p].delta
                for p in range(len(lifted.weights) - 1)
            ]
            assert (d == 0) == all(x == 0 for x in energies)

    @pytest.mark.parametrize("fixture", ["a2_21", "c2_11"])
    def test_endpoint_classical_matches_evaluation(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        shape, g = ctx.shape, ctx.graph
        lam = shape.classical
        for eta in enumerate_hat(shape, g):
            lifted = lift(eta, shape, g)
            assert endpoint_classical(lifted, g, lam) == evaluate(g, eta, F(1), lam)

    def test_cache_consistency(self, a2_21):
        shape, g = a2_21.shape, a2_21.graph
        cache = {}
        cold = {eta: degree(eta, shape, g) for eta in enumerate_hat(shape, g)}
        warm = {eta: degree(eta, shape, g, cache=cache) for eta in cold}
        again = {eta: degree(eta, shape, g, cache=cache) for eta in cold}
        assert cold == warm == again


class TestErrors:
    def test_rejects_non_hat_times(self, a2_21):
        shape, g = a2_21.shape, a2_21.graph
        e, w0 = vertex_by_word(a2_21, "e"), vertex_by_word(a2_21, "s1 s2 s1")
        with pytest.raises(InvalidQLSPath):
            degree(QLSPath((e, w0), (F(0), F(1, 5), F(1))), shape, g)

    def test_rejects_bad_structure(self, a2_21):
        shape, g = a2_21.shape, a2_21.graph
        with pytest.raises(InvalidQLSPath):
            degree(QLSPath((0, 0), (F(0), F(1, 2), F(1))), shape, g)
        with pytest.raises(InvalidQLSPath):
            degree(QLSPath((0, 1), (F(0), F(1))), shape, g)
        with pytest.raises(InvalidQLSPath):
            degree(QLSPath((0,), (F(0), F(1, 2))), shape, g)
