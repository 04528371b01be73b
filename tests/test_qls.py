"""Quantum LS path enumeration and evaluation."""

from __future__ import annotations

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    REFERENCE_SHAPES,
    cached_context,
    evaluate,
    is_hat_path,
    is_tilde_path,
    path_from_json,
    type_group,
    vertex_by_word,
)
from qbruhat.cli import parse_path_literal
from qbruhat.qls import (
    EnumerationCap,
    QLSPath,
    enumerate_hat,
    enumerate_tilde,
    path_to_json,
    sigma_candidates,
)


def example_paths(ctx):
    v = lambda w: vertex_by_word(ctx, w)
    eta1 = QLSPath((v("s2"), v("s2 s1"), v("s1")), (F(0), F(1, 2), F(2, 3), F(1)))
    eta2 = QLSPath((v("s1"), v("e"), v("s1 s2 s1")), (F(0), F(1, 2), F(2, 3), F(1)))
    eta3 = QLSPath((v("e"), v("s1 s2 s1"), v("s1 s2")), (F(0), F(1, 3), F(1, 2), F(1)))
    return eta1, eta2, eta3


class TestSigmaCandidates:
    def test_regular_shape(self, a2_21):
        assert sigma_candidates(a2_21.graph) == (F(1, 3), F(1, 2), F(2, 3))

    def test_fundamental_shape(self, a2_10):
        assert sigma_candidates(a2_10.graph) == ()

    def test_rectangular_shape(self):
        ctx = cached_context("A2", (3, 0))
        assert sigma_candidates(ctx.graph) == (F(1, 3), F(2, 3))

    @REFERENCE_SHAPES
    def test_lowest_terms(self, name, mults):
        # the times a/b in lowest terms with b dividing an edge label's pairing
        g = cached_context(name, mults).graph
        pairings = {g.pairings[e.label] for e in g.edges}
        expected = {
            F(a, b) for b in range(2, max(pairings) + 1) if any(v % b == 0 for v in pairings)
            for a in range(1, b) if gcd(a, b) == 1
        }
        assert sigma_candidates(g) == tuple(sorted(expected))


class TestEnumerate:
    def test_contains_known_paths(self, a2_21):
        hat = enumerate_hat(a2_21.graph)
        for eta in example_paths(a2_21):
            assert eta in hat

    def test_fundamental_only_straight(self, a2_10):
        hat = enumerate_hat(a2_10.graph)
        # a tuple in path_sort_key order, so the comparison pins the order too
        assert hat == tuple(
            QLSPath((v,), (F(0), F(1))) for v in range(a2_10.graph.num_vertices)
        )

    @pytest.mark.parametrize("fixture", ["a2_21", "a2_11", "c2_11", "a3_010", "a1_1"])
    def test_straight_paths_present(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        hat = enumerate_hat(ctx.graph)
        for v in range(ctx.graph.num_vertices):
            assert QLSPath((v,), (F(0), F(1))) in hat

    @pytest.mark.parametrize("fixture", ["a2_21", "a2_11", "a2_10", "c2_11", "a3_010"])
    def test_hat_equals_tilde(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        assert enumerate_hat(ctx.graph) == enumerate_tilde(ctx.graph)

    def test_cardinality_regression(self, a2_21):
        # pinned after the oracle suites first certified this enumeration
        assert len(enumerate_hat(a2_21.graph)) == 27

    @pytest.mark.parametrize("fixture", ["a2_21", "c2_11"])
    def test_members_revalidate(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        hat = enumerate_hat(ctx.graph)
        tilde = enumerate_tilde(ctx.graph)
        for p in hat:
            assert is_hat_path(ctx.graph, p)
        for p in tilde:
            assert is_tilde_path(ctx.graph, p)

    def test_conditions_prune(self, a2_21):
        # dropping the sigma conditions but keeping distinct adjacent
        # directions and increasing times strictly enlarges the set
        g = a2_21.graph
        cands = sigma_candidates(g)
        m = g.num_vertices
        total = [0]

        def extend(cur: int, last: int) -> None:
            total[0] += 1
            for si in range(last + 1, len(cands)):
                for nxt in range(m):
                    if nxt != cur:
                        extend(nxt, si)

        for start in range(m):
            extend(start, -1)
        assert total[0] > len(enumerate_hat(g))

    def test_cap(self, a2_21):
        with pytest.raises(EnumerationCap):
            enumerate_hat(a2_21.graph, cap=5)

    def test_validator_rejects_junk(self, a2_21):
        g = a2_21.graph
        assert not is_hat_path(g, QLSPath((0, 0), (F(0), F(1, 2), F(1))))
        assert not is_hat_path(g, QLSPath((0, 1), (F(0), F(2, 3), F(1, 2))))
        assert not is_hat_path(g, QLSPath((0,), (F(0), F(1, 2))))


class TestEvaluate:
    def test_straight_line(self, a2_21):
        g = a2_21.graph
        e = vertex_by_word(a2_21, "e")
        path = QLSPath((e,), (F(0), F(1)))
        assert evaluate(g, path, F(1, 3)) == (F(2, 3), F(1, 3))
        assert evaluate(g, path, F(1)) == (F(2), F(1))

    def test_zero_at_zero(self, a2_21):
        g = a2_21.graph
        for eta in example_paths(a2_21):
            assert evaluate(g, eta, F(0)) == (F(0), F(0))

    def test_eta3_endpoint(self, a2_21):
        # (1/3) lam + (1/6) w0.lam + (1/2) (s1 s2).lam computed by hand:
        # w0.lam = (-1,-2), (s1 s2).lam = (-3, 2), total (-1, 1)
        g = a2_21.graph
        _, _, eta3 = example_paths(a2_21)
        assert evaluate(g, eta3, F(1)) == (F(-1), F(1))

    def test_out_of_range(self, a2_21):
        g = a2_21.graph
        path = QLSPath((0,), (F(0), F(1)))
        with pytest.raises(ValueError):
            evaluate(g, path, F(-1, 2))
        with pytest.raises(ValueError):
            evaluate(g, path, F(3, 2))

    @given(data=st.data())
    def test_piecewise_linear(self, data):
        ctx = cached_context("A2", (2, 1))
        g = ctx.graph
        hat = sorted(enumerate_hat(g), key=lambda p: (len(p.directions), p.directions))
        path = data.draw(st.sampled_from(hat), label="path")
        k = data.draw(st.integers(1, len(path.times) - 1), label="segment")
        lo, hi = path.times[k - 1], path.times[k]
        a = data.draw(st.fractions(min_value=lo, max_value=hi, max_denominator=60), label="a")
        b = data.draw(st.fractions(min_value=lo, max_value=hi, max_denominator=60), label="b")
        mid = (a + b) / 2
        va, vb, vm = (evaluate(g, path, t) for t in (a, b, mid))
        assert tuple((x + y) / 2 for x, y in zip(va, vb)) == vm


class TestEndpointCharacter:
    """Independent end-to-end oracle for type A shapes.

    In type A every fundamental weight is minuscule, so the k-th fundamental
    representation has weight multiset equal to the Weyl orbit of w_k, each
    weight once.  The enumerated path set realizes the tensor product of one
    fundamental factor per unit of each multiplicity, so the multiset of
    endpoints eta(1) must equal the multiset of sums picking one orbit
    weight from each factor.
    """

    @pytest.mark.parametrize("name,mults", [("A2", (2, 1)), ("A2", (1, 1)), ("A3", (0, 1, 0))])
    def test_endpoint_multiset_matches_tensor_weights(self, name, mults):
        from collections import Counter
        from itertools import product

        ctx = cached_context(name, mults)
        g, group = ctx.graph, type_group(name)
        rank = ctx.rs.rank

        def orbit(i: int) -> list[tuple[int, ...]]:
            w = tuple(1 if k == i - 1 else 0 for k in range(rank))
            return sorted({ctx.rs.apply_weight(e.word, w) for e in group.elements})

        factors = []
        for i, m in enumerate(mults, start=1):
            factors.extend([orbit(i)] * m)
        expected = Counter(
            tuple(sum(c) for c in zip(*choice)) for choice in product(*factors)
        )
        got = Counter(
            tuple(evaluate(g, eta, F(1))) for eta in enumerate_hat(g)
        )
        assert got == expected


class TestJson:
    def test_roundtrip(self, a2_21, c2_11):
        for ctx in (a2_21, c2_11):
            g = ctx.graph
            for eta in enumerate_hat(g):
                assert path_from_json(g, path_to_json(g, eta)) == eta

    @pytest.mark.parametrize("word", ["s2", "s1 s2"])
    def test_rejects_non_representative(self, a2_10, word):
        # the same decoder and message as a --path literal
        g = a2_10.graph
        with pytest.raises(ValueError) as from_json:
            path_from_json(g, {"dirs": [word], "times": ["0", "1"]})
        with pytest.raises(ValueError) as from_literal:
            parse_path_literal(a2_10, f"{word}|0,1")
        assert str(from_json.value) == str(from_literal.value)
        assert str(from_json.value) == f"direction {word!r} is not a minimal coset representative"

    @pytest.mark.parametrize("word", ["s1 s1", "s2 s1 s2 s1 s2 s1 s2"])
    def test_rejects_non_reduced_word(self, a2_21, word):
        with pytest.raises(ValueError, match="is not a reduced word"):
            path_from_json(a2_21.graph, {"dirs": [word], "times": ["0", "1"]})

    def test_record_shape(self, a2_21):
        g = a2_21.graph
        eta1, _, _ = example_paths(a2_21)
        rec = path_to_json(g, eta1)
        assert rec == {"dirs": ["s2", "s2 s1", "s1"], "times": ["0", "1/2", "2/3", "1"]}
