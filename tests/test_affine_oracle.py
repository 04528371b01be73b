"""Affine-orbit order: raising steps, chain distance, cover/edge correspondence."""

from __future__ import annotations

import copy
import math
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import (
    _REFERENCE_SHAPES,
    REFERENCE_SHAPES,
    cached_context,
    dist,
    group_cosets,
    segment_chains,
    sigma_chain_reference,
    verify_sigma_chain,
    vertex_by_word,
)
from qbruhat.affine_oracle import AffineOracle, AffineOrbitElement
from qbruhat.cartan import FiniteType, pair, weyl_order
from qbruhat.degree import lift
from qbruhat.qls import QLSPath, enumerate_hat
from test_qls import example_paths


def shape_param(name: str, mults: tuple[int, ...]):
    return pytest.param((name, mults), id=f"{name}-{','.join(map(str, mults))}")


ALL_REFERENCE_SHAPES = [shape_param(*shape) for shape in _REFERENCE_SHAPES]
# The reference shapes with at most 300 vertices, on which the longest-chain
# reference stays fast: every shape with a zero multiplicity here, and the
# regular shapes, whose vertices are all of W, up to |W| = 300.
SMALL_REFERENCE_SHAPES = [
    shape_param(name, mults)
    for name, mults in _REFERENCE_SHAPES
    if 0 in mults or weyl_order(FiniteType.parse(name)) <= 300
]


# The reference shapes with at most 100 vertices: the regular shapes with |W| <= 100 and every shape with a
# zero multiplicity but F4 (1,0,1,0), which has 288.
CHAIN_SHAPES = [
    shape_param(name, mults)
    for name, mults in _REFERENCE_SHAPES
    if (0 in mults or weyl_order(FiniteType.parse(name)) <= 100) and (name, mults) != ("F4", (1, 0, 1, 0))
]


@pytest.fixture(scope="module")
def oracle_a2(a2_21):
    return AffineOracle(a2_21.graph)


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
        theta = g.rs.positive_roots[g.rs.highest_root]
        for v in range(g.num_vertices):
            for n in (-2, 0, 3):
                mu = AffineOrbitElement(v, n)
                for s in oracle.raising_steps(mu):
                    assert s.pairing < 0
                    assert s.target.delta >= mu.delta
                    gamma = g.rs.positive_roots[s.root]
                    src_w = g.orbit_weight(mu.vertex)
                    dst_w = g.orbit_weight(s.target.vertex)
                    mult = -s.pairing
                    beta_w = g.rs.root_weight_coords[s.root]
                    if s.kind == "finite":
                        assert dst_w == tuple(a + mult * b for a, b in zip(src_w, beta_w))
                    else:
                        assert dst_w == tuple(a - mult * b for a, b in zip(src_w, beta_w))
                        assert s.target.delta - mu.delta == mult
                        # delta - gamma is a nonnegative span of the simple
                        # roots extended by the lowest one: theta >= gamma
                        assert all(t >= c for t, c in zip(theta, gamma))


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


def reference_steps(ctx) -> list[tuple[tuple[int, int, int, int], ...]]:
    """The oracle's step table built from the group: the target of r_gamma at x is the vertex of proj(r_gamma x)."""
    (group, cs), rs = group_cosets(ctx), ctx.rs
    table = []
    for rep in cs.reps:
        w = rs.apply_weight(group.elements[rep].word, ctx.shape.multiplicities)
        steps = []
        for i, c in enumerate(rs.positive_coroots):
            p = pair(w, c)
            if p:
                target = cs.rep_position[cs.projection[group.mul(group.reflection(i), rep)]]
                steps.append((i, target, 0, p) if p < 0 else (i, target, p, -p))
        table.append(tuple(steps))
    return table


@REFERENCE_SHAPES
def test_steps_match_group_reference(name, mults):
    ctx = cached_context(name, mults)
    assert AffineOracle(ctx.graph)._steps == reference_steps(ctx)


class TestDist:
    def test_reflexive(self, oracle_a2):
        mu = AffineOrbitElement(0, 0)
        assert dist(oracle_a2, mu, mu) == 0
        assert dist(oracle_a2, mu, mu) != 1

    def test_lift_chain_pairs_are_covers(self, a2_21, oracle_a2):
        g = a2_21.graph
        for eta in example_paths(a2_21):
            for chain in segment_chains(g, eta):
                for a, b in zip(chain, chain[1:]):
                    assert dist(oracle_a2, a, b) == 1

    def test_two_step_pair_not_cover(self, a2_21, oracle_a2):
        g = a2_21.graph
        # concatenate two consecutive covers from a lifted chain
        eta1, _, _ = example_paths(a2_21)
        chain = max(segment_chains(g, eta1), key=len)
        if len(chain) >= 3:
            assert dist(oracle_a2, chain[0], chain[2]) >= 2
            assert dist(oracle_a2, chain[0], chain[2]) != 1

    def test_no_chain_downhill(self, oracle_a2):
        # delta can never decrease along a chain
        assert dist(oracle_a2, AffineOrbitElement(0, 2), AffineOrbitElement(0, 0)) is None


class TestSigmaChains:
    def test_first_lift_pair(self, a2_21, oracle_a2):
        g = a2_21.graph
        eta1, _, _ = example_paths(a2_21)
        lifted = lift(eta1, g)
        assert verify_sigma_chain(oracle_a2, lifted.weights[0], lifted.weights[1], F(1, 2))

    def test_pairing_three_fails_at_half(self, a2_21, oracle_a2):
        # the only chain from (e, 0) to (w0, 3) is the single highest-root
        # cover with pairing 3, and 3/2 is not an integer
        e = vertex_by_word(a2_21, "e")
        w0 = vertex_by_word(a2_21, "s1 s2 s1")
        mu, nu = AffineOrbitElement(e, 0), AffineOrbitElement(w0, 3)
        assert dist(oracle_a2, mu, nu) == 1
        assert verify_sigma_chain(oracle_a2, mu, nu, F(1, 3))
        assert not verify_sigma_chain(oracle_a2, mu, nu, F(1, 2))

    def test_single_step_chain(self, a2_21, oracle_a2):
        # the Bruhat edge from the identity vertex lifts to a cover whose
        # smaller element carries the edge source
        e = vertex_by_word(a2_21, "e")
        r1 = vertex_by_word(a2_21, "s1")
        mu, nu = AffineOrbitElement(r1, 0), AffineOrbitElement(e, 0)
        # single cover with pairing -<Lambda, alpha_1^vee> = -2
        assert dist(oracle_a2, mu, nu) == 1
        assert verify_sigma_chain(oracle_a2, mu, nu, F(1, 2))

    @pytest.mark.parametrize("shape", CHAIN_SHAPES)
    def test_chains_match_reference(self, shape):
        # every chain bit equals the search down the covers, for each denominator and each gap up to
        # two past the largest step gain
        oracle = AffineOracle(cached_context(*shape).graph)
        n = oracle.g.num_vertices
        assert n <= 100
        pairings = {-p for row in oracle._steps for *_, p in row}
        top = max(gain for row in oracle._steps for _, _, gain, _ in row)
        for q in {1} | {q for p in pairings for q in range(1, p + 1) if p % q == 0}:
            for d in range(top + 3):
                levels = oracle._levels(q, d)
                for v in range(n):
                    row = sum(sigma_chain_reference(oracle, v, w, d, q) << w for w in range(n))
                    assert levels[d][v] >> d * n & (1 << n) - 1 == row, (q, d, v)
        assert not oracle._sigma_chain(0, 0, -1, 1)


class TestVerifyLsPath:
    def test_straight(self, a2_21, oracle_a2):
        g = a2_21.graph
        lifted = lift(QLSPath((0,), (F(0), F(1))), g)
        assert oracle_a2.verify_ls_path(lifted)

    def test_example_lifts(self, a2_21, oracle_a2):
        g = a2_21.graph
        for eta in example_paths(a2_21):
            assert oracle_a2.verify_ls_path(lift(eta, g))

    def test_corrupted_lift_fails(self, a2_21, oracle_a2):
        from qbruhat.degree import AffineLSPath

        g = a2_21.graph
        eta1, _, _ = example_paths(a2_21)  # s2;s2 s1;s1|0,1/2,2/3,1
        lifted = lift(eta1, g)
        assert oracle_a2.failure(lifted) == ""

        def shifted(k: int, by: int) -> AffineLSPath:
            weights = list(lifted.weights)
            weights[k] = AffineOrbitElement(weights[k].vertex, weights[k].delta + by)
            return AffineLSPath(tuple(weights), lifted.times)

        lowered, raised = shifted(1, -1), shifted(2, 1)
        # a repeated weight: the sigma-chain search alone accepts it, as the empty chain
        repeated = AffineLSPath((lifted.weights[0], *lifted.weights[:-1]), lifted.times)
        assert not oracle_a2.verify_ls_path(repeated)
        assert oracle_a2.failure(repeated) == "weights 0 > 1: not comparable"
        assert not oracle_a2.verify_ls_path(lowered)
        assert oracle_a2.failure(lowered) == "weights 0 > 1: not comparable"
        assert not oracle_a2.verify_ls_path(raised)
        assert oracle_a2.failure(raised) == "weights 1 > 2: no sigma-chain at 2/3"


FAULT_SHAPES = [
    shape_param("A2", (2, 1)), shape_param("C2", (1, 1)), shape_param("A3", (0, 1, 0)), shape_param("G2", (1, 1))
]


def with_edges(g, edges):
    """A copy of the graph whose ``edges``, ``out_edges`` and ``in_edges`` all hold ``edges``."""
    h = copy.copy(g)
    h.edges = tuple(edges)
    h.out_edges = tuple(
        tuple(sorted((e for e in edges if e.source == v), key=lambda e: (e.target, e.label)))
        for v in range(g.num_vertices)
    )
    h.in_edges = tuple(tuple(e for e in edges if e.target == v) for v in range(g.num_vertices))
    return h


def faulty_edges(g, fault: str):
    """The graph's edges with one fault injected: an edge dropped, its kind flipped, relabelled, retargeted or listed twice."""
    bruhat = next(e for e in g.edges if not e.quantum)
    quantum = next(e for e in g.edges if e.quantum)
    if fault == "duplicate":
        return [*g.edges, quantum]
    other_label = next(idx for idx in g.labels if idx != bruhat.label)
    other_target = next(v for v in range(g.num_vertices) if v not in (bruhat.source, bruhat.target))
    old, new = {
        "drop-bruhat": (bruhat, None),
        "drop-quantum": (quantum, None),
        "quantum-to-bruhat": (quantum, replace(quantum, quantum=False)),
        "relabel": (bruhat, replace(bruhat, label=other_label)),
        "retarget": (bruhat, replace(bruhat, target=other_target)),
    }[fault]
    return [new if e == old else e for e in g.edges if e != old or new is not None]


def single_edge_faults(g):
    """Every graph with one edge dropped, its kind flipped, relabelled, retargeted or listed twice."""
    edges = list(g.edges)
    for i, e in enumerate(edges):
        rest = edges[:i] + edges[i + 1 :]
        yield rest
        yield rest + [replace(e, quantum=not e.quantum)]
        yield from (rest + [replace(e, label=label)] for label in g.labels if label != e.label)
        yield from (rest + [replace(e, target=v)] for v in range(g.num_vertices) if v != e.target)
        yield edges + [e]


class TestCoversToEdges:
    @pytest.mark.parametrize("fixture", ["a2_21", "a2_11", "c2_11", "a3_010"])
    def test_no_mismatches(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        report = AffineOracle(ctx.graph).covers_to_edges()
        assert report.ok
        assert report.covers_checked > 0

    @pytest.mark.parametrize("fixture", ["a1_1", "a2_21", "a2_11", "c2_11", "a3_010", *ALL_REFERENCE_SHAPES])
    def test_cover_edge_bijection(self, fixture, request):
        # one cover per graph edge and one lift per graph edge
        ctx = request.getfixturevalue(fixture) if isinstance(fixture, str) else cached_context(*fixture)
        report = AffineOracle(ctx.graph).covers_to_edges()
        assert report.covers_checked == report.edges_checked == len(ctx.graph.edges)
        assert report.ok and report.inconclusive == ()

    @pytest.mark.parametrize("shape", SMALL_REFERENCE_SHAPES)
    def test_covers_are_longest_chains_of_one(self, shape):
        # the down-set covers are exactly the steps whose longest chain is the step itself
        oracle = AffineOracle(cached_context(*shape).graph)
        for v in range(oracle.g.num_vertices):
            mu = AffineOrbitElement(v, 0)
            steps = oracle.raising_steps(mu)
            assert oracle._covers[v] == tuple(s for s in steps if dist(oracle, mu, s.target) == 1)

    def test_finite_step_must_shorten(self, a2_21):
        # the down-sets are built in vertex order, which is by length
        oracle = AffineOracle(a2_21.graph)
        oracle._steps[0] = ((0, 1, 0, -1),)
        with pytest.raises(RuntimeError, match="does not shorten"):
            oracle._covers

    @pytest.mark.parametrize(
        "fault", ["drop-bruhat", "drop-quantum", "quantum-to-bruhat", "relabel", "retarget", "duplicate"]
    )
    @pytest.mark.parametrize("shape", FAULT_SHAPES)
    def test_wrong_graph_caught(self, shape, fault):
        # the check is not vacuous: one injected fault gives at least one mismatch
        g = cached_context(*shape).graph
        report = AffineOracle(with_edges(g, faulty_edges(g, fault))).covers_to_edges()
        assert not report.ok and len(report.mismatches) >= 1

    def test_duplicate_edge_named(self, a2_21):
        g = a2_21.graph
        e = g.edges[0]
        report = AffineOracle(with_edges(g, [*g.edges, e])).covers_to_edges()
        assert report.edges_checked == len(g.edges) + 1
        assert report.mismatches == (
            f"edge lift ({g.vertex_name(e.target)}, 0d) > ({g.vertex_name(e.source)}, 0d) is listed 2 times",
        )

    @pytest.mark.parametrize("shape", FAULT_SHAPES)
    def test_every_single_edge_fault_caught(self, shape):
        # each edge dropped, flipped, relabelled to every other label, retargeted
        # to every other vertex and duplicated: the key alone catches all of them
        g = cached_context(*shape).graph
        oracle = AffineOracle(g)
        oracle._covers  # the covers read only the orbit, and the check reads only ``edges`` of the graph
        for edges in single_edge_faults(g):
            oracle.g = copy.copy(g)
            oracle.g.edges = tuple(edges)
            assert not oracle.covers_to_edges().ok, edges


class TestOracleAgreement:
    @pytest.mark.parametrize("fixture", ["a2_21", "a2_11", "c2_11", "a3_010"])
    def test_all_paths_certified(self, fixture, request):
        from qbruhat.degree import degree, endpoint_delta

        ctx = request.getfixturevalue(fixture)
        shape, g = ctx.shape, ctx.graph
        oracle = AffineOracle(g)
        for eta in enumerate_hat(g):
            lifted = lift(eta, g)
            assert oracle.verify_ls_path(lifted)
            assert endpoint_delta(lifted) == -degree(eta, g)
            # first lifted weight has no delta-shift
            assert lifted.weights[0].delta == 0
            # every delta is a multiple of the coarse shape gcd
            gcd = math.gcd(*shape.multiplicities)
            assert all(m.delta % gcd == 0 for m in lifted.weights)
