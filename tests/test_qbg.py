"""Graph construction, distances, paths, weights, admissibility."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from itertools import product

import qbruhat
from conftest import (
    REFERENCE_SHAPES,
    PathEnumerationCap,
    all_paths_up_to,
    cached_context,
    group_cosets,
    path_weight,
    shortest_path,
    shortest_sigma_paths,
    validate_path,
    vertex_by_word,
)
from qbruhat import build_context
from qbruhat.cartan import pair
from qbruhat.qbg import PQBG, word_name
from qbruhat.qls import sigma_candidates

# the full A2 edge list, read off the rank-2 hexagon figure:
# (source word, target word, label coords, kind)
A2_EDGES = {
    ("e", "s1", (1, 0), "bruhat"),
    ("e", "s2", (0, 1), "bruhat"),
    ("s1", "s1 s2", (0, 1), "bruhat"),
    ("s1", "s2 s1", (1, 1), "bruhat"),
    ("s2", "s2 s1", (1, 0), "bruhat"),
    ("s2", "s1 s2", (1, 1), "bruhat"),
    ("s1 s2", "s1 s2 s1", (1, 0), "bruhat"),
    ("s2 s1", "s1 s2 s1", (0, 1), "bruhat"),
    ("s1", "e", (1, 0), "quantum"),
    ("s2", "e", (0, 1), "quantum"),
    ("s1 s2", "s1", (0, 1), "quantum"),
    ("s2 s1", "s2", (1, 0), "quantum"),
    ("s1 s2 s1", "s1 s2", (1, 0), "quantum"),
    ("s1 s2 s1", "s2 s1", (0, 1), "quantum"),
    ("s1 s2 s1", "e", (1, 1), "quantum"),
}


def least_shortest_path(g, x, y, sigma):
    """The least shortest sigma-admissible path from y to x by its (predecessor, label) steps read back from x, or None.

    ``sigma`` = 1 stands for the whole graph.
    """
    paths = shortest_sigma_paths(g, x, y, sigma)
    return min(paths, key=lambda p: tuple(zip(p.vertices[1:], p.labels)), default=None)


def edge_set(g):
    return {
        (g.vertex_name(e.source), g.vertex_name(e.target), g.rs.positive_roots[e.label], e.kind)
        for e in g.edges
    }


class TestBuild:
    def test_a2_full_graph(self, a2_21):
        g = a2_21.graph
        assert g.num_vertices == 6
        assert edge_set(g) == A2_EDGES
        assert sum(1 for e in g.edges if not e.quantum) == 8
        assert sum(1 for e in g.edges if e.quantum) == 7

    def test_a1(self, a1_1):
        g = a1_1.graph
        assert edge_set(g) == {("e", "s1", (1,), "bruhat"), ("s1", "e", (1,), "quantum")}

    def test_a2_parabolic(self, a2_10):
        g = a2_10.graph
        assert {g.vertex_name(v) for v in range(g.num_vertices)} == {"e", "s1", "s2 s1"}
        labels = {g.rs.positive_roots[i] for i in g.labels}
        assert labels == {(1, 0), (1, 1)}
        # independent recomputation of the edge conditions over all candidate pairs
        (group, cs), rs = group_cosets(a2_10), g.rs
        name = lambda a: word_name(group.elements[a].word)
        two_rho_diff = [0] * rs.rank
        for i in g.labels:
            for k, v in enumerate(rs.root_weight_coords[i]):
                two_rho_diff[k] += v
        expected = set()
        for rep in cs.reps:
            for i in g.labels:
                t = cs.projection[group.mul(rep, group.reflection(i))]
                drop = sum(a * b for a, b in zip(two_rho_diff, rs.positive_coroots[i]))
                if group.length(t) == group.length(rep) + 1:
                    expected.add((name(rep), name(t), rs.positive_roots[i], "bruhat"))
                elif group.length(t) == group.length(rep) - drop + 1:
                    expected.add((name(rep), name(t), rs.positive_roots[i], "quantum"))
        assert edge_set(g) == expected
        assert len(g.edges) == 3

    @pytest.mark.parametrize("fixture", ["a2_21", "a2_10", "c2_11", "a3_010", "a1_1"])
    def test_strong_connectivity_and_uniqueness(self, fixture, request):
        g = request.getfixturevalue(fixture).graph
        # the build emits edges in (source, label) order, which the exports rely on
        assert list(g.edges) == sorted(g.edges, key=lambda e: (e.source, e.label))
        seen = set()
        for e in g.edges:
            assert (e.source, e.label) not in seen
            seen.add((e.source, e.label))
        for x in range(g.num_vertices):
            for y in range(g.num_vertices):
                assert g.distances_from(y)[x] >= 0

    @pytest.mark.parametrize("cut", ["first", "last"])
    @pytest.mark.parametrize("side", ["target", "source"])
    def test_not_strongly_connected_raises(self, a2_21, monkeypatch, cut, side):
        # dropping every edge into (side=target) or out of (side=source) one
        # vertex leaves a graph that is not strongly connected; vertex 0 and a
        # later vertex make each of the two traversals the one that notices
        real_build = PQBG._build
        v = 0 if cut == "first" else a2_21.graph.num_vertices - 1

        def build(g):
            real_build(g)
            keep = lambda e: getattr(e, side) != v
            g.edges = tuple(filter(keep, g.edges))
            g.out_edges = tuple(tuple(filter(keep, es)) for es in g.out_edges)
            g.in_edges = tuple(tuple(filter(keep, es)) for es in g.in_edges)

        monkeypatch.setattr(PQBG, "_build", build)
        with pytest.raises(RuntimeError, match="not strongly connected"):
            PQBG(a2_21.shape)


def reference_vertex_of_word(ctx, word: tuple[int, ...]) -> int | str:
    """The vertex a word names, or the error text: through the group table and the coset projection."""
    group, cs = group_cosets(ctx)
    a = 0
    for j in word:
        a = group.right_gen(a, j)
    if group.length(a) != len(word):
        return "is not a reduced word"
    if cs.projection[a] != a:
        return "is not a minimal coset representative"
    return cs.rep_position[a]


@REFERENCE_SHAPES
class TestVertexWords:
    def test_words_are_the_group_words(self, name, mults):
        ctx = cached_context(name, mults)
        g = ctx.graph
        group, cs = group_cosets(ctx)
        assert len(g.words) == g.num_vertices
        for v in range(g.num_vertices):
            assert g.words[v] == group.elements[cs.reps[v]].word
            assert g.vertex_at(g.orbit_weight(v)) == v

    def test_vertex_of_word_matches_group_reference(self, name, mults):
        # every word of length <= 4: the same vertex, or the same error
        ctx = cached_context(name, mults)
        g = ctx.graph
        for k in range(5):
            for word in product(range(1, g.rs.rank + 1), repeat=k):
                text = word_name(word)
                expected = reference_vertex_of_word(ctx, word)
                if isinstance(expected, int):
                    assert g.vertex_of_word(text) == expected, text
                else:
                    with pytest.raises(ValueError) as err:
                        g.vertex_of_word(text)
                    assert str(err.value) == f"direction {text!r} {expected}"


def group_built_graph(ctx):
    """Words, orbit points and edges as the group table gives them: vertices in element-id order, w -> proj(w r_beta).

    Edges are (source, target, label, kind) tuples in (source, label) order;
    ``out`` lists each vertex's edges by (target, label), ``incoming`` by
    (source, label).
    """
    group, cs = group_cosets(ctx)
    rs, J = ctx.rs, ctx.shape.parabolic
    words = tuple(group.elements[rep].word for rep in cs.reps)
    orbit = tuple(rs.apply_weight(word, ctx.shape.multiplicities) for word in words)
    labels = [i for i, beta in enumerate(rs.positive_roots) if {k + 1 for k, c in enumerate(beta) if c} - J]
    two_rho_diff = [sum(rs.root_weight_coords[i][k] for i in labels) for k in range(rs.rank)]
    edges = []
    for v, rep in enumerate(cs.reps):
        for i in labels:
            t = cs.projection[group.mul(rep, group.reflection(i))]
            drop = sum(a * b for a, b in zip(two_rho_diff, rs.positive_coroots[i]))
            if group.length(t) == group.length(rep) + 1:
                edges.append((v, cs.rep_position[t], i, "bruhat"))
            elif group.length(t) == group.length(rep) - drop + 1:
                edges.append((v, cs.rep_position[t], i, "quantum"))
    out = [[] for _ in words]
    incoming = [[] for _ in words]
    for e in edges:
        out[e[0]].append(e)
        incoming[e[1]].append(e)
    return words, orbit, edges, [sorted(es, key=lambda e: (e[1], e[2])) for es in out], incoming


# every nonzero 0/1 multiplicity pattern of the types whose group the suite enumerates
_ZERO_ONE_SHAPES = [
    (name, mults)
    for name in ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "F4", "G2"]
    for mults in product((0, 1), repeat=int(name[1:]))
    if any(mults)
]


class TestOrbitBuild:
    """The graph built from the orbit W Lambda is the one the group table gives."""

    @pytest.mark.parametrize(
        "name,mults", _ZERO_ONE_SHAPES, ids=[f"{n}-{''.join(map(str, m))}" for n, m in _ZERO_ONE_SHAPES]
    )
    def test_matches_group_built_graph(self, name, mults):
        ctx = build_context(name, mults)
        g = ctx.graph
        words, orbit, edges, out, incoming = group_built_graph(ctx)
        as_tuple = lambda e: (e.source, e.target, e.label, e.kind)
        assert g.words == words
        assert tuple(map(g.orbit_weight, range(g.num_vertices))) == orbit
        assert list(map(as_tuple, g.edges)) == edges
        assert [list(map(as_tuple, es)) for es in g.out_edges] == out
        assert [list(map(as_tuple, es)) for es in g.in_edges] == incoming

    def test_no_group_enumerated(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_context enumerated the Weyl group")

        monkeypatch.setattr(qbruhat, "enumerate_group", refuse)
        monkeypatch.setattr(qbruhat, "coset_system", refuse)
        g = build_context("D4", (1, 0, 1, 0)).graph
        assert (g.num_vertices, len(g.edges)) == (32, 84)

    @pytest.mark.parametrize("point", [(0, 0), (4, 2), (2, 1, 0)])
    def test_vertex_at_off_the_orbit(self, a2_21, point):
        # an orbit point is a plain tuple: Lambda itself is vertex 0, and the zero weight, 2 Lambda and a
        # tuple of the wrong rank lie on no vertex
        g = a2_21.graph
        assert g.vertex_at((2, 1)) == 0
        with pytest.raises(KeyError):
            g.vertex_at(point)


class TestDistances:
    def test_reflexive(self, a2_21):
        g = a2_21.graph
        for v in range(g.num_vertices):
            assert g.distances_from(v)[v] == 0

    def test_quantum_shortcut(self, a2_21):
        g = a2_21.graph
        r2, r2r1 = vertex_by_word(a2_21, "s2"), vertex_by_word(a2_21, "s2 s1")
        e, w0 = vertex_by_word(a2_21, "e"), vertex_by_word(a2_21, "s1 s2 s1")
        assert g.distances_from(r2r1)[r2] == 1
        assert g.distances_from(w0)[e] == 1

    def test_shortest_path_trivial(self, a2_21):
        g = a2_21.graph
        p = shortest_path(g, 2, 2)
        assert p.length == 0 and p.vertices == (2,)

    def test_shortest_path_examples(self, a2_21):
        g = a2_21.graph
        r1, r2r1 = vertex_by_word(a2_21, "s1"), vertex_by_word(a2_21, "s2 s1")
        p = shortest_path(g, r2r1, r1)
        assert p.length == 1 and p.quantum == (False,)
        assert g.rs.positive_roots[p.labels[0]] == (1, 1)
        e, w0 = vertex_by_word(a2_21, "e"), vertex_by_word(a2_21, "s1 s2 s1")
        q = shortest_path(g, e, w0)
        assert q.length == 1 and q.quantum == (True,)
        assert g.rs.positive_roots[q.labels[0]] == (1, 1)

    @pytest.mark.parametrize("fixture", ["a2_21", "c2_11", "a3_010"])
    def test_shortest_paths_validate(self, fixture, request):
        g = request.getfixturevalue(fixture).graph
        for x in range(g.num_vertices):
            for y in range(g.num_vertices):
                p = shortest_path(g, x, y)
                assert p.length == g.distances_from(y)[x]
                assert p.vertices[0] == x and p.vertices[-1] == y
                validate_path(g, p)


class TestTieBreak:
    """A path is read back from x, each step over the least (predecessor, label) that stays shortest.

    D4 (0,1,0,0) is where this rule and a BFS's first-discovery edges part: on 9 of its 1,152 (x, y, q) triples.
    """

    @pytest.mark.parametrize("fixture", ["a2_21", "c2_11", "a3_010", "d4_0100"])
    def test_paths_match_reference_search(self, fixture, request):
        g = request.getfixturevalue(fixture).graph
        n = g.num_vertices
        for y in range(n):
            for x in range(n):
                assert shortest_path(g, x, y) == least_shortest_path(g, x, y, F(1))
        for sigma in sigma_candidates(g):
            for y in range(n):
                for x in range(n):
                    ref = least_shortest_path(g, x, y, sigma)
                    res = g.sigma_path(x, y, sigma)
                    assert res.path == ref
                    assert res.shortest == (ref is not None and ref.length == g.distances_from(y)[x])


class TestWeights:
    def test_bruhat_path_weight_zero(self, a2_21):
        g = a2_21.graph
        r1, r2r1 = vertex_by_word(a2_21, "s1"), vertex_by_word(a2_21, "s2 s1")
        p = shortest_path(g, r2r1, r1)
        assert path_weight(g, p) == (0, 0)

    def test_quantum_edge_weight(self, a2_21):
        g = a2_21.graph
        r2, r2r1 = vertex_by_word(a2_21, "s2"), vertex_by_word(a2_21, "s2 s1")
        p = shortest_path(g, r2, r2r1)
        assert p.quantum == (True,)
        assert path_weight(g, p) == (1, 0)

    def test_empty_weight(self, a2_21):
        g = a2_21.graph
        assert path_weight(g, shortest_path(g, 0, 0)) == (0, 0)

    @pytest.mark.parametrize("fixture", ["a2_21", "c2_11"])
    def test_weights_nonnegative(self, fixture, request):
        g = request.getfixturevalue(fixture).graph
        for x in range(g.num_vertices):
            for y in range(g.num_vertices):
                w = path_weight(g, shortest_path(g, x, y))
                assert all(c >= 0 for c in w)


class TestSigmaPaths:
    def test_third_paths(self, a2_21):
        g, lam = a2_21.graph, a2_21.shape.multiplicities
        r2r1, r1 = vertex_by_word(a2_21, "s2 s1"), vertex_by_word(a2_21, "s1")
        res = g.sigma_path(r2r1, r1, F(1, 3))
        assert res.path is not None and res.shortest
        assert g.rs.positive_roots[res.path.labels[0]] == (1, 1)
        assert F(1, 3) * pair(lam, g.rs.positive_coroots[g.rs.highest_root]) == 1

    def test_half_paths(self, a2_21):
        g = a2_21.graph
        r1, e = vertex_by_word(a2_21, "s1"), vertex_by_word(a2_21, "e")
        res = g.sigma_path(r1, e, F(1, 2))
        assert res.path is not None and res.shortest
        assert g.rs.positive_roots[res.path.labels[0]] == (1, 0)

    def test_trivial(self, a2_21):
        g = a2_21.graph
        res = g.sigma_path(3, 3, F(1, 2))
        assert res.path is not None and res.path.length == 0 and res.shortest

    def test_sigma_out_of_range(self, a2_21):
        g = a2_21.graph
        with pytest.raises(ValueError):
            g.sigma_path(0, 1, F(3, 2))
        with pytest.raises(ValueError):
            g.sigma_path(0, 1, F(0))

    def test_inadmissible_pair(self, a2_21):
        # at sigma = 1/2 only the alpha_1-labeled edges survive, so nothing
        # reaches a vertex whose only incoming edges carry other labels
        g = a2_21.graph
        e, r2 = vertex_by_word(a2_21, "e"), vertex_by_word(a2_21, "s2")
        res = g.sigma_path(r2, e, F(1, 2))
        assert res.path is None and not res.shortest


class TestAllPaths:
    def test_empty_case(self, a2_21):
        g = a2_21.graph
        paths = all_paths_up_to(g, 4, 4, max_len=0)
        assert len(paths) == 1 and paths[0].length == 0

    def test_contains_short_and_long(self, a2_21):
        g = a2_21.graph
        e, w0 = vertex_by_word(a2_21, "e"), vertex_by_word(a2_21, "s1 s2 s1")
        paths = all_paths_up_to(g, e, w0, max_len=3)
        lengths = sorted(p.length for p in paths)
        assert lengths[0] == 1 and lengths[-1] == 3
        short = [p for p in paths if p.length == 1]
        assert len(short) == 1 and short[0].quantum == (True,)

    def test_single_step(self, a2_21):
        g = a2_21.graph
        r2, r2r1 = vertex_by_word(a2_21, "s2"), vertex_by_word(a2_21, "s2 s1")
        paths = all_paths_up_to(g, r2, r2r1, max_len=1)
        assert len(paths) == 1

    def test_all_found_are_valid(self, a2_21):
        g = a2_21.graph
        for p in all_paths_up_to(g, 0, 5, max_len=4):
            validate_path(g, p)

    def test_cap_raises(self, a2_21):
        g = a2_21.graph
        with pytest.raises(PathEnumerationCap):
            all_paths_up_to(g, 0, 5, max_len=12, cap=50)


class TestWellDefinedness:
    """Shortest admissible paths between a fixed pair carry one pairing value."""

    @pytest.mark.parametrize("fixture", ["a2_21", "c2_11"])
    def test_equal_weights_and_minimality(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        g, lam = ctx.graph, ctx.shape.multiplicities

        J = sorted(g.J)
        for sigma in sigma_candidates(g):
            for x in range(g.num_vertices):
                for y in range(g.num_vertices):
                    best = shortest_sigma_paths(g, x, y, sigma)
                    if not best or best[0].length != g.distances_from(y)[x]:
                        continue
                    values = {pair(lam, path_weight(g, p)) for p in best}
                    assert len(values) == 1
                    ref = path_weight(g, best[0])
                    for p in best:
                        diff = tuple(a - b for a, b in zip(path_weight(g, p), ref))
                        support = {i + 1 for i, c in enumerate(diff) if c}
                        assert support <= set(J)
                    floor = values.pop()
                    for p in all_paths_up_to(g, x, y, sigma=sigma, max_len=best[0].length + 3):
                        assert pair(lam, path_weight(g, p)) >= floor


class TestShortestSigmaPaths:
    """Cross-validate the shortest-path enumerator against exhaustive walks."""

    @pytest.mark.parametrize("fixture", ["a2_21", "c2_11"])
    def test_agrees_with_exhaustive_enumeration(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        g = ctx.graph

        for sigma in sigma_candidates(g):
            for x in range(g.num_vertices):
                for y in range(g.num_vertices):
                    fast = shortest_sigma_paths(g, x, y, sigma)
                    sdist = g.sigma_distances_from(y, sigma)[x]
                    if sdist < 0:
                        assert fast == []
                        continue
                    brute = [
                        p
                        for p in all_paths_up_to(g, x, y, max_len=sdist, sigma=sigma)
                        if p.length == sdist
                    ]
                    assert sorted(fast, key=lambda p: p.vertices) == sorted(
                        brute, key=lambda p: p.vertices
                    )


class TestDot:
    def test_deterministic_and_styled(self, a2_21):
        g = a2_21.graph
        dot = g.to_dot()
        assert dot == g.to_dot()
        assert dot.startswith("digraph")
        assert 'style="dashed"' in dot
        assert "[3]" in dot  # the highest-root pairing annotation
