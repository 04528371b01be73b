"""Graph construction, distances, paths, weights, admissibility."""

from __future__ import annotations

from collections import deque
from fractions import Fraction as F

import pytest

from conftest import PathEnumerationCap, all_paths_up_to, shortest_sigma_paths, validate_path, vertex_by_word
from qbruhat.cartan import pair
from qbruhat.qbg import PQBG, DirectedPath
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


def reference_bfs_tree(g, y, allowed):
    """Parent edges of a BFS from y over the labels in ``allowed`` (None: all), first discovery wins."""
    parent = {}
    seen = {y}
    dq = deque([y])
    while dq:
        v = dq.popleft()
        for e in g.out_edges[v]:
            if allowed is not None and e.label not in allowed:
                continue
            if e.target not in seen:
                seen.add(e.target)
                parent[e.target] = e
                dq.append(e.target)
    return parent


def reference_path(x, y, parent):
    """The path from y to x along ``reference_bfs_tree`` parents, or None."""
    if x == y:
        return DirectedPath((x,), (), ())
    if x not in parent:
        return None
    vertices, labels, quantum = [x], [], []
    while x != y:
        e = parent[x]
        labels.append(e.label)
        quantum.append(e.quantum)
        x = e.source
        vertices.append(x)
    return DirectedPath(tuple(vertices), tuple(labels), tuple(quantum))


def edge_set(g):
    return {
        (g.vertex_name(e.source), g.vertex_name(e.target), g.rs.positive_roots[e.label].coords, e.kind)
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
        labels = {g.rs.positive_roots[i].coords for i in g.labels}
        assert labels == {(1, 0), (1, 1)}
        # independent recomputation of the edge conditions over all candidate pairs
        group, cs, rs = g.group, g.cs, g.rs
        two_rho_diff = [0] * rs.rank
        for i in g.labels:
            for k, v in enumerate(rs.root_weight_coords[i]):
                two_rho_diff[k] += v
        expected = set()
        for rep in cs.reps:
            for i in g.labels:
                t = cs.project(group.mul(rep, group.reflection(i)))
                drop = sum(a * b for a, b in zip(two_rho_diff, rs.positive_coroots[i].coords))
                if group.length(t) == group.length(rep) + 1:
                    expected.add((group.word_name(rep), group.word_name(t), rs.positive_roots[i].coords, "bruhat"))
                elif group.length(t) == group.length(rep) - drop + 1:
                    expected.add((group.word_name(rep), group.word_name(t), rs.positive_roots[i].coords, "quantum"))
        assert edge_set(g) == expected
        assert len(g.edges) == 3

    def test_rho_j(self, a2_21, a2_10):
        from fractions import Fraction

        assert a2_21.graph.rho_J == (Fraction(0), Fraction(0))
        # half the positive subsystem root: alpha_2 / 2 = (-1/2, 1)
        assert a2_10.graph.rho_J == (Fraction(-1, 2), Fraction(1))

    @pytest.mark.parametrize("fixture", ["a2_21", "a2_10", "c2_11", "a3_010", "a1_1"])
    def test_strong_connectivity_and_uniqueness(self, fixture, request):
        g = request.getfixturevalue(fixture).graph
        seen = set()
        for e in g.edges:
            assert (e.source, e.label) not in seen
            seen.add((e.source, e.label))
        for x in range(g.num_vertices):
            for y in range(g.num_vertices):
                assert g.directed_distance(x, y) >= 0

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
            PQBG(a2_21.shape, a2_21.cs)


class TestDistances:
    def test_reflexive(self, a2_21):
        g = a2_21.graph
        for v in range(g.num_vertices):
            assert g.directed_distance(v, v) == 0

    def test_quantum_shortcut(self, a2_21):
        g = a2_21.graph
        r2, r2r1 = vertex_by_word(a2_21, "s2"), vertex_by_word(a2_21, "s2 s1")
        e, w0 = vertex_by_word(a2_21, "e"), vertex_by_word(a2_21, "s1 s2 s1")
        assert g.directed_distance(r2, r2r1) == 1
        assert g.directed_distance(e, w0) == 1

    def test_shortest_path_trivial(self, a2_21):
        g = a2_21.graph
        p = g.shortest_path(2, 2)
        assert p.length == 0 and p.vertices == (2,)

    def test_shortest_path_examples(self, a2_21):
        g = a2_21.graph
        r1, r2r1 = vertex_by_word(a2_21, "s1"), vertex_by_word(a2_21, "s2 s1")
        p = g.shortest_path(r2r1, r1)
        assert p.length == 1 and p.quantum == (False,)
        assert g.rs.positive_roots[p.labels[0]].coords == (1, 1)
        e, w0 = vertex_by_word(a2_21, "e"), vertex_by_word(a2_21, "s1 s2 s1")
        q = g.shortest_path(e, w0)
        assert q.length == 1 and q.quantum == (True,)
        assert g.rs.positive_roots[q.labels[0]].coords == (1, 1)

    @pytest.mark.parametrize("fixture", ["a2_21", "c2_11", "a3_010"])
    def test_shortest_paths_validate(self, fixture, request):
        g = request.getfixturevalue(fixture).graph
        for x in range(g.num_vertices):
            for y in range(g.num_vertices):
                p = g.shortest_path(x, y)
                assert p.length == g.directed_distance(x, y)
                assert p.vertices[0] == x and p.vertices[-1] == y
                validate_path(g, p)


class TestTieBreak:
    """Paths follow the first-discovery edges of a BFS; lift chains depend on this choice."""

    @pytest.mark.parametrize("fixture", ["a2_21", "c2_11", "a3_010"])
    def test_paths_match_reference_search(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        g = ctx.graph
        values = g.pairings
        n = g.num_vertices
        for y in range(n):
            tree = reference_bfs_tree(g, y, None)
            for x in range(n):
                assert g.shortest_path(x, y) == reference_path(x, y, tree)
        for sigma in sigma_candidates(g):
            allowed = {i for i in g.labels if values[i] % sigma.denominator == 0}
            for y in range(n):
                tree = reference_bfs_tree(g, y, allowed)
                for x in range(n):
                    ref = reference_path(x, y, tree)
                    res = g.sigma_path(x, y, sigma)
                    assert res.path == ref
                    assert res.shortest == (ref is not None and ref.length == g.directed_distance(x, y))


class TestWeights:
    def test_bruhat_path_weight_zero(self, a2_21):
        g = a2_21.graph
        r1, r2r1 = vertex_by_word(a2_21, "s1"), vertex_by_word(a2_21, "s2 s1")
        p = g.shortest_path(r2r1, r1)
        assert g.path_weight(p).coords == (0, 0)

    def test_quantum_edge_weight(self, a2_21):
        g = a2_21.graph
        r2, r2r1 = vertex_by_word(a2_21, "s2"), vertex_by_word(a2_21, "s2 s1")
        p = g.shortest_path(r2, r2r1)
        assert p.quantum == (True,)
        assert g.path_weight(p).coords == (1, 0)

    def test_empty_weight(self, a2_21):
        g = a2_21.graph
        assert g.path_weight(g.shortest_path(0, 0)).coords == (0, 0)

    @pytest.mark.parametrize("fixture", ["a2_21", "c2_11"])
    def test_weights_nonnegative(self, fixture, request):
        g = request.getfixturevalue(fixture).graph
        for x in range(g.num_vertices):
            for y in range(g.num_vertices):
                w = g.path_weight(g.shortest_path(x, y))
                assert all(c >= 0 for c in w.coords)


class TestSigmaPaths:
    def test_third_paths(self, a2_21):
        g, lam = a2_21.graph, a2_21.shape.classical
        r2r1, r1 = vertex_by_word(a2_21, "s2 s1"), vertex_by_word(a2_21, "s1")
        res = g.sigma_path(r2r1, r1, F(1, 3))
        assert res.path is not None and res.shortest
        assert g.rs.positive_roots[res.path.labels[0]].coords == (1, 1)
        assert F(1, 3) * pair(lam, g.rs.theta_coroot) == 1

    def test_half_paths(self, a2_21):
        g = a2_21.graph
        r1, e = vertex_by_word(a2_21, "s1"), vertex_by_word(a2_21, "e")
        res = g.sigma_path(r1, e, F(1, 2))
        assert res.path is not None and res.shortest
        assert g.rs.positive_roots[res.path.labels[0]].coords == (1, 0)

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
        g, lam = ctx.graph, ctx.shape.classical

        J = sorted(g.J)
        for sigma in sigma_candidates(g):
            for x in range(g.num_vertices):
                for y in range(g.num_vertices):
                    best = shortest_sigma_paths(g, x, y, sigma)
                    if not best or best[0].length != g.directed_distance(x, y):
                        continue
                    values = {pair(lam, g.path_weight(p)) for p in best}
                    assert len(values) == 1
                    ref = g.path_weight(best[0]).coords
                    for p in best:
                        diff = tuple(a - b for a, b in zip(g.path_weight(p).coords, ref))
                        support = {i + 1 for i, c in enumerate(diff) if c}
                        assert support <= set(J)
                    floor = values.pop()
                    for p in all_paths_up_to(g, x, y, sigma=sigma, max_len=best[0].length + 3):
                        assert pair(lam, g.path_weight(p)) >= floor


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
