"""Quantum LS path enumeration and evaluation."""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qbruhat.qls as qls_mod
from conftest import (
    REFERENCE_SHAPES,
    cached_context,
    evaluate,
    is_hat_path,
    is_tilde_path,
    path_from_json,
    reference_search,
    reference_successors,
    reference_walk,
    type_group,
    vertex_by_word,
)
from qbruhat import build_context
from qbruhat.cli import parse_path_literal
from qbruhat.qls import (
    DEFAULT_CAP,
    EnumerationCap,
    Listing,
    QLSPath,
    _successors,
    _walk,
    enumerate_hat,
    enumerate_tilde,
    path_listing,
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


_DEGREE_SHAPES = [("D4", (1, 1, 1, 1)), ("G2", (2, 2)), ("B3", (2, 1, 1)), ("A3", (2, 2, 2))]
DEGREE_SHAPES = pytest.mark.parametrize(
    "name,mults", _DEGREE_SHAPES, ids=[f"{n}-{','.join(map(str, m))}" for n, m in _DEGREE_SHAPES]
)


class TestSuccessorTables:
    """The strong and weak successor tables, from the sparse per-denominator searches, equal the tables of
    one full BFS row per source and denominator, list for list."""

    @staticmethod
    def assert_tables_match(g):
        candidates = sigma_candidates(g)
        strong, weak = reference_successors(g, candidates)
        assert _successors(g, candidates, True) == strong
        assert _successors(g, candidates, False) == weak

    @REFERENCE_SHAPES
    def test_reference_shapes(self, name, mults):
        self.assert_tables_match(cached_context(name, mults).graph)

    @DEGREE_SHAPES  # the shapes of the benchmark's degree tables
    def test_degree_shapes(self, name, mults):
        self.assert_tables_match(cached_context(name, mults).graph)

    @DEGREE_SHAPES
    def test_single_queries_without_layers(self, name, mults):
        # asked one source at a time, with no reach layer built, the searches
        # decide strongness from the whole-graph BFS of each source: the
        # tables do not change
        g = build_context(name, mults).graph
        candidates = sigma_candidates(g)
        n = g.num_vertices
        strong = [[[] for _ in range(n)] for _ in candidates]
        weak = [[[] for _ in range(n)] for _ in candidates]
        for sigma, strong_table, weak_table in zip(candidates, strong, weak):
            for y in range(n):
                for x, energy in g.segment_energies(y, sigma).items():
                    if x != y:
                        strong_table[x].append((y, energy))
                for x in g.sigma_distances_from(y, sigma):
                    if x != y:
                        weak_table[x].append((y, None))
        assert (strong, weak) == reference_successors(g, candidates) and g._layers is None

    def test_energies_are_read_only(self, a2_21):
        # the memoised energies every later table reads cannot be changed through the public query
        energies = a2_21.graph.segment_energies(0, F(1, 2))
        with pytest.raises(TypeError):
            energies[0] = 1

    @DEGREE_SHAPES
    def test_distances_are_read_only_views(self, name, mults):
        # the weak query is a read-only mapping over one search, like the energies: its items are the
        # q-distances of the reached x, the source included, and an x out of reach is no key
        g = cached_context(name, mults).graph
        for q in sorted({sigma.denominator for sigma in sigma_candidates(g)}):
            sigma = F(1, q)
            for y in range(g.num_vertices):
                dist = g.sigma_distances_from(y, sigma)
                assert isinstance(dist, Mapping)
                assert dict(dist) == {x: d for x, d in enumerate(reference_search(g, y, q)[0]) if d >= 0}
        with pytest.raises(TypeError):
            dist[y] = 1

    @DEGREE_SHAPES
    def test_weak_tables_add_no_search(self, name, mults):
        # the weak tables read the searches the strong ones made: one search per (source, denominator)
        g = build_context(name, mults).graph
        candidates = sigma_candidates(g)
        _successors(g, candidates, True)
        searched = set(g._segment_cache)
        _successors(g, candidates, False)
        assert set(g._segment_cache) == searched


# above this many paths (A5, B4, C4, D5 and F4 regular) the walks are compared by their refusal of the cap
WALK_CAP = 20_000


def walk_records(g, strong: bool, cap: int) -> tuple[tuple[F, ...], list[tuple]]:
    """``qls._walk`` read as the records (dirs, candidate indices, energies) of ``reference_walk``, through the
    directions and schedules of ``Listing.level_records``; its levels' columns must have one length each."""
    candidates, levels = _walk(g, strong, cap)
    assert all(len(set(map(len, level))) == 1 for level in levels)
    listing = Listing(candidates, levels, [], [])
    rows = [row for columns in listing.level_records() for row in zip(*columns)]
    return candidates, [(dirs, schedule[::2], schedule[1::2]) for dirs, schedule in rows]


def assert_walk_matches_reference(g):
    """``qls._walk`` equals the depth-first reference record for record, for both variants, and every
    level of it is sorted on (dirs, indices); a shape with more than ``WALK_CAP`` paths is refused alike."""
    for strong in (True, False):
        try:
            expected = reference_walk(g, strong, WALK_CAP)
        except EnumerationCap as exc:
            with pytest.raises(EnumerationCap) as info:
                _walk(g, strong, WALK_CAP)
            assert str(info.value) == str(exc) == f"more than {WALK_CAP} paths"
            continue
        candidates, found = walk_records(g, strong, WALK_CAP)
        assert (candidates, found) == expected
        sizes = [len(dirs) for dirs, _, _ in found]
        assert sizes == sorted(sizes)
        assert [len(level.y) for level in _walk(g, strong, WALK_CAP)[1]] == [sizes.count(k) for k in sorted(set(sizes))]
        for size in set(sizes):
            level = [(dirs, idx) for dirs, idx, _ in found if len(dirs) == size]
            assert level == sorted(level)


class TestWalk:
    @REFERENCE_SHAPES
    def test_reference_shapes(self, name, mults):
        assert_walk_matches_reference(cached_context(name, mults).graph)

    @DEGREE_SHAPES
    def test_ties_across_parents_kept_in_generation_order(self, name, mults):
        # a level is sorted on (parent's directions, y) alone; rows from different parent rows tie on it, and
        # only the order they are generated in, parent row by parent row, puts them in the order of their indices
        g = cached_context(name, mults).graph
        candidates, levels = _walk(g, True, WALK_CAP)
        dir_levels = [dirs for dirs, _ in Listing(candidates, levels, [], []).level_records()]
        ties = 0
        for dirs, level in zip(dir_levels, levels[1:]):
            first: dict[tuple, int] = {}
            ties += sum(first.setdefault((dirs[p], y), p) != p for p, y in zip(level.parent, level.y))
        assert ties > 0
        assert_walk_matches_reference(g)

    @pytest.mark.parametrize("cap", [0, 7, 8, 12, 16, 20, 24, 26, 27])
    def test_cap_boundary_per_level(self, a2_21, cap):
        # A2 (2,1) has 27 paths; the count is checked while a level grows, and a cap below any count is
        # refused with the same message as the reference's
        g = a2_21.graph
        try:
            expected = reference_walk(g, True, cap)
        except EnumerationCap as exc:
            with pytest.raises(EnumerationCap, match=f"^{exc}$"):
                _walk(g, True, cap)
        else:
            assert walk_records(g, True, cap) == expected and cap == 27

    @pytest.mark.parametrize("cap", [1_000, 5_000])
    def test_cap_checked_while_a_level_grows(self, monkeypatch, cap):
        # D4 (1,1,1,1) has 14,848 paths; the size of a level is known from its parents' successor lists before
        # any of its rows is built, so a refused walk builds levels of at most the cap rows together, and reads
        # the successors of those rows alone: twice each, once for the parent column and once for the steps
        read, built = [], []
        real_suffixes, real_level = qls_mod._suffix_lists, qls_mod.Level

        class Counting(list):
            def __iter__(self):
                read.append(len(self))
                return super().__iter__()

        def counting(succ, m):
            return [[Counting(tail) for tail in tails] for tails in real_suffixes(succ, m)]

        def level(*columns):
            built.append(len(columns[1]))
            return real_level(*columns)

        monkeypatch.setattr(qls_mod, "_suffix_lists", counting)
        monkeypatch.setattr(qls_mod, "Level", level)
        g = cached_context("D4", (1, 1, 1, 1)).graph
        with pytest.raises(EnumerationCap, match=f"^more than {cap} paths$"):
            _walk(g, True, cap)
        assert built[0] == g.num_vertices and sum(built) <= cap
        assert sum(read) <= 2 * (sum(built) - g.num_vertices)


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

    def test_hat_and_tilde_share_times(self):
        # both walks read the graph's one memoised candidate tuple, so equal paths hold the same Fraction
        # objects and comparing them takes the identity shortcut instead of Fraction.__eq__
        g = build_context("A2", (2, 1)).graph
        hat, tilde = enumerate_hat(g), enumerate_tilde(g)
        candidates = sigma_candidates(g)
        assert candidates is sigma_candidates(g)
        inner = [(p.times[1:-1], q.times[1:-1]) for p, q in zip(hat, tilde)]
        assert len(hat) == len(tilde) and any(a for a, _ in inner)
        assert all(x is y and any(x is c for c in candidates) for a, b in inner for x, y in zip(a, b, strict=True))

    @pytest.mark.parametrize("name,mults", [("G2", (2, 2)), ("D4", (1, 1, 1, 1))], ids=["G2-2,2", "D4-1,1,1,1"])
    @pytest.mark.parametrize("strong", [True, False], ids=["hat", "tilde"])
    def test_one_times_tuple_per_index_tuple(self, name, mults, strong):
        # the paths are read from the walk's records: the paths of a level with one candidate index tuple share
        # one times tuple, whatever their energies, and its internal times are the candidates themselves
        g = cached_context(name, mults).graph
        paths = (enumerate_hat if strong else enumerate_tilde)(g)
        candidates = {id(c) for c in sigma_candidates(g)}
        assert all(id(t) in candidates for p in paths for t in p.times[1:-1])
        indices = [{s[0::2] for s in level} for _, level in path_listing(g, strong, DEFAULT_CAP).level_records()]
        times: list[set[int]] = [set() for _ in indices]
        for p in paths:
            times[len(p.directions) - 1].add(id(p.times))
        assert list(map(len, times)) == list(map(len, indices)) and len(paths) > sum(map(len, indices))

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
