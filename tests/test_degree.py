"""Degree formula, affine lifts, endpoint bookkeeping."""

from __future__ import annotations

from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qbruhat.degree as degree_mod
from conftest import cached_context, distances_to, path_sort_key, reference_search, segment_chains, vertex_by_word
from qbruhat import build_context
from qbruhat.affine_oracle import AffineOrbitElement
from qbruhat.cli import main
from qbruhat.degree import (
    AffineLSPath,
    InvalidQLSPath,
    NonIntegralDegree,
    _degree_of,
    _exact,
    TABLE_HEADER,
    degree,
    degree_lines,
    degree_table,
    endpoint_delta,
    lift,
    segment_energy,
    table_line,
)
from qbruhat.qbg import PQBG
from qbruhat.qls import (
    DEFAULT_CAP,
    EnumerationCap,
    Listing,
    QLSPath,
    _structure_ok,
    candidate_times,
    enumerate_hat,
    enumerate_tilde,
    path_listing,
    sigma_candidates,
    time_ticks,
)
from test_qls import assert_walk_matches_reference, example_paths


class TestGolden:
    def test_known_degrees(self, a2_21):
        g = a2_21.graph
        eta1, eta2, eta3 = example_paths(a2_21)
        assert degree(eta1, g) == -1
        assert degree(eta2, g) == -1
        assert degree(eta3, g) == -2

    def test_straight_zero(self, a2_21):
        g = a2_21.graph
        for v in range(g.num_vertices):
            assert degree(QLSPath((v,), (F(0), F(1))), g) == 0


class TestSegmentEnergy:
    def test_quantum_segment(self, a2_21):
        g = a2_21.graph
        r2r1, r2 = vertex_by_word(a2_21, "s2 s1"), vertex_by_word(a2_21, "s2")
        path = g.sigma_path(r2, r2r1, F(1, 2)).path
        assert segment_energy(g, r2r1, r2, F(1, 2)) == 2 and path.length == 1 and path.quantum == (True,)

    def test_bruhat_segment(self, a2_21):
        g = a2_21.graph
        r1, r2r1 = vertex_by_word(a2_21, "s1"), vertex_by_word(a2_21, "s2 s1")
        path = g.sigma_path(r2r1, r1, F(2, 3)).path
        assert segment_energy(g, r1, r2r1, F(2, 3)) == 0 and path.quantum == (False,)

    def test_degenerate_equal_pair(self, a2_21):
        g = a2_21.graph
        assert segment_energy(g, 3, 3, F(1, 2)) == 0 and g.sigma_path(3, 3, F(1, 2)).path.length == 0

    def test_invalid_segment_raises(self, a2_21):
        g = a2_21.graph
        e, r2 = vertex_by_word(a2_21, "e"), vertex_by_word(a2_21, "s2")
        with pytest.raises(InvalidQLSPath):
            segment_energy(g, e, r2, F(1, 2))

    def test_perturbed_energy_raises(self):
        # the energy of the sigma-admissible tree must equal the one read back
        # along a shortest path of the whole graph wherever the tree path is
        # shortest too; a fresh graph, so that no search of denominator 2 has
        # run yet
        ctx = build_context("A2", (2, 1))
        g = ctx.graph
        r2r1, r2 = vertex_by_word(ctx, "s2 s1"), vertex_by_word(ctx, "s2")
        assert distances_to(g, r2, 2)[r2r1] == g.distances_from(r2r1)[r2] == 1 and g._energy(r2r1, r2, 1) == 2
        g._energies[r2r1, r2] = 3
        with pytest.raises(RuntimeError, match="carry energies 3 and 2"):
            g.segment_energies(r2r1, F(1, 2))

    @pytest.mark.parametrize(
        "query,sigma",
        [
            # the segment_energies cases keep the ids they had before the other queries joined
            pytest.param(query, sigma, id=f"{prefix}sigma{k}")
            for query, prefix in [
                ("segment_energies", ""),
                ("sigma_path", "sigma_path-"),
                ("sigma_distances_from", "sigma_distances_from-"),
            ]
            for k, sigma in enumerate([F(3, 2), F(-1, 2), F(5, 2)])
        ],
    )
    def test_time_checked_on_a_warm_row(self, query, sigma):
        # the row of (source, denominator 2) is memoised first; a time
        # outside (0, 1) with the same denominator is still refused by every
        # sigma-taking query
        g = build_context("A2", (2, 1)).graph
        ask = {
            "segment_energies": lambda s: g.segment_energies(0, s),
            "sigma_path": lambda s: g.sigma_path(1, 0, s),
            "sigma_distances_from": lambda s: g.sigma_distances_from(0, s),
        }[query]
        ask(F(1, 2))
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            ask(sigma)


class TestLift:
    def test_straight(self, a2_21):
        g = a2_21.graph
        lifted = lift(QLSPath((2,), (F(0), F(1))), g)
        assert len(lifted.weights) == 1
        assert lifted.weights[0].vertex == 2 and lifted.weights[0].delta == 0
        assert segment_chains(g, QLSPath((2,), (F(0), F(1)))) == ()

    def test_eta1_deltas(self, a2_21):
        g = a2_21.graph
        eta1, _, eta3 = example_paths(a2_21)
        l1 = lift(eta1, g)
        assert [m.delta for m in l1.weights] == [0, 2, 2]
        assert [m.vertex for m in l1.weights] == list(eta1.directions)
        l3 = lift(eta3, g)
        assert [m.delta for m in l3.weights] == [0, 3, 3]

    def test_chains_interpolate(self, a2_21):
        g = a2_21.graph
        for eta in example_paths(a2_21):
            lifted = lift(eta, g)
            for p, chain in enumerate(segment_chains(g, eta)):
                assert chain[0] == lifted.weights[p]
                assert chain[-1] == lifted.weights[p + 1]
                for a, b in zip(chain, chain[1:]):
                    assert b.delta >= a.delta

    def test_endpoint_examples(self, a2_21):
        g = a2_21.graph
        eta1, _, eta3 = example_paths(a2_21)
        assert endpoint_delta(lift(eta1, g)) == 1
        assert endpoint_delta(lift(eta3, g)) == 2
        assert endpoint_delta(lift(QLSPath((0,), (F(0), F(1))), g)) == 0

    @pytest.mark.parametrize("deltas,total", [((0, 1), "1/2"), ((-2, 0), "-1")])
    def test_endpoint_not_a_nonnegative_integer(self, deltas, total):
        weights = tuple(AffineOrbitElement(v, d) for v, d in zip((0, 1), deltas))
        lifted = AffineLSPath(weights, (F(0), F(1, 2), F(1)))
        with pytest.raises(NonIntegralDegree, match=f"^endpoint delta {total} is not a nonnegative integer$"):
            endpoint_delta(lifted)


class TestInvariants:
    @pytest.mark.parametrize("fixture", ["a2_21", "a2_11", "c2_11", "a3_010"])
    def test_degree_is_minus_endpoint(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        g = ctx.graph
        for eta in enumerate_hat(g):
            d = degree(eta, g)
            lifted = lift(eta, g)
            assert d <= 0
            assert endpoint_delta(lifted) == -d
            energies = [
                lifted.weights[p + 1].delta - lifted.weights[p].delta
                for p in range(len(lifted.weights) - 1)
            ]
            assert (d == 0) == all(x == 0 for x in energies)

    @pytest.mark.parametrize("fixture", ["a2_21", "c2_11"])
    def test_lift_keeps_directions_and_times(self, fixture, request):
        # the lift raises each direction in place: its classical part at any
        # time is the path's own, so only its vertices and times can go wrong
        ctx = request.getfixturevalue(fixture)
        g = ctx.graph
        for eta in enumerate_hat(g):
            lifted = lift(eta, g)
            assert tuple(w.vertex for w in lifted.weights) == eta.directions
            assert lifted.times == eta.times

    def test_cache_consistency(self, a2_21):
        # degrees computed while a fresh graph fills its energy rows equal
        # those read back from the rows, and those of the shared graph
        g = build_context("A2", (2, 1)).graph
        cold = {eta: degree(eta, g) for eta in enumerate_hat(g)}
        warm = {eta: degree(eta, g) for eta in cold}
        shared = {eta: degree(eta, a2_21.graph) for eta in cold}
        assert cold == warm == shared


class TestErrors:
    def test_rejects_non_hat_times(self, a2_21):
        g = a2_21.graph
        e, w0 = vertex_by_word(a2_21, "e"), vertex_by_word(a2_21, "s1 s2 s1")
        with pytest.raises(InvalidQLSPath):
            degree(QLSPath((e, w0), (F(0), F(1, 5), F(1))), g)

    def test_rejects_bad_structure(self, a2_21):
        g = a2_21.graph
        with pytest.raises(InvalidQLSPath):
            degree(QLSPath((0, 0), (F(0), F(1, 2), F(1))), g)
        with pytest.raises(InvalidQLSPath):
            degree(QLSPath((0, 1), (F(0), F(1))), g)
        with pytest.raises(InvalidQLSPath):
            degree(QLSPath((0,), (F(0), F(1, 2))), g)

    def test_table_refuses_another_shape(self, a2_11, a2_21):
        # both shapes have J = {}, so the graphs agree vertex for vertex; the
        # table still takes only the graph's own shape
        with pytest.raises(ValueError, match="own shape"):
            degree_table(a2_11.shape, a2_21.graph, enumerate_hat(a2_11.graph))


# The Fraction forms of the structure check and the degree sum that the
# integer-tick versions in qbruhat.qls and qbruhat.degree replaced; kept
# here as references the tick versions must match exactly.


def _reference_structure_ok(g, path: QLSPath) -> bool:
    dirs, times = path.directions, path.times
    if len(times) != len(dirs) + 1 or not dirs:
        return False
    if times[0] != 0 or times[-1] != 1:
        return False
    if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
        return False
    if any(not 0 <= v < g.num_vertices for v in dirs):
        return False
    return all(a != b for a, b in zip(dirs, dirs[1:]))


def _reference_degree_of(segments) -> int:
    total = F(0)
    for sigma, energy in segments:
        total += (1 - sigma) * energy
    if total.denominator != 1 or total < 0:
        raise NonIntegralDegree(f"degree sum {total} is not a nonpositive integer")
    return -int(total)


def _reference_segments(path: QLSPath, g) -> list[tuple[F, int]]:
    """(sigma, energy) per turning point."""
    if not _reference_structure_ok(g, path):
        raise InvalidQLSPath("structurally invalid")
    return [(sigma, segment_energy(g, x_next, x_cur, sigma)) for x_cur, x_next, sigma in path.turning_points()]


def _reference_table(g, paths) -> list[dict]:
    rows = []
    for path in sorted(paths, key=path_sort_key):
        segs = _reference_segments(path, g)
        rows.append(
            {
                "dirs": [" ".join(f"s{j}" for j in g.words[v]) or "e" for v in path.directions],
                "times": [str(t) for t in path.times],
                "energies": [energy for _, energy in segs],
                "deg": _reference_degree_of(segs),
            }
        )
    return rows


TICK_SHAPES = pytest.mark.parametrize(
    "name,mults",
    [("A2", (2, 1)), ("B2", (1, 1)), ("C2", (1, 1)), ("G2", (1, 1)), ("A3", (0, 1, 0)), ("B3", (1, 1, 1))],
    ids=lambda v: v if isinstance(v, str) else "".join(map(str, v)),
)


def _raised(fn, *args) -> tuple[type, str] | None:
    try:
        fn(*args)
    except (InvalidQLSPath, NonIntegralDegree) as exc:
        return type(exc), str(exc)
    return None


class TestTickEquivalence:
    @TICK_SHAPES
    def test_table_matches_reference(self, name, mults):
        ctx = cached_context(name, mults)
        paths = enumerate_hat(ctx.graph)
        assert degree_table(ctx.shape, ctx.graph, paths) == _reference_table(ctx.graph, paths)

    @TICK_SHAPES
    def test_enumerated_paths_pass_structure_check(self, name, mults):
        ctx = cached_context(name, mults)
        g = ctx.graph
        for path in enumerate_hat(g) + enumerate_tilde(g):
            assert _reference_structure_ok(g, path), path
            assert _structure_ok(g, path.directions, *time_ticks(path.times)), path

    @TICK_SHAPES
    def test_enumeration_in_canonical_order(self, name, mults):
        ctx = cached_context(name, mults)
        for enum in (enumerate_hat, enumerate_tilde):
            paths = enum(ctx.graph)
            assert list(paths) == sorted(set(paths), key=path_sort_key)

    @pytest.mark.parametrize(
        "words,times",
        [
            (("e", "s1"), (F(0), F(1, 7), F(1))),  # 7 divides no candidate denominator
            (("e", "s1 s2 s1"), (F(0), F(1, 5), F(1))),
            (("s1 s2 s1", "e", "s1"), (F(0), F(2, 3), F(1, 2), F(1))),  # times not increasing
            (("s1 s2 s1", "e"), (F(0), F(1, 2), F(1, 2), F(1))),  # repeated time
            (("s1 s2 s1", "e"), (F(1, 3), F(1, 2), F(1))),  # first time not 0
            (("s1 s2 s1", "e"), (F(0), F(1, 2), F(4, 3))),  # last time not 1
            (("s1", "s1"), (F(0), F(1, 2), F(1))),  # repeated direction
            (("s1",), (F(0), F(1, 2))),
            (("s1", "e"), (F(0), F(1))),
        ],
    )
    def test_external_path_errors_match_reference(self, a2_21, words, times):
        shape, g = a2_21.shape, a2_21.graph
        path = QLSPath(tuple(vertex_by_word(a2_21, w) for w in words), times)
        expected = _raised(lambda: _reference_degree_of(_reference_segments(path, g)))
        assert expected is not None
        assert _raised(degree, path, g) == expected
        # after every valid path has filled the energy rows, too
        assert _raised(degree_table, shape, g, enumerate_hat(g) + (path,)) == expected

    @pytest.mark.parametrize("sigma,energy", [(F(1, 2), 1), (F(1, 2), -2), (F(2, 3), 2), (F(1, 3), 3), (F(2, 5), 5)])
    def test_degree_sum_matches_reference(self, sigma, energy):
        path = QLSPath((0, 1), (F(0), sigma, F(1)))
        expected = _raised(_reference_degree_of, [(sigma, energy)])
        got = _raised(_degree_of, [energy], *time_ticks(path.times))
        assert got == expected
        if expected is None:
            assert _degree_of([energy], *time_ticks(path.times)) == _reference_degree_of([(sigma, energy)])


# degree_lines builds the table's rows inside the enumeration walk, whose
# strong successors come from the energy rows.  The reference enumeration
# reads the strong condition from the two distance rows instead.


def _reference_enumerate(g, strong: bool) -> tuple[QLSPath, ...]:
    candidates = sigma_candidates(g)

    def may_follow(x: int, y: int, sigma: F) -> bool:
        sdist = g.sigma_distances_from(y, sigma).get(x, -1)
        return sdist == g.distances_from(y)[x] if strong else sdist >= 0

    found = []

    def extend(dirs: tuple[int, ...], times: tuple[F, ...], last: int) -> None:
        found.append(QLSPath(dirs, (*times, F(1))))
        for si in range(last + 1, len(candidates)):
            for y in range(g.num_vertices):
                if y != dirs[-1] and may_follow(dirs[-1], y, candidates[si]):
                    extend((*dirs, y), (*times, candidates[si]), si)

    for start in range(g.num_vertices):
        extend((start,), (F(0),), -1)
    return tuple(sorted(found, key=path_sort_key))


def _drain(g, listing) -> None:
    """Run ``_walk_rows`` over a listing to its end, checking every level."""
    for _ in degree_mod._walk_rows(g, listing):
        pass


def _records(listing) -> list[tuple]:
    """The listing's rows as (dirs, candidate indices, energies), read back through the parent rows."""
    return [(d, s[::2], s[1::2]) for dirs, schedules in listing.level_records() for d, s in zip(dirs, schedules)]


def _with(listing, k: int, column: str, values: list):
    """The listing with one column of its level k replaced; the walk's own lists are left as they are."""
    levels = list(listing.levels)
    levels[k] = levels[k]._replace(**{column: values})
    return listing._replace(levels=levels)


def _set(listing, k: int, r: int, column: str, value):
    """The listing with the entry of row r of level k in ``column`` set to ``value``."""
    values = list(getattr(listing.levels[k], column))
    values[r] = value
    return _with(listing, k, column, values)


def _row_of(listing, dirs: tuple[int, ...], idx: tuple[int, ...]) -> int:
    """The row, within its level, of the path with these directions and candidate indices."""
    level_dirs, schedules = list(listing.level_records())[len(dirs) - 1]
    return next(r for r, (d, s) in enumerate(zip(level_dirs, schedules)) if (d, s[::2]) == (dirs, idx))


ROW_SHAPES = pytest.mark.parametrize(
    "name,mults",
    [
        ("A2", (2, 1)),
        ("B2", (1, 1)),
        ("C2", (1, 1)),
        ("G2", (1, 1)),
        ("G2", (2, 2)),
        ("A3", (0, 1, 0)),
        ("B3", (1, 1, 1)),
        ("D4", (0, 1, 0, 0)),
    ],
    ids=lambda v: v if isinstance(v, str) else "".join(map(str, v)),
)


class TestDegreeLines:
    @ROW_SHAPES
    def test_rows_equal_table(self, name, mults):
        g = cached_context(name, mults).graph
        paths = enumerate_hat(g)
        assert degree_lines(g, len(paths)) == [TABLE_HEADER, *map(table_line, degree_table(g.shape, g, paths))]

    @ROW_SHAPES
    def test_enumeration_unchanged(self, name, mults):
        # the strong successors now come from the energy rows; both variants
        # still list exactly the paths of the distance-row conditions
        g = cached_context(name, mults).graph
        hat, tilde = enumerate_hat(g), enumerate_tilde(g)
        assert hat == tilde == _reference_enumerate(g, True) == _reference_enumerate(g, False)

    @ROW_SHAPES
    def test_walk_equals_reference(self, name, mults):
        # level by level over suffix successor columns, record for record the depth-first walk and its sort
        assert_walk_matches_reference(cached_context(name, mults).graph)

    def test_structure_check_runs_on_every_row(self, monkeypatch, a2_21):
        # every level is checked before it is read; a level that fails the check is refused
        monkeypatch.setattr(degree_mod, "_level_ok", lambda *args: False)
        with pytest.raises(InvalidQLSPath, match="structurally invalid"):
            degree_lines(a2_21.graph, DEFAULT_CAP)

    def test_structure_message_names_words_and_times(self, a2_21):
        # the first failing row of a failing level is named as a path literal, by words and time texts, not
        # by vertex indices and a list repr
        g = a2_21.graph
        s1 = vertex_by_word(a2_21, "s1")
        listing = path_listing(g, True, 10**6)
        level = zip(*list(listing.level_records())[1])
        r = next(r for r, (dirs, schedule) in enumerate(level) if dirs[0] == s1 and schedule[::2] == (1,))
        with pytest.raises(InvalidQLSPath) as info:
            _drain(g, _set(listing, 1, r, "y", s1))
        assert str(info.value) == "invalid path 's1;s1|0,1/2,1': structurally invalid"

    def test_tick_half_names_the_row_as_a_literal(self, a2_21):
        # the half of the check that reads the candidate indices refuses an index that does not follow its
        # parent's, and names the row with the same literal as the direction half
        g = a2_21.graph
        s1, s2, s2s1 = (vertex_by_word(a2_21, word) for word in ("s1", "s2", "s2 s1"))
        listing = path_listing(g, True, 10**6)
        r = _row_of(listing, (s2, s2s1, s1), (1, 2))
        with pytest.raises(InvalidQLSPath) as info:
            _drain(g, _set(listing, 2, r, "i", 1))
        assert str(info.value) == "invalid path 's2;s2 s1;s1|0,1/2,1/2,1': structurally invalid"

    @staticmethod
    def _perturbed_graph():
        # a fresh graph whose whole-graph energies, read back along shortest
        # paths, carry one more unit everywhere off the diagonal, so that no
        # sigma-admissible tree agrees with them
        g = build_context("A2", (2, 1)).graph
        for y in range(g.num_vertices):
            for x, energy in enumerate(reference_search(g, y, 1)[1]):
                if x != y:
                    g._energies[y, x] = energy + 1
        return g

    def test_energy_check_runs_on_every_row_read(self):
        # a sigma-admissible tree that carries another energy than a shortest
        # path of the whole graph is refused while the walk reads the searches
        with pytest.raises(RuntimeError, match="carry energies"):
            degree_lines(self._perturbed_graph(), DEFAULT_CAP)

    def test_weak_listing_refuses_a_perturbed_energy(self):
        # the weak walk reads only distances, but they come from the same
        # per-denominator searches, whose energies are checked when they are built
        with pytest.raises(RuntimeError, match="carry energies"):
            enumerate_tilde(self._perturbed_graph())

    def test_exactness_check_runs_on_every_row(self, monkeypatch):
        # one more unit of energy on a segment at a/b moves the sum by b - a,
        # which L = b does not divide; the strong walk reads the sparse
        # energies of segment_energies
        real = PQBG.segment_energies

        def shifted(self, y, sigma):
            return {x: e + 1 for x, e in real(self, y, sigma).items()}

        g = build_context("A2", (2, 1)).graph
        monkeypatch.setattr(PQBG, "segment_energies", shifted)
        with pytest.raises(NonIntegralDegree):
            degree_lines(g, DEFAULT_CAP)

    @staticmethod
    def _checked_levels(monkeypatch, g) -> list:
        """The (level before, level) pairs that ``_level_ok`` reads while ``degree_lines`` runs."""
        checked = []
        real = degree_mod._level_ok

        def recording(n, c, before, level):
            checked.append((before, level))
            return real(n, c, before, level)

        monkeypatch.setattr(degree_mod, "_level_ok", recording)
        degree_lines(g, DEFAULT_CAP)
        return checked

    @ROW_SHAPES
    def test_structure_check_once_per_row(self, monkeypatch, name, mults):
        # the structure check reads each row once, inside its level: one call per number of directions, each
        # against the level before, and the levels checked, concatenated, are the rows in order
        g = cached_context(name, mults).graph
        checked = self._checked_levels(monkeypatch, g)
        levels = [level for _, level in checked]
        assert [before for before, _ in checked] == [None, *levels[:-1]]
        hat = [path.directions for path in enumerate_hat(g)]
        assert [len(level.y) for level in levels] == [list(map(len, hat)).count(k) for k in sorted(set(map(len, hat)))]
        assert [dirs for dirs, _, _ in _records(Listing((), levels, [], []))] == hat

    @ROW_SHAPES
    def test_index_check_once_per_level(self, monkeypatch, name, mults):
        # the time half reads the times through the candidate indices: each row's last index once, inside its
        # level, after its parent's passed; the index tuples read back from the levels checked are each row's
        g = cached_context(name, mults).graph
        candidates = sigma_candidates(g)
        levels = [level for _, level in self._checked_levels(monkeypatch, g)]
        idx = [i for _, i, _ in _records(Listing(candidates, levels, [], []))]
        assert [(F(0), *[candidates[j] for j in i], F(1)) for i in idx] == [path.times for path in enumerate_hat(g)]
        assert all(level.i == [-1] * len(level.y) for level in levels[:1])

    @ROW_SHAPES
    @pytest.mark.parametrize("route", ["degree_lines", "csv"])
    def test_degree_sum_once_per_level(self, capsys, monkeypatch, name, mults, route):
        # the exactness check reads each row's sum over L once, one level at a time; the sum is carried from
        # the parent row, and equals the sum of the row's own schedule, (times, energies), from scratch
        g = cached_context(name, mults).graph
        table = degree_table(g.shape, g, enumerate_hat(g))
        schedules = {(tuple(row["times"]), tuple(row["energies"])) for row in table}
        summed = []
        real = degree_mod._level_degrees

        def recording(L, sums):
            summed.append((L, list(sums)))
            return real(L, sums)

        monkeypatch.setattr(degree_mod, "_level_degrees", recording)
        if route == "degree_lines":
            degree_lines(g, DEFAULT_CAP)
        else:
            assert main(["degree", "--type", name, "--lambda", ",".join(map(str, mults)), "--format", "csv"]) == 0
            capsys.readouterr()
        L = summed[0][0]
        sums = [total for _, level in summed for total in level]
        expected = []
        for row in table:
            L_row, ticks = time_ticks([F(t) for t in row["times"]])
            expected.append(L // L_row * (L_row * sum(row["energies"]) - sum(map(mul, ticks[1:], row["energies"]))))
        assert len(table) > len(schedules) and sums == expected and {L} == {L for L, _ in summed}
        assert len(summed) == len({len(row["dirs"]) for row in table})

    @pytest.mark.parametrize("column", ["y", "i", "e"], ids=["direction", "time", "energy"])
    def test_failure_on_the_last_row_prints_nothing(self, capsys, monkeypatch, a2_21, column):
        # every row of the table is built before the first write, so a direction out of range, an index that
        # does not follow its parent's or an energy that breaks the degree's exactness on the last row of the
        # last level leaves stdout empty
        g = a2_21.graph
        listing = path_listing(g, True, 10**6)
        k, r = len(listing.levels) - 1, len(listing.levels[-1].y) - 1
        parent = listing.levels[k - 1].i[listing.levels[k].parent[r]]
        value = {"y": g.num_vertices, "i": parent, "e": listing.levels[k].e[r] + 1}[column]
        monkeypatch.setattr(degree_mod, "path_listing", lambda *args: _set(listing, k, r, column, value))
        with pytest.raises((InvalidQLSPath, NonIntegralDegree)):
            main(["degree", "--type", "A2", "--lambda", "2,1", "--format", "csv"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("name,mults", [("A2", (2, 1)), ("B2", (1, 1))])
    def test_cap_boundary(self, capsys, name, mults):
        g = cached_context(name, mults).graph
        count = len(enumerate_hat(g))
        with pytest.raises(EnumerationCap):
            enumerate_hat(g, count - 1)
        with pytest.raises(EnumerationCap):
            degree_lines(g, count - 1)
        assert len(enumerate_hat(g, count)) == len(degree_lines(g, count)) - 1 == count
        argv = ["degree", "--type", name, "--lambda", ",".join(map(str, mults)), "--cap"]
        assert main([*argv, str(count - 1)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert main([*argv, str(count)]) == 0
        out, err = capsys.readouterr()
        assert out.count("\n") == count + 1 and err == ""


def _reference_failure(g, listing) -> str | None:
    """The message that refuses the listing in a per-row scan, or None if every row passes.

    A level whose columns differ in length has no rows to scan and is
    refused as a whole; the rows of the other levels are read back through
    their parent rows and scanned with the structure check of a path.
    """
    for k, level in enumerate(listing.levels):
        if len(set(map(len, level))) != 1:
            return f"walk level {k + 1} has columns of unequal length"
    L, tick = time_ticks(listing.candidates)
    n, c = g.num_vertices, len(listing.candidates)
    for dirs, idx, _ in _records(listing):
        if all(0 <= i < c for i in idx):
            ticks = [0, *[tick[i] for i in idx], L]
            if _structure_ok(g, dirs, L, ticks):
                continue
        words = ";".join(listing.names[v] if 0 <= v < n else f"#{v}" for v in dirs)
        times = ",".join(["0", *(listing.texts[i] if 0 <= i < c else f"#{i}" for i in idx), "1"])
        return f"invalid path '{words}|{times}': structurally invalid"
    return None


def _parent(listing, k: int, r: int, column: str):
    return getattr(listing.levels[k - 1], column)[listing.levels[k].parent[r]]


# one row's corruption, as (column, its new value), or the column whose entry of the row is dropped; None where
# the row has no step to corrupt (the first level has no time and no parent direction)
CORRUPTIONS = {
    "equal-neighbours": lambda listing, k, r, n, c: ("y", _parent(listing, k, r, "y")) if k else None,
    "vertex-minus-one": lambda listing, k, r, n, c: ("y", -1),
    "vertex-n": lambda listing, k, r, n, c: ("y", n),
    "direction-dropped": lambda listing, k, r, n, c: "y",
    "candidate-minus-one": lambda listing, k, r, n, c: ("i", -1) if k else None,
    "candidate-c": lambda listing, k, r, n, c: ("i", c) if k else None,
    "index-not-after-parent": lambda listing, k, r, n, c: ("i", _parent(listing, k, r, "i")) if k else None,
}


def _corrupt(listing, k: int, r: int, corruption: str, n: int):
    """The listing with row r of level k corrupted, or None where the corruption does not apply to it."""
    change = CORRUPTIONS[corruption](listing, k, r, n, len(listing.candidates))
    if change is None:
        return None
    if isinstance(change, str):
        values = list(getattr(listing.levels[k], change))
        del values[r]
        return _with(listing, k, change, values)
    return _set(listing, k, r, *change)


class TestLevelCheck:
    @ROW_SHAPES
    def test_uncorrupted_listing_passes(self, name, mults):
        g = cached_context(name, mults).graph
        listing = path_listing(g, True, 10**6)
        assert _reference_failure(g, listing) is None
        _drain(g, listing)

    @ROW_SHAPES
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_names_the_row_of_the_per_row_scan(self, name, mults, corruption):
        # one row corrupted at the first, middle and last row of each level: the level pass refuses the
        # listing with the message of the per-row scan, the literal of the first row it refuses
        g = cached_context(name, mults).graph
        listing = path_listing(g, True, 10**6)
        tried = 0
        for k, level in enumerate(listing.levels):
            rows = range(len(level.y))
            for r in dict.fromkeys((rows[0], rows[len(rows) // 2], rows[-1])):
                bad = _corrupt(listing, k, r, corruption, g.num_vertices)
                if bad is None:
                    continue
                # every other row passes (test_uncorrupted_listing_passes), so the per-row scan stops here
                expected = _reference_failure(g, bad)
                assert expected is not None
                with pytest.raises(InvalidQLSPath) as info:
                    _drain(g, bad)
                assert str(info.value) == expected
                tried += 1
        assert tried >= len(listing.levels) - 1

    @ROW_SHAPES
    def test_index_before_the_parents_refused(self, name, mults):
        # an index in range that comes before its parent's index, not only one equal to it, is refused: the
        # first row of each level from the third on whose parent's index is at least 1 gets that index less 1
        g = cached_context(name, mults).graph
        listing = path_listing(g, True, 10**6)
        tried = 0
        for k in range(2, len(listing.levels)):
            level, before = listing.levels[k], listing.levels[k - 1]
            r = next((r for r, p in enumerate(level.parent) if before.i[p] >= 1), None)
            if r is None:
                continue
            bad = _set(listing, k, r, "i", before.i[level.parent[r]] - 1)
            with pytest.raises(InvalidQLSPath) as info:
                _drain(g, bad)
            assert str(info.value) == _reference_failure(g, bad)
            tried += 1
        assert tried or len(listing.levels) < 3

    @ROW_SHAPES
    def test_names_the_first_of_two_failing_rows(self, name, mults):
        # the first and last rows of a level both corrupted: the level pass names the first
        g = cached_context(name, mults).graph
        listing = path_listing(g, True, 10**6)
        for k, level in enumerate(listing.levels):
            if len(level.y) < 2:
                continue
            bad = _set(_set(listing, k, 0, "y", g.num_vertices), k, len(level.y) - 1, "y", g.num_vertices)
            first = _set(listing, k, 0, "y", g.num_vertices)
            with pytest.raises(InvalidQLSPath) as info:
                _drain(g, bad)
            assert str(info.value) == _reference_failure(g, first)

    @pytest.mark.parametrize(
        "corruption,literal",
        [
            ("direction -1", "s2;#-1|0,1/2,1"),
            ("direction N", "s2;#6|0,1/2,1"),
            ("index -1", "s2;s2 s1|0,#-1,1"),
            ("index |C|", "s2;s2 s1|0,#3,1"),
        ],
    )
    def test_out_of_range_value_named_by_number(self, a2_21, corruption, literal):
        # a direction outside [0, N) is named by number, not as another vertex or by an IndexError, and a
        # candidate index outside [0, |C|) is refused by the time half, not read as another candidate
        g = a2_21.graph
        s2, s2s1 = vertex_by_word(a2_21, "s2"), vertex_by_word(a2_21, "s2 s1")
        listing = path_listing(g, True, 10**6)
        r = _row_of(listing, (s2, s2s1), (1,))
        value = {"direction -1": -1, "direction N": g.num_vertices, "index -1": -1, "index |C|": 3}[corruption]
        with pytest.raises(InvalidQLSPath) as info:
            _drain(g, _set(listing, 1, r, "y" if corruption.startswith("direction") else "i", value))
        assert str(info.value) == f"invalid path '{literal}': structurally invalid"

    @pytest.mark.parametrize("column", ["parent", "y", "i", "e"])
    def test_columns_of_unequal_length_refused(self, a2_21, column):
        # a level is its rows only when its four columns pair up: a column one entry short is refused before
        # any row is read
        g = a2_21.graph
        listing = path_listing(g, True, 10**6)
        for k, level in enumerate(listing.levels):
            with pytest.raises(InvalidQLSPath, match=f"^walk level {k + 1} has columns of unequal length$"):
                _drain(g, _with(listing, k, column, getattr(level, column)[:-1]))

    def test_negative_sum_refused(self, a2_21):
        # the sign half of the exactness check: an energy of -L on a two-direction row makes its sum
        # -(L - t) * L, a multiple of L below zero, which the level refuses as degree sum -(L - t)
        g = a2_21.graph
        listing = path_listing(g, True, 10**6)
        L, tick = time_ticks(listing.candidates)
        i = listing.levels[1].i[0]
        with pytest.raises(NonIntegralDegree, match=f"^degree sum {tick[i] - L} is not a nonpositive integer$"):
            _drain(g, _set(listing, 1, 0, "e", -L))

    def test_rows_out_of_level_order_pass(self, a2_21):
        # the check reads each row against its parent, not against its neighbours: two rows of the last level
        # swapped still pass, and the degrees read are those of the rows in the listing's order
        g = a2_21.graph
        listing = path_listing(g, True, 10**6)
        last = listing.levels[-1]
        assert len(last.y) >= 2
        moved = listing
        for column in last._fields:
            values = list(getattr(last, column))
            values[0], values[1] = values[1], values[0]
            moved = _with(moved, len(listing.levels) - 1, column, values)
        assert _reference_failure(g, moved) is None
        records = _records(moved)
        assert records != _records(listing) and sorted(records) == sorted(_records(listing))
        degrees = [deg for _, level in degree_mod._walk_rows(g, moved) for deg in level]
        paths = [QLSPath(dirs, candidate_times(listing.candidates, idx)) for dirs, idx, _ in records]
        assert degrees == [degree(path, g) for path in paths]


@st.composite
def _level_sums(draw, valid: bool):
    """(L, a level's sums over L): nonnegative multiples of L, or any integers, most of which fail the check."""
    L = draw(st.integers(1, 12))
    multiple = st.integers(0, 30).map(L.__mul__)
    return L, draw(st.lists(multiple if valid else multiple | st.integers(-3 * L, 30 * L), max_size=40))


def _scan(L: int, sums: list[int]) -> tuple[str, list[int] | str]:
    """The per-row scan's outcome: ("ok", the degrees) or ("refused", its message)."""
    try:
        return "ok", [_exact(total, L) for total in sums]
    except NonIntegralDegree as exc:
        return "refused", str(exc)


class TestLevelDegrees:
    # the level's table checks and divides each distinct sum once, in the order of the rows that first hold it

    @given(_level_sums(valid=True))
    def test_valid_sums_are_the_per_row_scan(self, case):
        L, sums = case
        assert ("ok", degree_mod._level_degrees(L, sums)) == _scan(L, sums)

    @given(_level_sums(valid=False))
    def test_refuses_as_the_per_row_scan(self, case):
        # a negative sum or one L does not divide refuses the level with the message of the first such row
        L, sums = case
        try:
            outcome = "ok", degree_mod._level_degrees(L, sums)
        except NonIntegralDegree as exc:
            outcome = "refused", str(exc)
        assert outcome == _scan(L, sums)
