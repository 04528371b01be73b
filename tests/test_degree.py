"""Degree formula, affine lifts, endpoint bookkeeping."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from conftest import cached_context, vertex_by_word
from qbruhat.degree import (
    InvalidQLSPath,
    NonIntegralDegree,
    SegmentData,
    _degree_of,
    degree,
    degree_table,
    endpoint_delta,
    lift,
    segment_energy,
)
from qbruhat.qbg import DirectedPath
from qbruhat.qls import (
    QLSPath,
    _structure_ok,
    enumerate_hat,
    enumerate_tilde,
    path_sort_key,
    time_ticks,
)
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
    def test_lift_keeps_directions_and_times(self, fixture, request):
        # the lift raises each direction in place: its classical part at any
        # time is the path's own, so only its vertices and times can go wrong
        ctx = request.getfixturevalue(fixture)
        shape, g = ctx.shape, ctx.graph
        for eta in enumerate_hat(shape, g):
            lifted = lift(eta, shape, g)
            assert tuple(w.vertex for w in lifted.weights) == eta.directions
            assert lifted.times == eta.times

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
    for seg in segments:
        total += (1 - seg.sigma) * seg.energy
    if total.denominator != 1 or total < 0:
        raise NonIntegralDegree(f"degree sum {total} is not a nonpositive integer")
    return -int(total)


def _reference_segments(path: QLSPath, shape, g, cache: dict) -> list:
    if not _reference_structure_ok(g, path):
        raise InvalidQLSPath(f"structurally invalid path {path}")
    out = []
    for x_cur, x_next, sigma in path.turning_points():
        key = (x_next, x_cur, sigma)
        if key not in cache:
            cache[key] = segment_energy(g, shape.classical, x_next, x_cur, sigma)
        out.append(cache[key])
    return out


def _reference_table(shape, g, paths) -> list[dict]:
    cache: dict = {}
    rows = []
    for path in sorted(paths, key=path_sort_key):
        segs = _reference_segments(path, shape, g, cache)
        rows.append(
            {
                "dirs": [g.group.word_name(g.rep_id(v)) for v in path.directions],
                "times": [str(t) for t in path.times],
                "energies": [seg.energy for seg in segs],
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
        paths = enumerate_hat(ctx.shape, ctx.graph)
        assert degree_table(ctx.shape, ctx.graph, paths) == _reference_table(ctx.shape, ctx.graph, paths)

    @TICK_SHAPES
    def test_enumerated_paths_pass_structure_check(self, name, mults):
        ctx = cached_context(name, mults)
        g = ctx.graph
        for path in enumerate_hat(ctx.shape, g) + enumerate_tilde(ctx.shape, g):
            assert _reference_structure_ok(g, path), path
            assert _structure_ok(g, path.directions, *time_ticks(path.times)), path

    @TICK_SHAPES
    def test_enumeration_in_canonical_order(self, name, mults):
        ctx = cached_context(name, mults)
        for enum in (enumerate_hat, enumerate_tilde):
            paths = enum(ctx.shape, ctx.graph)
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
        expected = _raised(lambda: _reference_degree_of(_reference_segments(path, shape, g, {})))
        assert expected is not None
        assert _raised(degree, path, shape, g) == expected
        # after every valid path has filled the segment cache, too
        assert _raised(degree_table, shape, g, enumerate_hat(shape, g) + (path,)) == expected

    @pytest.mark.parametrize("sigma,energy", [(F(1, 2), 1), (F(1, 2), -2), (F(2, 3), 2), (F(1, 3), 3), (F(2, 5), 5)])
    def test_degree_sum_matches_reference(self, sigma, energy):
        seg = SegmentData(1, 0, sigma, DirectedPath((0,), (), ()), energy)
        path = QLSPath((0, 1), (F(0), sigma, F(1)))
        expected = _raised(_reference_degree_of, [seg])
        got = _raised(_degree_of, [seg], *time_ticks(path.times))
        assert got == expected
        if expected is None:
            assert _degree_of([seg], *time_ticks(path.times)) == _reference_degree_of([seg])
