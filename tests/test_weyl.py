"""Weyl group enumeration, lengths, minimal coset representatives."""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbruhat
from conftest import cached_context, element_of_word
from qbruhat import build_context
from qbruhat.cartan import FiniteType, build_root_system, weyl_order
from qbruhat.qbg import word_name
from qbruhat.weyl import GroupCapExceeded, WeylGroup, coset_system, enumerate_group


def group_of(name: str) -> WeylGroup:
    return enumerate_group(build_root_system(FiniteType.parse(name)))


def inverse(group: WeylGroup, a: int) -> int:
    """The inverse of a, whose reduced word is a's reversed."""
    out = 0
    for j in reversed(group.elements[a].word):
        out = group.right_gen(out, j)
    return out


def inversion_count(group: WeylGroup, a: int) -> int:
    rs = group.rs
    neg = 0
    for r in rs.positive_roots:
        image = rs.apply_root_coords(group.elements[a].word, r)
        if all(c <= 0 for c in image):
            neg += 1
    return neg


def never_enumerate(self):
    raise AssertionError("the group was enumerated although its order exceeds the cap")


class TestEnumerate:
    def test_a2(self):
        g = group_of("A2")
        assert len(g) == 6
        assert sorted(e.length for e in g.elements) == [0, 1, 1, 2, 2, 3]

    def test_a1(self):
        assert len(group_of("A1")) == 2

    def test_c2(self):
        g = group_of("C2")
        assert len(g) == 8 == 2**2 * 2
        assert max(e.length for e in g.elements) == 4

    @pytest.mark.parametrize("name", ["A2", "A3", "B3", "C2", "G2", "D4"])
    def test_lengths_are_inversion_counts(self, name):
        g = group_of(name)
        for e in g.elements:
            assert e.length == inversion_count(g, e.id)

    @pytest.mark.parametrize("name", ["A2", "C2", "G2"])
    def test_reduced_words_multiply_back(self, name):
        g = group_of(name)
        for e in g.elements:
            out = 0
            for j in e.word:
                out = g.right_gen(out, j)
            assert out == e.id

    def test_identity_first(self):
        g = group_of("A2")
        assert g.elements[0].id == 0 and g.elements[0].length == 0

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(WeylGroup, "_enumerate", never_enumerate)
        rs = build_root_system(FiniteType.parse("A3"))
        with pytest.raises(GroupCapExceeded):
            WeylGroup(rs, cap=10)

    def test_e6_exceeds_default_cap(self, monkeypatch):
        # `perfbench/run.py --quick` relies on `qbg --type E6` ending in this error
        monkeypatch.setattr(WeylGroup, "_enumerate", never_enumerate)
        with pytest.raises(GroupCapExceeded):
            build_context("E6", (1, 0, 0, 0, 0, 0))

    def test_context_cap_reads_the_order_formula(self, monkeypatch):
        # the cap is checked before the root system, the shape or the graph is built
        def refuse(*args, **kwargs):
            raise AssertionError("built something for a type above the cap")

        for name in ("build_root_system", "compute_shape", "build_pqbg", "enumerate_group", "coset_system"):
            monkeypatch.setattr(qbruhat, name, refuse)
        with pytest.raises(GroupCapExceeded) as err:
            build_context("A8", (1,) * 8)
        assert str(err.value) == "|W| = 362880 for A8 exceeds the cap 40320"

    def test_order_matches_formula(self):
        for name in ["A3", "B2", "C3", "D4", "G2"]:
            g = group_of(name)
            assert len(g) == weyl_order(g.rs.type)


class TestProducts:
    @given(st.integers(0, 23), st.integers(0, 23))
    def test_inverse_and_mul(self, a, b):
        g = group_of("A3")
        assert g.mul(a, inverse(g, a)) == 0
        assert inverse(g, inverse(g, a)) == a
        ab = g.mul(a, b)
        assert g.mul(ab, inverse(g, b)) == a

    @settings(max_examples=30)
    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
    def test_associative(self, a, b, c):
        g = group_of("C2")
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))

    def test_word_roundtrip(self):
        # on J empty every element is a vertex, named by its reduced word
        for name, mults in [("C2", (1, 1)), ("A3", (1, 1, 1)), ("G2", (1, 1))]:
            g = cached_context(name, mults).graph
            assert g.num_vertices == weyl_order(g.rs.type)
            for v in range(g.num_vertices):
                assert g.vertex_of_word(g.vertex_name(v)) == v
        g = cached_context("C2", (1, 1)).graph
        assert g.vertex_of_word("r1 r2") == g.vertex_of_word("s1 s2") == g.vertex_of_word("1 2")


class TestCosets:
    def test_a2_empty(self):
        g = group_of("A2")
        cs = coset_system(g, frozenset())
        assert len(cs.reps) == 6
        assert all(cs.projection[a] == a for a in range(6))

    def test_a2_j2(self):
        g = group_of("A2")
        cs = coset_system(g, {2})
        assert sorted(word_name(g.elements[r].word) for r in cs.reps) == ["e", "s1", "s2 s1"]

    def test_a2_full(self):
        g = group_of("A2")
        cs = coset_system(g, {1, 2})
        assert cs.reps == (0,)

    def test_projection_examples(self):
        g = group_of("A2")
        cs = coset_system(g, {2})
        r2 = element_of_word(g, "s2")
        assert cs.projection[r2] == 0
        r1r2 = element_of_word(g, "s1 s2")
        assert cs.projection[r1r2] == element_of_word(g, "s1")
        cs0 = coset_system(g, frozenset())
        w0 = element_of_word(g, "s1 s2 s1")
        assert cs0.projection[w0] == w0

    @pytest.mark.parametrize(
        "name,J", [("A2", {2}), ("A3", {1, 3}), ("A3", {2}), ("C2", {1}), ("C2", {2})]
    )
    def test_reps_minimal_and_counts(self, name, J):
        g = group_of(name)
        cs = coset_system(g, J)
        subgroup_order = len(g) // len(cs.reps)
        assert len(g) == len(cs.reps) * subgroup_order
        # exhaustive minimality: a rep's length is strictly smallest in its coset
        by_rep: dict[int, list[int]] = {}
        for a in range(len(g)):
            by_rep.setdefault(cs.projection[a], []).append(a)
        for rep, members in by_rep.items():
            lengths = sorted(g.length(m) for m in members)
            assert g.length(rep) == lengths[0]
            assert lengths.count(lengths[0]) == 1
        # projection idempotent and constant on cosets
        for a in range(len(g)):
            r = cs.projection[a]
            assert cs.projection[r] == r
            # a and its rep differ by a subgroup element
            assert cs.projection[g.mul(inverse(g, r), a)] == 0
        counts = Counter(cs.projection)
        assert set(counts.values()) == {subgroup_order}

    @pytest.mark.parametrize("name,J", [("A2", {2}), ("A3", {1, 3}), ("C2", {1})])
    def test_length_additivity(self, name, J):
        g = group_of(name)
        cs = coset_system(g, J)
        subgroup = [a for a in range(len(g)) if cs.projection[a] == 0]
        for w in cs.reps:
            for x in subgroup:
                assert g.length(g.mul(w, x)) == g.length(w) + g.length(x)

    @pytest.mark.parametrize("name,J", [("A2", {2}), ("A3", {1, 3}), ("C2", {1})])
    def test_projection_bound(self, name, J):
        g = group_of(name)
        cs = coset_system(g, J)
        reps = set(cs.reps)
        for a in range(len(g)):
            assert g.length(cs.projection[a]) <= g.length(a)
            assert (g.length(cs.projection[a]) == g.length(a)) == (a in reps)

    @pytest.mark.parametrize(
        "name,mults", [("A2", (2, 1)), ("A2", (1, 0)), ("A3", (0, 1, 0)), ("C2", (1, 1))]
    )
    def test_orbit_injective_on_reps(self, name, mults):
        from qbruhat.cartan import compute_shape

        g = group_of(name)
        shape = compute_shape(g.rs, mults)
        cs = coset_system(g, shape.parabolic)
        images = {g.rs.apply_weight(g.elements[r].word, shape.multiplicities) for r in cs.reps}
        assert len(images) == len(cs.reps)


# -- reference: the matrix enumeration the keyed BFS replaced -------------

Matrix = tuple[tuple[int, ...], ...]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_vec(a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


@cache
def reference_group(name: str):
    """BFS over (wmat, rmat) matrix pairs, keyed on wmat.

    ``wmat`` acts on fundamental-weight coordinates, ``rmat`` on simple-root
    coordinates.  Returns (words, right multiplication table, wmats, rmats,
    wmat -> id).
    """
    rs = build_root_system(FiniteType.parse(name))
    n = rs.rank
    C = rs.cartan
    eye = tuple(tuple(int(k == l) for l in range(n)) for k in range(n))
    gens = [
        (
            tuple(tuple(int(k == l) - (C[j][k] if l == j else 0) for l in range(n)) for k in range(n)),
            tuple(tuple(int(k == l) - (C[l][j] if k == j else 0) for l in range(n)) for k in range(n)),
        )
        for j in range(n)
    ]
    words, wmats, rmats = [()], [eye], [eye]
    by_wmat = {eye: 0}
    right = []
    head = 0
    while head < len(words):
        row = []
        for j, (gw, gr) in enumerate(gens):
            wmat = _mat_mul(wmats[head], gw)
            found = by_wmat.get(wmat)
            if found is None:
                found = by_wmat[wmat] = len(words)
                words.append(words[head] + (j + 1,))
                wmats.append(wmat)
                rmats.append(_mat_mul(rmats[head], gr))
            row.append(found)
        right.append(row)
        head += 1
    return words, right, wmats, rmats, by_wmat


def reference_reflection(rs, by_wmat, root_index: int) -> int:
    n = rs.rank
    beta_w = rs.root_weight_coords[root_index]
    cov = rs.positive_coroots[root_index]
    wmat = tuple(tuple(int(k == l) - cov[l] * beta_w[k] for l in range(n)) for k in range(n))
    return by_wmat[wmat]


def reference_projection(g: WeylGroup, J) -> list[int]:
    """Iterated right descent: step to a r_j for the first shortening j in J until none shortens."""
    proj = []
    for a in range(len(g)):
        w = a
        while True:
            shorter = [g.right_gen(w, j) for j in sorted(J) if g.length(g.right_gen(w, j)) < g.length(w)]
            if not shorter:
                break
            w = shorter[0]
        proj.append(w)
    return proj


# every type with |W| <= 2000
SMALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "F4", "G2"]


@pytest.mark.parametrize("name", SMALL_TYPES)
class TestReferenceEquivalence:
    def test_ids_words_and_right_table(self, name):
        g = group_of(name)
        words, right, _, _, _ = reference_group(name)
        assert [e.word for e in g.elements] == words
        assert [e.id for e in g.elements] == list(range(len(words)))
        assert [[g.right_gen(a, j) for j in range(1, g.rs.rank + 1)] for a in range(len(g))] == right

    def test_actions_match_matrices(self, name):
        g = group_of(name)
        rs = g.rs
        _, _, wmats, rmats, _ = reference_group(name)
        fundamentals = [tuple(int(k == i) for k in range(rs.rank)) for i in range(rs.rank)]
        weights = fundamentals + list(rs.root_weight_coords)
        roots = [r for r in rs.positive_roots]
        for a in range(len(g)):
            word = g.elements[a].word
            for v in weights:
                assert rs.apply_weight(word, v) == _mat_vec(wmats[a], v)
            for c in roots:
                assert rs.apply_root_coords(word, c) == _mat_vec(rmats[a], c)

    def test_reflections(self, name):
        g = group_of(name)
        by_wmat = reference_group(name)[4]
        for i in range(g.rs.num_positive):
            assert g.reflection(i) == reference_reflection(g.rs, by_wmat, i)

    def test_projection_small_subsets(self, name):
        g = group_of(name)
        labels = range(1, g.rs.rank + 1)
        for size in range(3):
            for J in combinations(labels, size):
                assert list(coset_system(g, J).projection) == reference_projection(g, J)
