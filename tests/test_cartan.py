"""Root-system arithmetic: generation, pairings, reflections, shapes."""

from __future__ import annotations

import re
import time

import pytest
from conftest import reference_root_system
from hypothesis import given
from hypothesis import strategies as st

from qbruhat import build_context, cartan
from qbruhat.cartan import (
    FiniteType,
    RootSystem,
    build_root_system,
    cartan_matrix,
    compute_shape,
    pair,
    positive_root_count,
)

ALL_SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "F4", "G2"]
ALL_TYPES = [
    *(f"A{n}" for n in range(1, 9)),
    *(f"B{n}" for n in range(2, 9)),
    *(f"C{n}" for n in range(2, 9)),
    *(f"D{n}" for n in range(4, 9)),
    "E6", "E7", "E8", "F4", "G2",
]


def closure_second_pass(ftype: FiniteType) -> set[tuple[int, ...]]:
    """Independent fixpoint pass: saturate the simple roots under all simple reflections."""
    C = cartan_matrix(ftype)
    n = ftype.rank
    roots = {tuple(1 if k == i else 0 for k in range(n)) for i in range(n)}
    while True:
        new = set()
        for c in roots:
            for j in range(n):
                k = sum(c[i] * C[i][j] for i in range(n))
                image = list(c)
                image[j] -= k
                image = tuple(image)
                if image not in roots:
                    new.add(image)
        if not new:
            return {c for c in roots if all(x >= 0 for x in c)}
        roots |= new


class TestBuild:
    def test_a2_roots(self):
        rs = build_root_system(FiniteType.parse("A2"))
        coords = {r for r in rs.positive_roots}
        assert coords == {(1, 0), (0, 1), (1, 1)}
        assert rs.positive_roots[rs.highest_root] == (1, 1)

    def test_a1_roots(self):
        rs = build_root_system(FiniteType.parse("A1"))
        assert [r for r in rs.positive_roots] == [(1,)]
        assert rs.positive_roots[rs.highest_root] == (1,)

    def test_c2_roots(self):
        rs = build_root_system(FiniteType.parse("C2"))
        assert rs.num_positive == 4
        assert rs.positive_roots[rs.highest_root] == (2, 1)
        assert closure_second_pass(rs.type) == {r for r in rs.positive_roots}

    @pytest.mark.parametrize("name", ALL_SMALL_TYPES)
    def test_counts_match_independent_pass(self, name):
        rs = build_root_system(FiniteType.parse(name))
        second = closure_second_pass(rs.type)
        assert len(second) == rs.num_positive == positive_root_count(rs.type)
        assert second == {r for r in rs.positive_roots}

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_equals_full_closure(self, name):
        # the raising-step BFS over the positive roots against the closure of all roots under every reflection
        rs = build_root_system(FiniteType.parse(name))
        for field, value in reference_root_system(rs.type).items():
            assert getattr(rs, field) == value, field

    def test_infinite_type_refused(self, monkeypatch):
        # affine A2 has infinitely many real roots: the closure stops once it holds more than A3's 6 positive roots
        affine = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
        monkeypatch.setattr(cartan, "cartan_matrix", lambda ftype: affine)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="^closure passed 6 positive roots for A3$"):
            RootSystem(FiniteType("A", 3))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("name", ALL_SMALL_TYPES)
    def test_simple_pairings_equal_cartan_matrix(self, name):
        rs = build_root_system(FiniteType.parse(name))
        n = rs.rank
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = pair(rs.root_weight_coords[i - 1], rs.positive_coroots[j - 1])
                assert got == rs.cartan[i - 1][j - 1]

    @pytest.mark.parametrize("name", ALL_SMALL_TYPES)
    def test_rho_pairings(self, name):
        rs = build_root_system(FiniteType.parse(name))
        for idx in range(rs.num_positive):
            v = pair(rs.rho, rs.positive_coroots[idx])
            assert v >= 1
            assert (v == 1) == (idx < rs.rank)

    def test_invalid_types_rejected(self):
        for bad in ["D3", "E5", "G3", "F5", "B1", "A0", "H2", "A9"]:
            with pytest.raises(ValueError):
                FiniteType.parse(bad)

    def test_root_sign_invariant(self):
        rs = build_root_system(FiniteType.parse("C3"))
        for r in rs.positive_roots:
            assert all(c >= 0 for c in r) and any(r)


class TestPair:
    def test_example_values(self):
        rs = build_root_system(FiniteType.parse("A2"))
        lam = (2, 1)
        assert pair(lam, rs.positive_coroots[rs.highest_root]) == 3
        assert pair(lam, rs.positive_coroots[0]) == 2
        assert pair(lam, (0, 0)) == 0

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=2), st.lists(st.integers(-9, 9), min_size=2, max_size=2))
    def test_bilinear(self, a, b):
        w1, w2 = tuple(a), tuple(b)
        c = (1, -2)
        summed = tuple(x + y for x, y in zip(a, b))
        assert pair(summed, c) == pair(w1, c) + pair(w2, c)


class TestReflect:
    def test_a2_alpha1(self):
        rs = build_root_system(FiniteType.parse("A2"))
        lam = (2, 1)
        # alpha_1 = 2w_1 - w_2 via the Cartan matrix rows, so the image is
        # lam - 2 alpha_1 = (-2, 3)
        assert rs.root_weight_coords[0] == (2, -1)
        assert rs.reflect_weight(lam, 0) == (-2, 3)

    def test_zero_fixed(self):
        rs = build_root_system(FiniteType.parse("C2"))
        zero = (0, 0)
        for idx in range(rs.num_positive):
            assert rs.reflect_weight(zero, idx) == zero

    @pytest.mark.parametrize("name", ["A2", "C2", "G2", "A3"])
    @given(data=st.data())
    def test_involution(self, name, data):
        rs = build_root_system(FiniteType.parse(name))
        coords = data.draw(
            st.tuples(*[st.integers(-20, 20) for _ in range(rs.rank)]), label="weight"
        )
        idx = data.draw(st.integers(0, rs.num_positive - 1), label="root")
        w = coords
        assert rs.reflect_weight(rs.reflect_weight(w, idx), idx) == w


class TestShape:
    def test_a2_regular(self):
        rs = build_root_system(FiniteType.parse("A2"))
        shape = compute_shape(rs, (2, 1))
        assert shape.multiplicities == (2, 1)
        assert shape.parabolic == frozenset()

    def test_a2_fundamental(self):
        rs = build_root_system(FiniteType.parse("A2"))
        assert compute_shape(rs, (1, 0)).parabolic == frozenset({2})

    def test_a3_middle(self):
        rs = build_root_system(FiniteType.parse("A3"))
        assert compute_shape(rs, (0, 1, 0)).parabolic == frozenset({1, 3})

    def test_rejects_degenerate(self):
        rs = build_root_system(FiniteType.parse("A2"))
        with pytest.raises(ValueError):
            compute_shape(rs, (0, 0))
        with pytest.raises(ValueError):
            compute_shape(rs, (1, -1))
        with pytest.raises(ValueError):
            compute_shape(rs, (1,))

    @pytest.mark.parametrize(
        "mults,bad",
        [(["1_0", " \u0663"], "'1_0'"), ((2, "1"), "'1'"), ((True, 1), "True"), ((1.0, 1), "1.0"), ((2, None), "None")],
    )
    def test_multiplicities_are_ints(self, mults, bad):
        # the library reads no text: the strict parser is the CLI's, and int() would take "1_0" and " \u0663"
        rs = build_root_system(FiniteType.parse("A2"))
        with pytest.raises(ValueError, match=f"^multiplicity {re.escape(bad)} is not an int$"):
            compute_shape(rs, mults)
        with pytest.raises(ValueError, match=f"^multiplicity {re.escape(bad)} is not an int$"):
            build_context("A2", mults)

    def test_multiplicities_as_list_or_tuple(self):
        rs = build_root_system(FiniteType.parse("A2"))
        assert compute_shape(rs, [2, 1]).multiplicities == compute_shape(rs, (2, 1)).multiplicities == (2, 1)
