"""Shared fixtures: cached contexts for the shapes exercised across the suite."""

from __future__ import annotations

import functools

import pytest

from qbruhat import build_context


@functools.lru_cache(maxsize=None)
def cached_context(type_name: str, mults: tuple[int, ...]):
    return build_context(type_name, mults)


@pytest.fixture(scope="session")
def a2_21():
    return cached_context("A2", (2, 1))


@pytest.fixture(scope="session")
def a2_11():
    return cached_context("A2", (1, 1))


@pytest.fixture(scope="session")
def a2_10():
    return cached_context("A2", (1, 0))


@pytest.fixture(scope="session")
def a1_1():
    return cached_context("A1", (1,))


@pytest.fixture(scope="session")
def c2_11():
    return cached_context("C2", (1, 1))


@pytest.fixture(scope="session")
def a3_010():
    return cached_context("A3", (0, 1, 0))


def vertex_by_word(ctx, word: str) -> int:
    g = ctx.graph
    return g.vertex_of_element(g.group.parse_word(word))
