"""Shared fixtures and helpers: cached contexts for the shapes exercised across the suite, exhaustive path walks."""

from __future__ import annotations

import functools
from fractions import Fraction

import pytest

from qbruhat import build_context
from qbruhat.qbg import DirectedPath


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


# -- exhaustive path walks: reference checks for the graph's BFS queries ------


class PathEnumerationCap(RuntimeError):
    """Exhaustive path enumeration exceeded its configured budget."""


def _reversed_path(vertices: list[int], labels: list[int], quantum: list[bool]) -> DirectedPath:
    return DirectedPath(tuple(reversed(vertices)), tuple(reversed(labels)), tuple(reversed(quantum)))


def all_paths_up_to(
    g, x: int, y: int, max_len: int | None = None, cap: int = 200_000, sigma: Fraction | None = None
) -> list[DirectedPath]:
    """Every directed path (vertex revisits allowed) from y to x of bounded length.

    With ``sigma`` given, only sigma-admissible edges are walked.  Raises
    PathEnumerationCap when the exploration budget is exhausted.
    """
    if max_len is None:
        max_len = 2 * g.rs.num_positive
    allowed = frozenset(g.labels) if sigma is None else g._admissible_labels(sigma)
    found: list[DirectedPath] = []
    budget = [cap]

    def walk(v: int, vertices: list[int], labels: list[int], quantum: list[bool]) -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise PathEnumerationCap(f"path enumeration exceeded cap {cap}")
        if v == x:
            found.append(_reversed_path(vertices, labels, quantum))
        if len(labels) == max_len:
            return
        for e in g.out_edges[v]:
            if e.label not in allowed:
                continue
            vertices.append(e.target)
            labels.append(e.label)
            quantum.append(e.quantum)
            walk(e.target, vertices, labels, quantum)
            vertices.pop()
            labels.pop()
            quantum.pop()

    walk(y, [y], [], [])
    return found


def shortest_sigma_paths(g, x: int, y: int, sigma: Fraction) -> list[DirectedPath]:
    """All sigma-admissible paths from y to x of minimal sigma-admissible length."""
    allowed = g._admissible_labels(sigma)
    to_x = g._distances_to(x, allowed)
    if to_x[y] < 0:
        return []
    found: list[DirectedPath] = []

    def walk(v: int, vertices: list[int], labels: list[int], quantum: list[bool]) -> None:
        if v == x:
            found.append(_reversed_path(vertices, labels, quantum))
            return
        for e in g.out_edges[v]:
            if e.label in allowed and to_x[e.target] == to_x[v] - 1:
                vertices.append(e.target)
                labels.append(e.label)
                quantum.append(e.quantum)
                walk(e.target, vertices, labels, quantum)
                vertices.pop()
                labels.pop()
                quantum.pop()

    walk(y, [y], [], [])
    return found


def validate_path(g, path: DirectedPath) -> None:
    """Re-check that every step of the path is a graph edge with the stated kind."""
    if len(path.vertices) != len(path.labels) + 1 or len(path.labels) != len(path.quantum):
        raise ValueError("ill-formed path arrays")
    for k in range(len(path.labels)):
        e = g.edge(path.vertices[k + 1], path.labels[k])
        if e is None or e.target != path.vertices[k] or e.quantum != path.quantum[k]:
            raise ValueError(f"step {k} is not an edge of the graph")
