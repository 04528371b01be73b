"""Quantum Lakshmibai-Seshadri paths: enumeration and evaluation.

A path is a pair (directions; times): directions are graph vertices with
adjacent entries distinct, times are strictly increasing rationals from 0
to 1.  The strong ("hat") variant asks each internal time sigma_k for a
sigma_k-admissible directed path from x_{k+1} to x_k that is as short as an
unrestricted one; the weak ("tilde") variant only asks for reachability in
the sigma_k-admissible subgraph.

Times are ``Fraction`` only at the boundary (``QLSPath.times``, literals,
JSON); inside they are candidate indices or integer ticks over L, the lcm of
the denominators.  Enumeration orders paths by number of directions, then
directions, then times.

One walk over candidate indices serves both variants, the degree table and
``verify``.  Its strong successor lists hold each segment's energy
wt_Lambda(x_{k+1} => x_k), read from the graph's energy rows: a segment is
strong exactly where that energy is defined, and every row is checked when
the graph builds it.  ``degree._walk_rows`` turns the energies into checked
rows with their degree; the table writes them, and ``verify`` lifts them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import lt, ne

from .qbg import PQBG


class EnumerationCap(RuntimeError):
    """Path enumeration exceeded its configured budget."""


@dataclass(frozen=True)
class QLSPath:
    directions: tuple[int, ...]  # vertex indices, adjacent entries distinct
    times: tuple[Fraction, ...]  # 0 = t_0 < t_1 < ... < t_s = 1

    def turning_points(self) -> tuple[tuple[int, int, Fraction], ...]:
        """Triples (x_k, x_{k+1}, sigma_k) for the internal times."""
        return tuple(
            (self.directions[k], self.directions[k + 1], self.times[k + 1])
            for k in range(len(self.directions) - 1)
        )


def sigma_candidates(g: PQBG) -> tuple[Fraction, ...]:
    """Every rational in (0,1) whose reduced denominator divides some edge-label value.

    This is a finite superset of all internal times that can occur: a valid
    internal time sigma has at least one admissible edge (the directions are
    distinct, so the connecting path is nonempty), and sigma * <Lambda,
    beta^vee> integral with sigma = a/b in lowest terms forces b to divide
    the pairing value v of that edge's label, so sigma = (a v/b)/v.
    """
    pairings = {g.pairings[e.label] for e in g.edges}
    return tuple(sorted({Fraction(k, v) for v in pairings for k in range(1, v)}))


def time_ticks(times) -> tuple[int, list[int]]:
    """(L, the times as integers over L), L the lcm of their denominators."""
    L = lcm(*[t.denominator for t in times])
    return L, [t.numerator * (L // t.denominator) for t in times]


def _structure_ok(g: PQBG, dirs: tuple[int, ...], L: int, ticks: list[int]) -> bool:
    if len(ticks) != len(dirs) + 1 or not dirs:
        return False
    if ticks[0] != 0 or ticks[-1] != L:
        return False
    if not all(map(lt, ticks, ticks[1:])):
        return False
    if min(dirs) < 0 or max(dirs) >= g.num_vertices:
        return False
    return all(map(ne, dirs, dirs[1:]))


def _successors(g: PQBG, candidates: tuple[Fraction, ...], strong: bool) -> list[list[list[tuple]]]:
    # succ[i][x]: the pairs (y, energy), y ascending, for the directions y that
    # may follow x at time candidates[i]; the energy is wt_Lambda(y => x) in
    # the strong variant, read from the checked energy rows, and None in the
    # weak one.  Admissibility depends on the denominator alone, so times
    # with one denominator share a table.
    m = g.num_vertices
    tables: dict[int, list[list[tuple]]] = {}
    for sigma in candidates:
        if sigma.denominator in tables:
            continue
        table = tables[sigma.denominator] = [[] for _ in range(m)]
        for y in range(m):
            if strong:
                for x, energy in enumerate(g.segment_energies(y, sigma)):
                    if x != y and energy is not None:
                        table[x].append((y, energy))
            else:
                for x, sdist in enumerate(g.sigma_distances_from(y, sigma)):
                    if x != y and sdist >= 0:
                        table[x].append((y, None))
    return [tables[sigma.denominator] for sigma in candidates]


def _walk(g: PQBG, strong: bool, cap: int) -> tuple[tuple[Fraction, ...], list[tuple]]:
    """The candidate times and every path as (len, dirs, candidate indices, energies), sorted.

    Sorting on (len, dirs, indices) orders by number of directions, then
    directions, then times, since the candidates ascend; no two paths tie on it.  The energies are the
    segments' wt_Lambda(x_{p+1} => x_p) in the strong variant.  Each vertex x gives the path (x; 0, 1) and an
    edge s -> t whose label pairs to v the v - 1 paths (t, s; 0, k/v, 1), so the walk refuses a cap below
    their count before building any time.
    """
    if g.num_vertices + max((g.pairings[e.label] for e in g.edges), default=1) - 1 > cap:
        raise EnumerationCap(f"more than {cap} paths")
    candidates = sigma_candidates(g)
    succ = _successors(g, candidates, strong)
    found: list[tuple] = []
    # a stack, not recursion: a path may have more directions than Python's recursion limit allows frames
    stack: list[tuple] = [((start,), (), (), -1) for start in range(g.num_vertices)]
    while stack:
        dirs, idx, energies, last = stack.pop()
        found.append((len(dirs), dirs, idx, energies))
        if len(found) > cap:
            raise EnumerationCap(f"more than {cap} paths")
        cur = dirs[-1]
        for si in range(last + 1, len(candidates)):
            for nxt, energy in succ[si][cur]:
                stack.append(((*dirs, nxt), (*idx, si), (*energies, energy), si))
    found.sort()
    return candidates, found


def path_listing(g: PQBG, strong: bool, cap: int) -> tuple[tuple[Fraction, ...], Iterator[tuple]]:
    """The candidate times, and each path as (dirs, candidate indices, energies, direction names, time texts).

    The walk (and any ``EnumerationCap``) runs before this returns; the records
    follow lazily, in order, from names and time texts formatted once.
    """
    candidates, found = _walk(g, strong, cap)
    names = [g.vertex_name(v) for v in range(g.num_vertices)]
    texts = [str(t) for t in candidates]
    return candidates, (
        (dirs, idx, energies, [names[v] for v in dirs], ["0", *[texts[i] for i in idx], "1"])
        for _, dirs, idx, energies in found
    )


_ZERO, _ONE = Fraction(0), Fraction(1)


def candidate_path(candidates: tuple[Fraction, ...], dirs: tuple[int, ...], idx: tuple[int, ...]) -> QLSPath:
    """The path with directions ``dirs`` whose internal times are the candidates at ``idx``."""
    return QLSPath(dirs, (_ZERO, *[candidates[i] for i in idx], _ONE))


def _enumerate(g: PQBG, strong: bool, cap: int) -> tuple[QLSPath, ...]:
    candidates, found = _walk(g, strong, cap)
    return tuple(candidate_path(candidates, dirs, idx) for _, dirs, idx, _ in found)


def enumerate_hat(g: PQBG, cap: int = 10**6) -> tuple[QLSPath, ...]:
    """All paths of the strong variant, in the canonical order.

    That is by number of directions, then directions, then times; the
    internal times are the ``sigma_candidates`` objects themselves.
    """
    return _enumerate(g, True, cap)


def enumerate_tilde(g: PQBG, cap: int = 10**6) -> tuple[QLSPath, ...]:
    """All paths of the weak variant, in the same order; equal to the strong ones (tested, not assumed)."""
    return _enumerate(g, False, cap)


def path_to_json(g: PQBG, path: QLSPath) -> dict:
    return {
        "dirs": [g.vertex_name(v) for v in path.directions],
        "times": [str(t) for t in path.times],
    }

