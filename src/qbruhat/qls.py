"""Quantum Lakshmibai-Seshadri paths: enumeration and evaluation.

A path is a pair (directions; times): directions are graph vertices with
adjacent entries distinct, times are strictly increasing rationals from 0
to 1.  The strong ("hat") variant asks each internal time sigma_k for a
sigma_k-admissible directed path from x_{k+1} to x_k that is as short as an
unrestricted one; the weak ("tilde") variant only asks for reachability in
the sigma_k-admissible subgraph.

Times are ``Fraction`` only at the boundary (``QLSPath.times``, literals,
JSON); inside they are candidate indices, or integer ticks over L, the lcm
of the candidates' denominators (of a literal's own, for a literal).
Enumeration orders paths by number of directions, then directions, then
times.

One walk over candidate indices serves both variants, the degree table and
``verify``.  Its successor lists are built per denominator from the graph's
sparse segment searches, one per source, after the graph's reach layers
(``PQBG.build_reach_layers``), so that each strongness test is one bit.
The strong lists read the searches' energies (``PQBG.segment_energies``),
with no row of length N, and hold each segment's energy
wt_Lambda(x_{k+1} => x_k): a segment is strong exactly where that energy is
held, and every energy is checked when the search is built.  The weak lists
read the searches' distances as rows of length N
(``PQBG.sigma_distances_from``), so the weak walk runs the same checks.
``path_listing`` keeps the walk's records as indices, with each vertex name
and candidate time text formatted once.  ``degree._walk_rows`` checks every
row's structure, and sums, checks and formats each distinct schedule, a
path's (candidate indices, energies), once; the table writes the rows, and
``verify`` lifts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import lt, ne
from typing import NamedTuple

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
    # the strong variant, read from the graph's sparse, checked segment
    # energies, and None in the weak one.  Admissibility depends on the
    # denominator alone, so times with one denominator share a table.  The
    # tables query every source, so the reach layers are built first.
    g.build_reach_layers()
    m = g.num_vertices
    tables: dict[int, list[list[tuple]]] = {}
    for sigma in candidates:
        if sigma.denominator in tables:
            continue
        table = tables[sigma.denominator] = [[] for _ in range(m)]
        for y in range(m):
            if strong:
                for x, energy in g.segment_energies(y, sigma).items():
                    if x != y:
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


class Listing(NamedTuple):
    """A walk's paths in order, each as (number of directions, dirs, candidate indices, energies).

    The records carry indices only: ``names[v]`` is the name of vertex v and
    ``texts[i]`` the text of candidate time i, each formatted once, and a
    path's texts are looked up from them only where it is written.
    """

    candidates: tuple[Fraction, ...]
    paths: list[tuple]
    names: list[str]
    texts: list[str]

    def dir_names(self, dirs: tuple[int, ...]) -> list[str]:
        return [self.names[v] for v in dirs]

    def time_texts(self, idx: tuple[int, ...]) -> list[str]:
        return ["0", *[self.texts[i] for i in idx], "1"]


def path_listing(g: PQBG, strong: bool, cap: int) -> Listing:
    """Every path of a variant from one walk (any ``EnumerationCap`` is raised here), with its texts."""
    candidates, found = _walk(g, strong, cap)
    return Listing(candidates, found, [g.vertex_name(v) for v in range(g.num_vertices)], [str(t) for t in candidates])


_ZERO, _ONE = Fraction(0), Fraction(1)


def candidate_times(candidates: tuple[Fraction, ...], idx: tuple[int, ...]) -> tuple[Fraction, ...]:
    """The times of a path whose internal times are the candidates at ``idx``."""
    return (_ZERO, *[candidates[i] for i in idx], _ONE)


def _enumerate(g: PQBG, strong: bool, cap: int) -> tuple[QLSPath, ...]:
    candidates, found = _walk(g, strong, cap)
    return tuple(QLSPath(dirs, candidate_times(candidates, idx)) for _, dirs, idx, _ in found)


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

