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
``verify``.  It runs level by level, one level per number of directions:
each path is extended from a suffix of its last direction's successor
list, ordered by candidate index, so no empty list is visited; each level
is sorted on (directions, indices), and the levels, concatenated, are in
the canonical order with no global sort.  The cap is checked while a level
grows.  Its successor lists are built per denominator from the graph's
sparse segment searches, one per source, after the graph's reach layers
(``PQBG.build_reach_layers``), so that each strongness test is one bit.
The strong lists read the searches' energies (``PQBG.segment_energies``)
and hold each segment's energy wt_Lambda(x_{k+1} => x_k): a segment is
strong exactly where that energy is held, and every energy is checked when
the search is built.  The weak lists read the same searches' distances
(``PQBG.sigma_distances_from``), so the weak walk runs the same checks and,
after the strong one, no new search; neither reads a row of length N.
``path_listing`` keeps the walk's records as indices, with each vertex name
and candidate time text formatted once.  ``degree._walk_rows`` reads them
one level at a time and checks the structure of every row: its times once
per index tuple (``_ticks_ok``) and its directions once per level, column
by column (``_dirs_level_ok``, true exactly when every row passes
``_dirs_ok``); it sums, checks and formats each distinct schedule, a
path's (candidate indices, energies), once; the table writes the rows,
and ``verify`` lifts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter, lt, ne
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

    The tuple is memoised on the graph, so every walk holds the same
    ``Fraction`` objects and paths of two walks compare by identity.
    """
    if g._candidates is None:
        pairings = {g.pairings[e.label] for e in g.edges}
        g._candidates = tuple(sorted({Fraction(k, v) for v in pairings for k in range(1, v)}))
    return g._candidates


def time_ticks(times) -> tuple[int, list[int]]:
    """(L, the times as integers over L), L the lcm of their denominators."""
    L = lcm(*[t.denominator for t in times])
    return L, [t.numerator * (L // t.denominator) for t in times]


def _ticks_ok(L: int, ticks: list[int]) -> bool:
    """The half of the structure check that reads the times only: 0 = ticks[0] < ... < ticks[-1] = L."""
    return bool(ticks) and ticks[0] == 0 and ticks[-1] == L and all(map(lt, ticks, ticks[1:]))


def _dirs_ok(g: PQBG, dirs: tuple[int, ...], ticks: list[int]) -> bool:
    """The half that reads the directions: one more time than directions, vertices in range, neighbours distinct."""
    if len(ticks) != len(dirs) + 1 or not dirs:
        return False
    if min(dirs) < 0 or max(dirs) >= g.num_vertices:
        return False
    return all(map(ne, dirs, dirs[1:]))


def _dirs_level_ok(g: PQBG, k: int, dirs: list[tuple[int, ...]], idx: list[tuple[int, ...]]) -> bool:
    """The direction half on a level of rows, column by column: true exactly when every row passes ``_dirs_ok``.

    The lengths come first: k >= 1, every dirs of length k and every index
    tuple of length k - 1, so that each row's ticks are one longer than its
    directions.  Then the columns are read, column j the j-th direction of
    every row: the least and greatest vertex of their union must lie in
    [0, N), and no row may repeat a direction in neighbouring columns.
    """
    if k < 1 or list(map(len, dirs)).count(k) != len(dirs) or list(map(len, idx)).count(k - 1) != len(idx):
        return False
    cols = [list(map(itemgetter(j), dirs)) for j in range(k)]
    vertices = set().union(*cols)
    if min(vertices) < 0 or max(vertices) >= g.num_vertices:
        return False
    return all(all(map(ne, left, right)) for left, right in zip(cols, cols[1:]))


def _structure_ok(g: PQBG, dirs: tuple[int, ...], L: int, ticks: list[int]) -> bool:
    """The structure check of a path given as directions and ticks over L: both halves."""
    return _dirs_ok(g, dirs, ticks) and _ticks_ok(L, ticks)


def _successors(g: PQBG, candidates: tuple[Fraction, ...], strong: bool) -> list[list[list[tuple]]]:
    # succ[i][x]: the pairs (y, energy), y ascending, for the directions y that
    # may follow x at time candidates[i]; the energy is wt_Lambda(y => x) in
    # the strong variant, read from the graph's sparse, checked segment
    # energies, and None in the weak one, which reads the keys of the same
    # searches' distances, the reached x.  Admissibility depends on the
    # denominator alone, so times with one denominator share a table.  The
    # tables query every source, so the reach layers are built first.
    g.build_reach_layers()
    m = g.num_vertices
    query = g.segment_energies if strong else g.sigma_distances_from
    tables: dict[int, list[list[tuple]]] = {}
    for sigma in candidates:
        if sigma.denominator in tables:
            continue
        table = tables[sigma.denominator] = [[] for _ in range(m)]
        for y in range(m):
            for x, value in query(y, sigma).items():
                if x != y:
                    table[x].append((y, value if strong else None))
    return [tables[sigma.denominator] for sigma in candidates]


def _suffix_lists(succ: list[list[list[tuple]]], m: int) -> tuple[list[list[tuple]], list[list[int]]]:
    # flat[x]: the successors of x at every candidate, as singleton tuples ((y,), (i,), (energy,)) in
    # candidate order, then y ascending; flat[x][start[x][i]:] are those at candidates i and later.  The
    # singletons are shared, so a walk step concatenates tuples and builds no new one.
    ys = [(y,) for y in range(m)]
    ones: dict = {}
    flat: list[list[tuple]] = [[] for _ in range(m)]
    start: list[list[int]] = [[] for _ in range(m)]
    for i, table in enumerate(succ):
        si = (i,)
        for x, pairs in enumerate(table):
            start[x].append(len(flat[x]))
            flat[x] += [(ys[y], si, ones.setdefault(energy, (energy,))) for y, energy in pairs]
    for x in range(m):
        start[x].append(len(flat[x]))
    return flat, start


def _walk(g: PQBG, strong: bool, cap: int) -> tuple[tuple[Fraction, ...], list[tuple]]:
    """The candidate times and every path as (dirs, candidate indices, energies), in the canonical order.

    The walk goes level by level, one level per number of directions.  A
    path whose last candidate index is i is extended by the successors of
    its last direction at the candidates after i, read from one suffix of
    that direction's flat successor list.  Each level is sorted on
    (dirs, indices), which orders by directions, then times, since the
    candidates ascend and no two paths tie; the levels are concatenated in
    order, so no global sort runs.  The energies are the segments'
    wt_Lambda(x_{p+1} => x_p) in the strong variant.  Each vertex x gives
    the path (x; 0, 1) and an edge s -> t whose label pairs to v the v - 1
    paths (t, s; 0, k/v, 1), so the walk refuses a cap below their count
    before building any time; after that the count is checked after each
    path is extended, so no level grows past the cap by more than one
    path's successors.
    """
    if g.num_vertices + max((g.pairings[e.label] for e in g.edges), default=1) - 1 > cap:
        raise EnumerationCap(f"more than {cap} paths")
    candidates = sigma_candidates(g)
    flat, start = _suffix_lists(_successors(g, candidates, strong), g.num_vertices)
    found: list[tuple] = []
    level: list[tuple] = [((x,), (), ()) for x in range(g.num_vertices)]
    while level:
        found += level
        room = cap - len(found)
        grown: list[tuple] = []
        for dirs, idx, energies in level:
            cur = dirs[-1]
            tail = flat[cur][start[cur][idx[-1] + 1] if idx else 0 :]
            if tail:
                grown += [(dirs + y, idx + i, energies + e) for y, i, e in tail]
                if len(grown) > room:
                    raise EnumerationCap(f"more than {cap} paths")
        grown.sort()
        level = grown
    return candidates, found


class Listing(NamedTuple):
    """A walk's paths in order, each as (dirs, candidate indices, energies).

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
    return tuple(QLSPath(dirs, candidate_times(candidates, idx)) for dirs, idx, _ in found)


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

