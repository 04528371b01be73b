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

One walk over candidate indices serves both variants, the degree table
and ``verify``.  It keeps each level, the paths with k directions, as
int columns (``Level``): each row's parent row and its last step.  A row
is extended from a suffix of its last direction's successor list, each
suffix sliced once, so no empty list is visited.  A level's rows are
generated parent row by parent row, each suffix in candidate order, then
y order, so one stable sort on (the rank of the parent's directions, y)
puts rows that tie on it in the order of their indices; the levels,
concatenated, are in the canonical order.  The cap is checked while a
level grows.  The successor lists come per denominator from the graph's
sparse segment searches, after its reach layers: the strong lists hold
each segment's energy wt_Lambda(x_{k+1} => x_k), a segment being strong
exactly where one is held, and the weak ones the same searches'
distances, so both walks run the searches' energy checks.  A reader
builds only what it reads, each row's value carried from its parent's,
one ``map`` pass per column and level (``_carried``).  There are three:
``Listing.level_texts`` (the CSV fields), ``Listing.level_records``
(each row's direction tuple and schedule) and ``Listing.paths``, the
``QLSPath`` tuple built from the records, whose paths of one level and
one index tuple share one times tuple.  ``degree._walk_rows`` checks each
level on its new columns alone and carries the degree sums.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import add, itemgetter, lt, ne
from typing import NamedTuple

from .qbg import PQBG


class EnumerationCap(RuntimeError):
    """Path enumeration exceeded its configured budget."""


# the number of paths a walk may list when no cap is given
DEFAULT_CAP = 10**6


@dataclass(frozen=True, slots=True)
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


def _structure_ok(g: PQBG, dirs: tuple[int, ...], L: int, ticks: list[int]) -> bool:
    """One more tick than directions, 0 = ticks[0] < ... < ticks[-1] = L, vertices in [0, N), neighbours distinct."""
    if not dirs or len(ticks) != len(dirs) + 1 or ticks[0] != 0 or ticks[-1] != L:
        return False
    if min(dirs) < 0 or max(dirs) >= g.num_vertices:
        return False
    return all(map(lt, ticks, ticks[1:])) and all(map(ne, dirs, dirs[1:]))


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
    # flat[x]: the successors of x at every candidate as steps (y, i, energy), in candidate order, then y
    # ascending; flat[x][start[x][i]:] are those at candidates i and later
    flat: list[list[tuple]] = [[] for _ in range(m)]
    start: list[list[int]] = [[] for _ in range(m)]
    for i, table in enumerate(succ):
        for x, pairs in enumerate(table):
            start[x].append(len(flat[x]))
            flat[x] += [(y, i, energy) for y, energy in pairs]
    for x in range(m):
        start[x].append(len(flat[x]))
    return flat, start


class Level(NamedTuple):
    """The paths with k directions, in order, as columns: row r extends row ``parent[r]`` of the level before.

    It goes on to direction ``y[r]`` at candidate ``i[r]``, over a segment of energy ``e[r]`` (None in the weak
    variant).  On the first level, the paths (x; 0, 1), ``y`` is x and the other columns hold -1, -1 and None.
    """

    parent: list[int]
    y: list[int]
    i: list[int]
    e: list


def _walk(g: PQBG, strong: bool, cap: int) -> tuple[tuple[Fraction, ...], list[Level]]:
    """The candidate times and every path as a row of its walk level, the levels in order.

    A row with last index i is extended by its last direction's successors
    at the candidates after i, a suffix of ``flat[x]`` sliced the first time
    it is read.  The rows come out parent row by parent row, each suffix in
    candidate order, then y order, so rows equal in (the rank of the
    parent's directions, y) are already in (parent row, i) order, which
    among equal directions is the order of the indices; one stable sort on
    that pair alone orders the level.  Each vertex x gives the path
    (x; 0, 1) and an edge whose label pairs to v gives v - 1 paths of two
    directions, so a cap below their count is refused before any time is
    built; after that the count is checked as each row is extended.
    """
    if g.num_vertices + max((g.pairings[e.label] for e in g.edges), default=1) - 1 > cap:
        raise EnumerationCap(f"more than {cap} paths")
    candidates = sigma_candidates(g)
    n = g.num_vertices
    flat, start = _suffix_lists(_successors(g, candidates, strong), n)
    tails: list[list] = [[None] * len(s) for s in start]  # tails[x][j]: flat[x][start[x][j]:], sliced when first read
    level = Level([-1] * n, list(range(n)), [-1] * n, [None] * n)
    rank = level.y  # each row's rank of directions among the distinct directions of its level
    levels: list[Level] = []
    room = cap
    while level.y:
        levels.append(level)
        room -= len(level.y)
        parent, steps = [], []
        for r, (x, j) in enumerate(zip(level.y, level.i)):
            tail = tails[x][j + 1]
            if tail is None:
                tail = tails[x][j + 1] = flat[x][start[x][j + 1] :]
            if tail:
                steps += tail
                parent += repeat(r, len(tail))
                if len(steps) > room:
                    raise EnumerationCap(f"more than {cap} paths")
        y, i, e = ([*map(itemgetter(k), steps)] for k in range(3))
        high = list(map(add, map(n.__mul__, map(rank.__getitem__, parent)), y))
        order = sorted(range(len(high)), key=high.__getitem__)
        high = list(map(high.__getitem__, order))
        rank = list(accumulate(map(ne, high[1:], high), initial=0))
        level = Level(*[list(map(column.__getitem__, order)) for column in (parent, y, i, e)])
    return candidates, levels


def _carry(values: list, parent: list[int], steps) -> list:
    """Each row's value: its parent's value followed by its step."""
    return list(map(add, map(values.__getitem__, parent), steps))


def _carried(levels: list[Level], first, steps) -> Iterator[list]:
    """Per level, each row's value: ``first(x)`` for (x; 0, 1), then its parent's followed by its ``steps(level)``."""
    values: list = []
    for k, level in enumerate(levels):
        values = _carry(values, level.parent, steps(level)) if k else list(map(first, level.y))
        yield values


class _Ones(dict):
    """The singleton tuple of each value, made once: ``ones[v] == (v,)``."""

    def __missing__(self, value):
        self[value] = one = (value,)
        return one


class Listing(NamedTuple):
    """A walk's levels, with each vertex name (``names[v]``) and candidate time text (``texts[i]``) made once."""

    candidates: tuple[Fraction, ...]
    levels: list[Level]
    names: list[str]
    texts: list[str]

    def path_texts(self, dirs: tuple[int, ...], idx: tuple[int, ...]) -> tuple[list[str], list[str]]:
        """A path's direction names and time texts; a vertex or candidate index out of range is named ``#v``."""
        n, c = len(self.names), len(self.texts)
        names = [self.names[v] if 0 <= v < n else f"#{v}" for v in dirs]
        return names, ["0", *[self.texts[i] if 0 <= i < c else f"#{i}" for i in idx], "1"]

    def level_texts(self) -> Iterator[tuple[list[str], list[str]]]:
        """Per level, each row's directions and times as CSV fields: the names, and the time texts, joined by ``;``."""
        names, texts = [f";{name}" for name in self.names], [f";{text}" for text in self.texts]
        dir_levels = _carried(self.levels, self.names.__getitem__, lambda level: map(names.__getitem__, level.y))
        time_levels = _carried(self.levels, lambda x: "0", lambda level: map(texts.__getitem__, level.i))
        for dirs, times in zip(dir_levels, time_levels):
            yield dirs, list(map(add, times, repeat(";1")))

    def level_records(self) -> Iterator[tuple[list[tuple], list[tuple]]]:
        """Per level, each row's directions and schedule, the tuple (i_1, e_1, i_2, e_2, ...) of its steps."""
        ones = _Ones()
        dir_levels = _carried(self.levels, ones.__getitem__, lambda level: map(ones.__getitem__, level.y))
        return zip(dir_levels, _carried(self.levels, lambda x: (), lambda level: zip(level.i, level.e)))

    def paths(self) -> tuple[QLSPath, ...]:
        """Every path, in order, from ``level_records``: the times made once per distinct index tuple of a level."""
        found: list[QLSPath] = []
        for dirs, schedules in self.level_records():
            # a strong schedule holds the energies too, so schedules with one index tuple share its times
            indices = {s: s[0::2] for s in dict.fromkeys(schedules)}
            made = {i: candidate_times(self.candidates, i) for i in indices.values()}
            found += map(QLSPath, dirs, map(made.__getitem__, map(indices.__getitem__, schedules)))
        return tuple(found)


def path_listing(g: PQBG, strong: bool, cap: int) -> Listing:
    """Every path of a variant from one walk (any ``EnumerationCap`` is raised here), with its texts."""
    candidates, levels = _walk(g, strong, cap)
    return Listing(candidates, levels, [g.vertex_name(v) for v in range(g.num_vertices)], [str(t) for t in candidates])


_ZERO, _ONE = Fraction(0), Fraction(1)


def candidate_times(candidates: tuple[Fraction, ...], idx: tuple[int, ...]) -> tuple[Fraction, ...]:
    """The times of a path whose internal times are the candidates at ``idx``."""
    return (_ZERO, *[candidates[i] for i in idx], _ONE)


def enumerate_hat(g: PQBG, cap: int = DEFAULT_CAP) -> tuple[QLSPath, ...]:
    """All paths of the strong variant, in the canonical order: ``Listing.paths`` of the strong walk.

    That is by number of directions, then directions, then times; the
    internal times are the ``sigma_candidates`` objects themselves, and
    the paths of one level with one index tuple share one times tuple.
    """
    return path_listing(g, True, cap).paths()


def enumerate_tilde(g: PQBG, cap: int = DEFAULT_CAP) -> tuple[QLSPath, ...]:
    """All paths of the weak variant, in the same order; equal to the strong ones (tested, not assumed)."""
    return path_listing(g, False, cap).paths()


def path_to_json(g: PQBG, path: QLSPath) -> dict:
    return {
        "dirs": [g.vertex_name(v) for v in path.directions],
        "times": [str(t) for t in path.times],
    }

