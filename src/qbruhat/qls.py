"""Quantum Lakshmibai-Seshadri paths: enumeration and evaluation.

A path is a pair (directions; times): directions are graph vertices with
adjacent entries distinct, times are strictly increasing rationals from 0
to 1.  The strong ("hat") variant asks each internal time sigma_k for a
sigma_k-admissible directed path from x_{k+1} to x_k that is as short as an
unrestricted one; the weak ("tilde") variant only asks for reachability in
the sigma_k-admissible subgraph.

Times are ``Fraction`` only at the boundary (``QLSPath.times``, literals,
JSON); inside they are candidate indices or integer ticks over L, the lcm
of the denominators.  Enumeration returns a tuple in ``path_sort_key`` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .qbg import PQBG

RationalVector = tuple[Fraction, ...]


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


def path_sort_key(path: QLSPath):
    return (len(path.directions), path.directions, path.times)


def sigma_candidates(g: PQBG) -> tuple[Fraction, ...]:
    """Every rational in (0,1) whose reduced denominator divides some edge-label value.

    This is a finite superset of all internal times that can occur: a valid
    internal time sigma has at least one admissible edge (the directions are
    distinct, so the connecting path is nonempty), and sigma * <Lambda,
    beta^vee> integral with sigma = a/b in lowest terms forces b to divide
    the pairing value of that edge's label.
    """
    out: set[Fraction] = set()
    for label in sorted({e.label for e in g.edges}):
        v = g.pairings[label]
        for b in range(2, v + 1):
            if v % b == 0:
                for a in range(1, b):
                    out.add(Fraction(a, b))
    return tuple(sorted(out))


def time_ticks(times) -> tuple[int, list[int]]:
    """(L, the times as integers over L), L the lcm of their denominators."""
    L = lcm(*[t.denominator for t in times])
    return L, [t.numerator * (L // t.denominator) for t in times]


def _structure_ok(g: PQBG, dirs: tuple[int, ...], L: int, ticks: list[int]) -> bool:
    if len(ticks) != len(dirs) + 1 or not dirs:
        return False
    if ticks[0] != 0 or ticks[-1] != L:
        return False
    if any(t1 >= t2 for t1, t2 in zip(ticks, ticks[1:])):
        return False
    if any(not 0 <= v < g.num_vertices for v in dirs):
        return False
    return all(a != b for a, b in zip(dirs, dirs[1:]))


def is_hat_path(g: PQBG, path: QLSPath) -> bool:
    """Independent validator for the strong variant (used to re-check enumerations)."""
    if not _structure_ok(g, path.directions, *time_ticks(path.times)):
        return False
    return all(g.sigma_path(x, y, sigma).shortest for x, y, sigma in path.turning_points())


def is_tilde_path(g: PQBG, path: QLSPath) -> bool:
    """Independent validator for the weak variant."""
    if not _structure_ok(g, path.directions, *time_ticks(path.times)):
        return False
    return all(g.sigma_path(x, y, sigma).path is not None for x, y, sigma in path.turning_points())


def _successors(g: PQBG, candidates: tuple[Fraction, ...], strong: bool) -> list[list[list[int]]]:
    # succ[i][x]: the directions y, ascending, that may follow x at time candidates[i]
    m = g.num_vertices
    succ = []
    for sigma in candidates:
        table: list[list[int]] = [[] for _ in range(m)]
        for y in range(m):
            sdist = g.sigma_distances_from(y, sigma)
            full = g.distances_from(y)
            for x in range(m):
                if x != y and (sdist[x] == full[x] if strong else sdist[x] >= 0):
                    table[x].append(y)
        succ.append(table)
    return succ


def _enumerate(g: PQBG, strong: bool, cap: int) -> tuple[QLSPath, ...]:
    candidates = sigma_candidates(g)
    succ = _successors(g, candidates, strong)
    found: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []  # (len, dirs, candidate indices)

    def extend(dirs: list[int], idx: list[int], last: int) -> None:
        found.append((len(dirs), tuple(dirs), tuple(idx)))
        if len(found) > cap:
            raise EnumerationCap(f"more than {cap} paths; raise the cap to continue")
        cur = dirs[-1]
        for si in range(last + 1, len(candidates)):
            for nxt in succ[si][cur]:
                dirs.append(nxt)
                idx.append(si)
                extend(dirs, idx, si)
                dirs.pop()
                idx.pop()

    for start in range(g.num_vertices):
        extend([start], [], -1)
    found.sort()
    zero, one = Fraction(0), Fraction(1)
    return tuple(QLSPath(dirs, (zero, *[candidates[i] for i in idx], one)) for _, dirs, idx in found)


def enumerate_hat(g: PQBG, cap: int = 10**6) -> tuple[QLSPath, ...]:
    """All paths of the strong variant, in the canonical ``path_sort_key`` order.

    That is by number of directions, then directions, then times; the
    internal times are the ``sigma_candidates`` objects themselves.
    """
    return _enumerate(g, True, cap)


def enumerate_tilde(g: PQBG, cap: int = 10**6) -> tuple[QLSPath, ...]:
    """All paths of the weak variant, in the same order; equal to the strong ones (tested, not assumed)."""
    return _enumerate(g, False, cap)


def evaluate(g: PQBG, path: QLSPath, t: Fraction) -> RationalVector:
    """The piecewise-linear map at time t, exactly.

    On the segment t in [t_{k-1}, t_k] the value is
    sum_{l<k} (t_l - t_{l-1}) x_l Lambda + (t - t_{k-1}) x_k Lambda.
    """
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"time {t} outside [0, 1]")
    acc = [Fraction(0)] * g.rs.rank
    times, dirs = path.times, path.directions
    for k in range(1, len(times)):
        lo, hi = times[k - 1], times[k]
        for i, c in enumerate(g.orbit_weight(dirs[k - 1]).coords):
            acc[i] += (min(t, hi) - lo) * c
        if t <= hi:
            break
    return tuple(acc)


def path_to_json(g: PQBG, path: QLSPath) -> dict:
    return {
        "dirs": [g.vertex_name(v) for v in path.directions],
        "times": [str(t) for t in path.times],
    }


def path_from_json(g: PQBG, record: dict) -> QLSPath:
    dirs = tuple(g.vertex_of_word(w) for w in record["dirs"])
    times = tuple(Fraction(t) for t in record["times"])
    return QLSPath(dirs, times)
