"""The degree of a quantum LS path, with its certifying affine lift.

The degree is the paper's closed formula

    deg(eta) = - sum_{p=1}^{s-1} (1 - sigma_p) wt_Lambda(x_{p+1} => x_p),

where wt_Lambda(y => x) is the pairing of Lambda with the weight of any
shortest directed path from y to x; the p-th segment is valid when some such
path is sigma_p-admissible.  The graph reads the energies off its sparse
search of each source and denominator and checks their well-definedness on
every pair that search holds (``PQBG.segment_energies``).  Times stay
``Fraction`` in a ``QLSPath`` and are read as integer ticks over L, the lcm
of their denominators, so the sum is an integer over L.

Every path of the shape takes one route to its row: the enumeration walk
carries the energies, and ``_walk_rows`` reads every time as a tick over
one L, the lcm of all candidate denominators.  It runs once per walk
level, the paths with k directions, and checks each path's structure: the
times once per index tuple, the directions once per level, column by
column.  The sum and its exactness check read only the path's schedule,
its (candidate indices, energies), so they run once per distinct
schedule, and so does the caller's formatting of the schedule's texts.
``degree_rows``, ``cli.cmd_degree`` and ``cli.verify_shape`` all take this
route.  ``degree``, ``lift`` and ``degree_table`` take given paths
(``--path`` literals) and derive their segments with ``_segments``.

The lift raises each direction x_p to the affine orbit element with
delta-coefficient equal to the sum of the earlier segment energies, the
prefix sums of the energies in the degree formula, so the lift's
delta-coefficients and its delta at time 1 (``_endpoint_of``, on the ticks
over one L) read only the schedule.  ``verify`` takes both once per
distinct schedule of the walk, and the oracle certifies each lift from
first principles.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, starmap
from operator import itemgetter, mul, sub

from .affine_oracle import AffineOrbitElement
from .cartan import LevelZeroShape
from .qbg import PQBG
from .qls import Listing, QLSPath, _dirs_level_ok, _dirs_ok, _structure_ok, _ticks_ok, path_listing, path_to_json
from .qls import time_ticks


class InvalidQLSPath(ValueError):
    """The input is not a valid strong-variant quantum LS path.

    ``reason`` is the message without the internal time at fault, if any;
    ``time_index``, set when the path is known, is that time's position
    among the path's times.
    """

    time_index: int | None = None

    def __init__(self, reason: str, sigma: Fraction | None = None):
        super().__init__(reason if sigma is None else f"{reason} at sigma={sigma}")
        self.reason = reason


class NonIntegralDegree(RuntimeError):
    """The degree sum failed an exactness assertion; this signals a bug."""


@dataclass(frozen=True)
class AffineLSPath:
    """A lifted path: orbit weights sharing the source times."""

    weights: tuple[AffineOrbitElement, ...]
    times: tuple[Fraction, ...]


def segment_energy(g: PQBG, x_next: int, x_cur: int, sigma: Fraction) -> int:
    """wt_Lambda(x_next => x_cur) for the pair (x_cur <- x_next) at time sigma."""
    energy = g.segment_energies(x_next, sigma).get(x_cur)
    if energy is None:
        reason = f"no admissible shortest path from {g.vertex_name(x_next)} to {g.vertex_name(x_cur)}"
        raise InvalidQLSPath(reason, sigma)
    return energy


def _segments(path: QLSPath, g: PQBG) -> tuple[list[int], int, list[int]]:
    """The path's segment energies, with its times as integer ticks over L."""
    L, ticks = time_ticks(path.times)
    if not _structure_ok(g, path.directions, L, ticks):
        raise InvalidQLSPath("structurally invalid")
    energies = []
    for k, (x_cur, x_next, sigma) in enumerate(path.turning_points(), 1):
        try:
            energies.append(segment_energy(g, x_next, x_cur, sigma))
        except InvalidQLSPath as exc:
            exc.time_index = k
            raise
    return energies, L, ticks


def _degree_of(energies: list[int], L: int, ticks: list[int]) -> int:
    # sum_p (L - t_p) * energy_p
    total = L * sum(energies) - sum(map(mul, ticks[1:], energies))
    if total % L or total < 0:
        raise NonIntegralDegree(f"degree sum {Fraction(total, L)} is not a nonpositive integer")
    return -(total // L)


def degree(path: QLSPath, g: PQBG) -> int:
    """Exact degree of a strong-variant path; always a nonpositive integer."""
    return _degree_of(*_segments(path, g))


def lift(path: QLSPath, g: PQBG) -> AffineLSPath:
    """Raise the path into the affine orbit: its p-th weight is (x_p, sum of the energies of segments before p)."""
    deltas = accumulate(_segments(path, g)[0], initial=0)
    return AffineLSPath(tuple(map(AffineOrbitElement, path.directions, deltas)), path.times)


def _endpoint_of(deltas, L: int, ticks: list[int]) -> int:
    # sum_k (t_{k+1} - t_k) * delta_k, on integer ticks over L
    total = sum(map(mul, map(sub, ticks[1:], ticks), deltas))
    if total % L or total < 0:
        raise NonIntegralDegree(f"endpoint delta {Fraction(total, L)} is not a nonnegative integer")
    return total // L


def endpoint_delta(lifted: AffineLSPath) -> int:
    """Delta-coefficient of the lift evaluated at time 1; a nonnegative integer."""
    return _endpoint_of([mu.delta for mu in lifted.weights], *time_ticks(lifted.times))


def degree_table(shape: LevelZeroShape, g: PQBG, paths) -> list[dict]:
    """One record per path: directions, times, per-segment energies and the degree."""
    # the shape is the graph's own; the argument stays because perfbench/tracing.py reads the paths as args[2]
    if shape is not g.shape:
        raise ValueError("degree_table needs the graph's own shape")
    rows = []
    for path in paths:
        energies, L, ticks = _segments(path, g)
        row = path_to_json(g, path)
        row["energies"] = energies
        row["deg"] = _degree_of(energies, L, ticks)
        rows.append(row)
    return rows


def _invalid_row(listing: Listing, dirs: tuple[int, ...], idx: tuple[int, ...]) -> InvalidQLSPath:
    """The error of a row that fails the structure check, naming it as a path literal.

    A vertex or candidate index outside its range is named by number, as ``#-1``.
    """

    def named(texts: list[str], values: tuple[int, ...]) -> list[str]:
        return [texts[v] if 0 <= v < len(texts) else f"#{v}" for v in values]

    literal = f"{';'.join(named(listing.names, dirs))}|{','.join(['0', *named(listing.texts, idx), '1'])}"
    return InvalidQLSPath(f"invalid path '{literal}': structurally invalid")


def _walk_rows(g: PQBG, listing: Listing, schedule_row) -> Iterator[tuple[list, Iterator]]:
    """Each level of a strong ``qls.path_listing`` as (its dirs, ``schedule_row(idx, energies, deg)`` of each path).

    A level is the run of paths with k directions; the walk lists them in
    order of k, so a level ends where ``bisect_right`` on the number of
    directions puts it, or before the first row of another length inside
    it (a corrupt record, or a listing out of that order).  A path's
    schedule is its (candidate indices, energies); its degree reads nothing
    else.  The candidates are read once as ticks over L, the lcm of all
    their denominators (``qls.time_ticks``): a path's sum over L is its sum
    over the lcm of its own denominators times a positive integer, so the
    exactness check and its sign mean what they mean on ``degree``.
    Every row passes both halves of the structure check,
    ``qls._structure_ok``: the tick half reads the index tuple alone and
    runs once per tuple, in the order of the tuples' first rows, where its
    tick list is built, and refuses an index outside [0, |C|); the direction
    half runs once per level, column by column (``qls._dirs_level_ok``).  If
    either fails, the level is scanned row by row with both halves, and the
    first row that fails is named as a path literal.  The degree and
    ``schedule_row`` run once per distinct schedule; the rows read them
    from the level's memo.
    """
    L, tick = time_ticks(listing.candidates)
    paths = listing.paths
    start = 0
    while start < len(paths):
        k = len(paths[start][0])
        level = paths[start : bisect_right(paths, k, start, key=lambda path: len(path[0]))]
        dirs = list(map(itemgetter(0), level))
        lengths = list(map(len, dirs))
        if lengths.count(k) != len(lengths):
            # out of level order, bisection may reach past a row of another length: end the level before it
            level = level[: next(r for r, n in enumerate(lengths) if n != k)]
            dirs = dirs[: len(level)]
        start += len(level)
        idx = list(map(itemgetter(1), level))
        energies = list(map(itemgetter(2), level))
        ticks_of: dict[tuple, list[int] | None] = {}  # idx -> its ticks, None if it fails the tick half
        ticks_failed = False
        for i in dict.fromkeys(idx):
            ticks = [0, *map(tick.__getitem__, i), L] if not i or (min(i) >= 0 and max(i) < len(tick)) else None
            if ticks is None or not _ticks_ok(L, ticks):
                ticks, ticks_failed = None, True
            ticks_of[i] = ticks
        if ticks_failed or not _dirs_level_ok(g, k, dirs, idx):
            # the level fails exactly when one of its rows fails a half; name the first (the level's first
            # row, should the level check alone fail)
            fails = [ticks_of[i] is None or not _dirs_ok(g, d, ticks_of[i]) for d, i in zip(dirs, idx)]
            bad = fails.index(True) if any(fails) else 0
            raise _invalid_row(listing, dirs[bad], idx[bad])
        made = dict.fromkeys(zip(idx, energies))
        for i, e in made:
            made[i, e] = schedule_row(i, e, _degree_of(e, L, ticks_of[i]))
        yield dirs, map(made.__getitem__, zip(idx, energies))


def degree_rows(g: PQBG, cap: int = 10**6) -> list[dict]:
    """The records of ``degree_table`` for every strong-variant path, from one enumeration walk.

    Equal to ``degree_table(g.shape, g, enumerate_hat(g, cap))``.
    """
    listing = path_listing(g, True, cap)
    levels = _walk_rows(g, listing, lambda idx, energies, deg: (listing.time_texts(idx), energies, deg))
    return [
        {"dirs": listing.dir_names(dirs), "times": list(times), "energies": list(energies), "deg": deg}
        for dirs, (times, energies, deg) in chain.from_iterable(starmap(zip, levels))
    ]
