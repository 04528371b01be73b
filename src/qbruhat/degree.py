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

The enumeration walk carries the energies, and ``_walk_rows`` reads it one
level at a time: each row is its parent row plus one step, so the
structure check reads the level's new columns, and the degree sum is the
parent's plus one term, each one list comprehension over the level's
columns; the structure check runs once per level, the exactness check
once per distinct sum of the level (``_level_degrees``).  Only this
module reads the walk: ``degree_lines`` makes the table's CSV lines, its
one public form, each line one f-string from the carried texts and the
text of each distinct degree, and ``certify_walk`` certifies ``verify``'s
lifts.
``degree``, ``lift`` and ``degree_table`` derive given paths' segments
(``_segments``); ``table_line`` writes a ``degree_table`` record as a line.

The lift raises each direction x_p to the affine orbit element with
delta-coefficient equal to the sum of the earlier segment energies, the
prefix sums of the energies in the degree formula, so the lift's
delta-coefficients and its delta at time 1 (``_endpoint_of``, on the ticks
over one L) read only the schedule.  ``verify`` takes both once per
distinct schedule of a walk level, and the times once per distinct index
tuple, and the oracle certifies each lift from first principles.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from operator import mul, sub

from .affine_oracle import AffineOrbitElement
from .cartan import LevelZeroShape
from .qbg import PQBG
from .qls import Level, Listing, QLSPath, _carry, _structure_ok, candidate_times, path_listing
from .qls import path_to_json, time_ticks


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


def _exact(total: int, L: int) -> int:
    """The degree of a path whose sum_p (L - t_p) * energy_p is ``total``: -total / L, a nonpositive integer."""
    if total % L or total < 0:
        raise NonIntegralDegree(f"degree sum {Fraction(total, L)} is not a nonpositive integer")
    return -(total // L)


def _degree_of(energies: list[int], L: int, ticks: list[int]) -> int:
    return _exact(L * sum(energies) - sum(map(mul, ticks[1:], energies)), L)


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


def _invalid_row(listing: Listing, k: int, r: int) -> InvalidQLSPath:
    """The error of row r of walk level k, which fails the structure check, naming it as a path literal.

    The row is read back through its parent rows; a vertex or candidate
    index outside its range is named by number, as ``#-1``.
    """
    dirs, schedules = next(islice(listing.level_records(), k, None))
    names, times = listing.path_texts(dirs[r], schedules[r][::2])
    return InvalidQLSPath(f"invalid path '{';'.join(names)}|{','.join(times)}': structurally invalid")


def _level_ok(n: int, c: int, before: Level | None, level: Level) -> bool:
    """Whether each row of a walk level is its parent row in the level ``before`` plus one valid step.

    The direction lies in [0, N) and differs from the parent's last one, the
    index lies in [0, |C|) and follows the parent's; the first level has no
    parent.  With the earlier levels passed, a level passes exactly when all
    its rows pass the structure check of a path (``qls._structure_ok``).
    """
    if min(level.y) < 0 or max(level.y) >= n:
        return False
    if before is None:
        return True
    if min(level.i) < 0 or max(level.i) >= c:
        return False
    ys, idx = before.y, before.i
    return all([y != ys[p] and i > idx[p] for p, y, i in zip(level.parent, level.y, level.i)])


def _level_degrees(L: int, sums: list[int]) -> list[int]:
    """The degrees of a level's rows from their sums over L, ``_exact`` run once per distinct sum.

    The distinct sums are checked and divided in the order of the rows that
    first hold them, so a failure names the first failing row's sum.
    """
    degrees = {total: _exact(total, L) for total in dict.fromkeys(sums)}
    return [degrees[total] for total in sums]


def _walk_rows(g: PQBG, listing: Listing) -> Iterator[tuple[Level, list[int]]]:
    """Each level of a strong ``qls.path_listing`` with the degree of each row, once the level is checked.

    A level passes when its columns have one length and ``_level_ok``
    holds; if not, its first failing row is named as a path literal.  A
    row's sum_p (L - t_p) * energy_p, on ticks over L, the lcm of all
    candidate denominators, is its parent's plus its own segment's term.
    It is the sum over the lcm of its own denominators times a positive
    integer, so the exactness and sign check (``_level_degrees``, once per
    distinct sum of a level) means what it means on ``degree``.
    """
    L, tick = time_ticks(listing.candidates)
    weight = [L - t for t in tick]
    n, c = g.num_vertices, len(tick)
    before, sums = None, []
    for k, level in enumerate(listing.levels):
        if len(set(map(len, level))) != 1:
            raise InvalidQLSPath(f"walk level {k + 1} has columns of unequal length")
        if not _level_ok(n, c, before, level):
            rows = (Level(*[column[r : r + 1] for column in level]) for r in range(len(level.y)))
            raise _invalid_row(listing, k, next(r for r, row in enumerate(rows) if not _level_ok(n, c, before, row)))
        if k:
            sums = [sums[p] + weight[i] * e for p, i, e in zip(level.parent, level.i, level.e)]
        else:
            sums = [0] * len(level.y)
        yield level, _level_degrees(L, sums)
        before = level


TABLE_HEADER = "dirs,times,energies,deg"


def table_line(row: dict) -> str:
    """The CSV line of a ``degree_table`` record: its fields joined by ``,``, each field's strings by ``;``."""
    return ",".join(map(";".join, (row["dirs"], row["times"], map(str, row["energies"]), (str(row["deg"]),))))


def degree_lines(g: PQBG, cap: int) -> list[str]:
    """The degree table as CSV lines, from one walk: ``TABLE_HEADER``, then one line per strong path.

    Each level is read once ``_walk_rows`` has checked it and made its
    degrees; each row's texts are its parent's followed by its step's, and
    its line is one f-string that adds the times' closing ``;1`` and the
    text of its degree, made once per distinct degree of the level.
    """
    listing = path_listing(g, True, cap)
    lines = [TABLE_HEADER]
    energies: list[str] = []
    for k, ((level, degrees), (dirs, times)) in enumerate(zip(_walk_rows(g, listing), listing.level_texts())):
        steps = {e: f"{';' if k > 1 else ''}{e}" for e in set(level.e)}  # no ';' before a row's first energy
        energies = _carry(energies, level.parent, steps, level.e) if k else [""] * len(level.y)
        texts = {deg: str(deg) for deg in set(degrees)}
        lines += [f"{d},{t};1,{s},{texts[deg]}" for d, t, s, deg in zip(dirs, times, energies, degrees)]
    return lines


def certify_walk(oracle, g: PQBG, window: int, cap: int, weak: tuple[QLSPath, ...]) -> tuple[bool, Counter, list]:
    """Certify the strong paths of one walk: (whether they are ``weak``, their lifts' statuses, the failing reports).

    Each level is read as its rows' directions and schedules once
    ``_walk_rows`` has checked it, and each path is compared with the next
    of ``weak`` as it is read.  The times, the lift's delta-coefficients
    (the energies' prefix sums), the window and the endpoint identity
    (``_endpoint_of``) run once per distinct schedule of a level; the times
    are made once per distinct candidate index tuple of a level.  Each
    path inside the window is handed, lifted, to ``oracle.verify_ls_path``;
    one outside it is ``inconclusive``.  Only reported paths get texts.
    """
    listing = path_listing(g, True, cap)
    L, tick = time_ticks(listing.candidates)

    def schedule(s, deg, index_times):
        # (indices, times, delta-coefficients, the inconclusive detail or "", whether the endpoint identity holds)
        idx, deltas = s[0::2], tuple(accumulate(s[1::2], initial=0))
        need = max(map(abs, deltas))
        times = index_times[idx]
        if need > window:
            return idx, times, deltas, f"|delta| reaches {need}, outside window {window}; needs window {need}", False
        return idx, times, deltas, "", _endpoint_of(deltas, L, [0, *[tick[i] for i in idx], L]) == -deg

    weak_paths, same, counts, reports = iter(weak), True, Counter(), []
    for (_, degrees), (dirs, schedules) in zip(_walk_rows(g, listing), listing.level_records()):
        rows = dict(zip(schedules, degrees))
        # a schedule holds the energies too, so schedules with one index tuple share its times
        index_times = {i: candidate_times(listing.candidates, i) for i in dict.fromkeys(s[0::2] for s in rows)}
        made = {s: schedule(s, deg, index_times) for s, deg in rows.items()}
        for d, (i, times, deltas, outside, endpoint_ok) in zip(dirs, map(made.__getitem__, schedules)):
            path = next(weak_paths, None)
            same = same and path is not None and path.directions == d and path.times == times
            if outside:
                status, detail = "inconclusive", outside
            else:
                lifted = AffineLSPath(tuple(map(AffineOrbitElement, d, deltas)), times)
                if oracle.verify_ls_path(lifted) and endpoint_ok:
                    counts["pass"] += 1
                    continue
                status, detail = "fail", oracle.failure(lifted) or "endpoint mismatch"
            counts[status] += 1
            names, texts = listing.path_texts(d, i)
            reports.append({"dirs": names, "times": texts, "status": status, "detail": detail})
    return same and next(weak_paths, None) is None, counts, reports
