"""The degree of a quantum LS path, with its certifying affine lift.

The degree is computed from the closed formula

    deg(eta) = - sum_{p=1}^{s-1} (1 - sigma_p) <Lambda, wt(d_p)>,

where d_p is any shortest sigma_p-admissible directed path connecting the
p-th pair of directions; the pairing does not depend on that choice (the
well-definedness is property-tested, not assumed silently).  Times stay
``Fraction`` in a ``QLSPath`` and are read as integer ticks over L, the lcm
of their denominators: segments are cached on (x_{p+1}, x_p, numerator,
denominator), and the sum is an integer over L.  The lift raises each
direction x_p to the affine orbit element with delta-coefficient equal to
the sum of the earlier segment energies, and records the cover chain each
segment path induces; the oracle re-certifies those chains from first
principles.  The formula is the product here; the lift is retained purely
as verification machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .affine_oracle import AffineOrbitElement
from .cartan import LevelZeroShape, Weight, pair
from .qbg import PQBG, DirectedPath
from .qls import QLSPath, _structure_ok, path_to_json, time_ticks

SegmentCache = dict


class InvalidQLSPath(ValueError):
    """The input is not a valid strong-variant quantum LS path."""


class NonIntegralDegree(RuntimeError):
    """The degree sum failed an exactness assertion; this signals a bug."""


@dataclass(frozen=True)
class SegmentData:
    source: int  # x_{p+1}
    target: int  # x_p
    sigma: Fraction
    path: DirectedPath  # a shortest sigma-admissible path from source to target
    energy: int  # <Lambda, wt(path)>


@dataclass(frozen=True)
class AffineLSPath:
    """A lifted path: orbit weights sharing the source times, plus per-segment chains."""

    weights: tuple[AffineOrbitElement, ...]
    times: tuple[Fraction, ...]
    segment_chains: tuple[tuple[AffineOrbitElement, ...], ...]


def segment_energy(
    g: PQBG,
    lam: Weight,
    x_next: int,
    x_cur: int,
    sigma: Fraction,
) -> SegmentData:
    """One canonical segment datum for the pair (x_cur <- x_next) at time sigma."""
    if x_next == x_cur:
        return SegmentData(x_next, x_cur, sigma, DirectedPath((x_cur,), (), ()), 0)
    result = g.sigma_path(x_cur, x_next, sigma, lam)
    if result.path is None or not result.shortest:
        raise InvalidQLSPath(
            f"no admissible shortest path from vertex {x_next} to {x_cur} at sigma={sigma}"
        )
    return SegmentData(x_next, x_cur, sigma, result.path, pair(lam, g.path_weight(result.path)))


def _segments(
    path: QLSPath, shape: LevelZeroShape, g: PQBG, cache: SegmentCache | None
) -> tuple[list[SegmentData], int, list[int]]:
    """The path's segments, with its times as integer ticks over L."""
    L, ticks = time_ticks(path.times)
    if not _structure_ok(g, path.directions, L, ticks):
        raise InvalidQLSPath(f"structurally invalid path {path}")
    lam = shape.classical
    out = []
    for x_cur, x_next, sigma in path.turning_points():
        key = (x_next, x_cur, sigma.numerator, sigma.denominator)
        seg = cache.get(key) if cache is not None else None
        if seg is None:
            seg = segment_energy(g, lam, x_next, x_cur, sigma)
            if cache is not None:
                cache[key] = seg
        out.append(seg)
    return out, L, ticks


def _degree_of(segments: list[SegmentData], L: int, ticks: list[int]) -> int:
    total = sum((L - t) * seg.energy for t, seg in zip(ticks[1:], segments))
    if total % L or total < 0:
        raise NonIntegralDegree(f"degree sum {Fraction(total, L)} is not a nonpositive integer")
    return -(total // L)


def degree(
    path: QLSPath, shape: LevelZeroShape, g: PQBG, cache: SegmentCache | None = None
) -> int:
    """Exact degree of a strong-variant path; always a nonpositive integer."""
    return _degree_of(*_segments(path, shape, g, cache))


def lift(
    path: QLSPath, shape: LevelZeroShape, g: PQBG, cache: SegmentCache | None = None
) -> AffineLSPath:
    """Raise the path into the affine orbit, with the per-segment cover chains.

    The p-th weight is (x_p, sum of the energies of segments before p); each
    segment contributes the chain through its path's intermediate vertices,
    where a quantum step adds the pairing of its label to the running
    delta-coefficient and a Bruhat step leaves it unchanged.
    """
    segments = _segments(path, shape, g, cache)[0]
    lam = shape.classical
    values = g.pair_values(lam)

    weights = [AffineOrbitElement(path.directions[0], 0)]
    cumulative = 0
    for p, seg in enumerate(segments):
        cumulative += seg.energy
        weights.append(AffineOrbitElement(path.directions[p + 1], cumulative))

    chains = []
    for p, seg in enumerate(segments):
        base = weights[p].delta
        chain = [weights[p]]
        delta = base
        d = seg.path
        for k in range(d.length):
            if d.quantum[k]:
                delta += values[d.labels[k]]
            chain.append(AffineOrbitElement(d.vertices[k + 1], delta))
        if chain[-1] != weights[p + 1]:
            raise NonIntegralDegree("segment chain does not land on the next lifted weight")
        chains.append(tuple(chain))

    return AffineLSPath(tuple(weights), path.times, tuple(chains))


def endpoint_delta(lifted: AffineLSPath) -> int:
    """Delta-coefficient of the lift evaluated at time 1; a nonnegative integer."""
    total = Fraction(0)
    for k in range(1, len(lifted.times)):
        total += (lifted.times[k] - lifted.times[k - 1]) * lifted.weights[k - 1].delta
    if total.denominator != 1 or total < 0:
        raise NonIntegralDegree(f"endpoint delta {total} is not a nonnegative integer")
    return int(total)


def degree_table(shape: LevelZeroShape, g: PQBG, paths) -> list[dict]:
    """One record per path: directions, times, per-segment energies and the degree."""
    cache: SegmentCache = {}
    rows = []
    for path in paths:
        segs, L, ticks = _segments(path, shape, g, cache)
        row = path_to_json(g, path)
        row["energies"] = [seg.energy for seg in segs]
        row["deg"] = _degree_of(segs, L, ticks)
        rows.append(row)
    return rows
