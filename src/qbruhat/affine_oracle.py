"""First-principles verification in the affine orbit of a dominant shape.

The orbit of the shape inside the affine weight lattice consists of the
elements x*lambda + n*delta with x a coset representative and n an integer;
they are stored as (vertex, delta) pairs.  The partial order is generated by
steps mu -> r_xi(mu) with <mu, xi^vee> < 0, where xi runs over the positive
finite roots gamma and the affine roots delta - gamma.  On level-zero
weights the affine reflection acts by

    r_{delta-gamma}(mu) = r_gamma(mu) + <mu, gamma^vee> delta,

because the delta-gamma coroot differs from -gamma^vee by a central term
that pairs to zero with level-zero weights.  Both step kinds therefore
reduce to integer bookkeeping on (vertex, delta):

* finite gamma, valid when <x Lambda, gamma^vee> < 0: delta unchanged;
* affine delta-gamma, valid when <x Lambda, gamma^vee> > 0: delta grows
  by that pairing.

The target of a step is the vertex of the orbit point r_gamma(x Lambda),
found by reflecting the weight; the oracle never reads the Weyl group table.
A graph edge x -> y labelled beta must be the cover of (x, 0) by (y, 0)
along x beta when x beta > 0 (Bruhat), and the cover of
(x, <Lambda, beta^vee>) by (y, 0) along -x beta when x beta < 0 (quantum);
so the edge is keyed as the cover it must be by the signed index of x beta
(``~k`` for -beta_k), read by one lookup per letter of x's word in a table
of the simple reflections' action on positive-root indices; a cover is keyed
by the index of its root.

Covers never need other reflections, so chain searches over these steps are
exhaustive.  The steps out of (v, n) are those out of (v, 0) shifted by n,
so every order question depends only on the two vertices and the difference
of their delta-coefficients.  Finite steps shorten the vertex and affine
steps raise delta, so the down-set of (v, 0) cut at delta <= k is one
integer bitset, built level by level in k; a step out of (v, 0) is a cover
exactly when its target is not strictly below another step's target.
Sigma-chains are bits of the same recursion, restricted to the covers whose
pairing sigma's denominator q divides and grown to the largest gap asked:
one table per q, about N^2 d^2 / 16 bytes at gap d on N vertices.  At q = 1
they decide comparability, since any chain in a finite interval refines to
a cover chain.  A lifted path's adjacent pair is judged on its two
vertices, its delta gap and its time's denominator alone, so each such
segment's verdict (ordered with a sigma-chain, not comparable, or
comparable with no sigma-chain) is read once and memoised (``verdict``):
``verify`` reads it per step of its walk, the gap being the step's energy,
and ``failure`` names a lift's failing pair.  The cover/edge correspondence
is checked once, at delta 0, for every delta, as the equality of two key
sets: the covers, keyed as they are, and the graph edges, each keyed as
the cover it must be.  Delta never decreases along a step, which bounds
every search between the two endpoint delta-coefficients.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .cartan import pair
from .qbg import PQBG


class AffineOrbitElement(NamedTuple):
    vertex: int  # coset-representative vertex in the graph
    delta: int  # integer delta-coefficient


# the verdict kinds of a segment, as the templates of a path's failure message at pair k, k + 1 and time sigma
_OK, _NOT_COMPARABLE, _NO_CHAIN = "", "weights {} > {}: not comparable", "weights {} > {}: no sigma-chain at {}"


# the steps as objects, for ``raising_steps``; the oracle itself reads the ``_steps`` rows
@dataclass(frozen=True)
class RaisingStep:
    kind: str  # "finite" | "affine"
    root: int  # index of gamma among the positive roots
    target: AffineOrbitElement
    pairing: int  # <source, xi^vee>, always negative


@dataclass(frozen=True)
class CoverEdgeReport:
    covers_checked: int
    edges_checked: int
    mismatches: tuple[str, ...]
    # always empty, since the check is exact; kept because perfbench/tracing.py reads it
    inconclusive: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class AffineOracle:
    """Chain searches and cover/edge correspondence on the affine orbit of the graph's shape."""

    g: PQBG
    # per vertex v, (root, target vertex, delta gain, pairing) of each step out of (v, 0)
    _steps: list[tuple[tuple[int, int, int, int], ...]] = field(init=False, repr=False)
    # per denominator q, the (target, gain) rows of its covers and their down-set levels
    _tables: dict[int, tuple[list, list[list[int]]]] = field(default_factory=dict, init=False, repr=False)
    # per (v, w, delta gap, q), the verdict kind of that segment (``verdict``)
    _verdicts: dict[tuple[int, int, int, int], str] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        g, rs = self.g, self.g.rs
        # p = <x Lambda, gamma^vee> and the vertex of the orbit point
        # r_gamma(x Lambda): a finite step when p < 0, an affine one gaining p
        # when p > 0
        self._steps = []
        for v in range(g.num_vertices):
            w = g.orbit_weight(v)
            steps = []
            for i, c in enumerate(rs.positive_coroots):
                p = pair(w, c)
                if p:
                    target = g.vertex_at(rs.reflect_weight(w, i))
                    steps.append((i, target, 0, p) if p < 0 else (i, target, p, -p))
            self._steps.append(tuple(steps))

    # -- steps ---------------------------------------------------------------

    def raising_steps(self, mu: AffineOrbitElement) -> tuple[RaisingStep, ...]:
        """All order-lowering steps out of mu over the two admissible root kinds."""
        return tuple(
            RaisingStep("affine" if gain else "finite", i, AffineOrbitElement(t, mu.delta + gain), p)
            for i, t, gain, p in self._steps[mu.vertex]
        )

    # -- order ---------------------------------------------------------------

    def _grow(self, rows: list[tuple[tuple[int, int], ...]], levels: list[list[int]], d: int) -> list[list[int]]:
        # extend levels in place through gap d along the rows' (target, gain) steps: bit a*n + u of D[k][v] marks
        # (u, a) at or below (v, 0) with a <= k, and vertices come by ascending length, so a finite step's target
        # is already built on the current level in D[k][v] = 1<<v | OR_finite D[k][t] | OR_affine D[k-g][t] << g*n
        words, name, n = self.g.words, self.g.vertex_name, self.g.num_vertices
        while len(levels) <= d:
            k, level = len(levels), []
            for v, row in enumerate(rows):
                bits = 1 << v
                for t, gain in row:
                    if not gain:
                        if len(words[t]) >= len(words[v]):
                            raise RuntimeError(f"finite step from {name(v)} to {name(t)} does not shorten it")
                        bits |= level[t]
                    elif gain <= k:
                        bits |= levels[k - gain][t] << gain * n
                level.append(bits)
            levels.append(level)
        return levels

    @cached_property
    def _covers(self) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
        # per vertex v, the ``_steps`` rows out of (v, 0) that are covers, i.e. have no element strictly between
        # their ends
        n, steps = self.g.num_vertices, self._steps
        top = max((gain for row in steps for _, _, gain, _ in row), default=0)
        down = self._grow([tuple((t, gain) for _, t, gain, _ in row) for row in steps], [], top)
        covers = []
        for row in steps:
            # everything strictly below some step's target; no target is strictly below itself
            below = 0
            for _, t, gain, _ in row:
                below |= (down[top - gain][t] ^ 1 << t) << gain * n
            covers.append(tuple(step for step in row if not below >> step[2] * n + step[1] & 1))
        return tuple(covers)

    # -- chains ----------------------------------------------------------------

    def _levels(self, q: int, d: int) -> list[list[int]]:
        # the down-sets over the covers whose pairing q divides, grown through gap d
        if q not in self._tables:
            rows = [tuple((t, gain) for _, t, gain, p in row if p % q == 0) for row in self._covers]
            self._tables[q] = rows, []
        rows, levels = self._tables[q]
        return self._grow(rows, levels, d)

    def _sigma_chain(self, v: int, w: int, d: int, q: int) -> bool:
        # a saturated cover chain from (v, 0) down to (w, d) with sigma-integral pairings, q = sigma's denominator
        return d >= 0 and bool(self._levels(q, d)[d][v] >> d * self.g.num_vertices + w & 1)

    # -- path-level checks -------------------------------------------------------

    def verdict(self, v: int, w: int, d: int, q: int) -> str:
        """The memoised verdict of the segment (v, 0) > (w, d) at denominator q, as its failure message's template."""
        key = v, w, d, q
        if key not in self._verdicts:
            equal = v == w and d == 0
            ordered = not equal and self._sigma_chain(v, w, d, q)
            # any chain in a finite interval refines to a cover chain, so q = 1 decides comparability
            comparable = ordered or not equal and self._sigma_chain(v, w, d, 1)
            self._verdicts[key] = _OK if ordered else _NO_CHAIN if comparable else _NOT_COMPARABLE
        return self._verdicts[key]

    def failure(self, lifted) -> str:
        """The first adjacent pair of a lifted path that is not strictly ordered with a sigma-chain; "" when none is.

        ``lifted`` is any object with ``weights`` ((vertex, delta) orbit
        elements) and ``times`` attributes, as produced by the degree
        module.  A pair's verdict depends only on its two vertices, its delta
        gap and its time's denominator (``verdict``).
        """
        weights, times = lifted.weights, lifted.times
        for k, ((v, a), (w, b), sigma) in enumerate(zip(weights, weights[1:], times[1:])):
            verdict = self.verdict(v, w, b - a, sigma.denominator)
            if verdict:
                return verdict.format(k, k + 1, sigma)
        return ""

    def verify_ls_path(self, lifted) -> bool:
        """Certify a lifted path: adjacent weights strictly ordered with sigma-chains (see ``failure``)."""
        return not self.failure(lifted)

    # -- cover/edge correspondence --------------------------------------------------

    def covers_to_edges(self) -> CoverEdgeReport:
        """Exhaustive two-way check between orbit covers and graph edges, as the equality of two key sets.

        Each cover (v, 0) > (t, k) by the positive root gamma is keyed as it
        is, (v, t, the index of gamma, k).  Each graph edge s -> t labelled
        beta is keyed as the cover it must be: t Lambda = r_{s beta}(s
        Lambda), so the step out of (t, 0) by |s beta| lands on s, with gain
        0 when s beta > 0 (a Bruhat edge, key (t, s, index of s beta, 0)) and
        gain <Lambda, beta^vee> when s beta < 0 (a quantum edge, key (t, s,
        index of -s beta, <Lambda, beta^vee>)).  The signed index of s beta
        (``~k`` for -beta_k) is read by one lookup per letter of s's word in
        ``RootSystem.simple_index_action``.  An edge of the wrong kind puts a
        negative index in its key and a wrong label or target gives a key no
        cover has, so a key on one side only, or an edge key seen twice, is a
        mismatch.  Since (v, n) > (t, n + k) is a cover exactly when (v, 0) >
        (t, k) is, the check holds for every delta.
        """
        g = self.g
        name = lambda v, delta: f"({g.vertex_name(v)}, {delta}d)"
        covers = {(v, t, i, gain) for v, row in enumerate(self._covers) for i, t, gain, _ in row}
        action, words, pairings = g.rs.simple_index_action(), g.words, g.pairings
        edges = Counter()
        for e in g.edges:
            k = e.label
            for j in reversed(words[e.source]):
                k = action[j][k]
            edges[(e.target, e.source, ~k, pairings[e.label]) if e.quantum else (e.target, e.source, k, 0)] += 1

        mismatches = [
            f"edge lift {name(t, 0)} > {name(s, k)} is listed {count} times"
            for (t, s, _, k), count in sorted(edges.items())
            if count > 1
        ]
        for v, t, _, k in sorted(covers - edges.keys()):
            mismatches.append(f"cover {name(v, 0)} > {name(t, k)}: no matching {'affine' if k else 'finite'} edge")
        for t, s, _, k in sorted(edges.keys() - covers):
            mismatches.append(f"edge lift {name(t, 0)} > {name(s, k)} is not a cover")
        return CoverEdgeReport(len(covers), len(g.edges), tuple(mismatches))
