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

Covers never need other reflections, so chain searches over these steps are
exhaustive.  The steps out of (v, n) are those out of (v, 0) shifted by n,
so every order question depends only on the two vertices and the difference
of their delta-coefficients: the memos are keyed that way, and the cover/edge
correspondence is checked once, at delta 0, for every delta.  Delta never
decreases along a step, which bounds every search between the two endpoint
delta-coefficients; the oracle's window, fixed at construction, only guards
entry and is reported distinctly from "no chain".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cartan import pair
from .qbg import PQBG


class InconclusiveSearch(RuntimeError):
    """The requested check does not fit inside the delta window."""


@dataclass(frozen=True)
class AffineOrbitElement:
    vertex: int  # coset-representative vertex in the graph
    delta: int  # integer delta-coefficient


@dataclass(frozen=True)
class RaisingStep:
    kind: str  # "finite" | "affine"
    root: int  # index of gamma among the positive roots
    source: AffineOrbitElement
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
    window: int = 10
    # per vertex v, (root, target vertex, delta gain, pairing) of each step out of (v, 0)
    _steps: list[tuple[tuple[int, int, int, int], ...]] = field(init=False, repr=False)
    _dist_memo: dict = field(default_factory=dict, repr=False)
    _chain_memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError(f"window must be non-negative, not {self.window}")
        g, rs = self.g, self.g.rs
        group = g.group
        # p = <x Lambda, gamma^vee> and the vertex of proj(r_gamma x): a finite
        # step when p < 0, an affine one gaining p when p > 0
        self._steps = []
        for v in range(g.num_vertices):
            w = g.orbit_weight(v)
            steps = []
            for i, c in enumerate(rs.positive_coroots):
                p = pair(w, c)
                if p:
                    target = g.vertex_of_element(group.mul(group.reflection(i), g.rep_id(v)))
                    steps.append((i, target, 0, p) if p < 0 else (i, target, p, -p))
            self._steps.append(tuple(steps))

    def _check_window(self, *elements: AffineOrbitElement) -> None:
        need = max(abs(mu.delta) for mu in elements)
        if need > self.window:
            raise InconclusiveSearch(
                f"|delta| reaches {need}, outside window {self.window}; needs window {need}"
            )

    # -- steps ---------------------------------------------------------------

    def raising_steps(self, mu: AffineOrbitElement) -> tuple[RaisingStep, ...]:
        """All order-lowering steps out of mu over the two admissible root kinds."""
        return tuple(
            RaisingStep("affine" if gain else "finite", i, mu, AffineOrbitElement(t, mu.delta + gain), p)
            for i, t, gain, p in self._steps[mu.vertex]
        )

    # -- order ---------------------------------------------------------------

    def dist(self, mu: AffineOrbitElement, nu: AffineOrbitElement) -> int | None:
        """Maximal chain length from mu down to nu, or None when mu is not above nu.

        Every traversed delta lies between mu.delta and nu.delta, so the
        result is window-independent once both endpoints fit.
        """
        self._check_window(mu, nu)
        return self._dist(mu.vertex, nu.vertex, nu.delta - mu.delta)

    def _dist(self, v: int, w: int, d: int) -> int | None:
        # dist from (v, 0) down to (w, d)
        if d < 0:
            return None
        if v == w and d == 0:
            return 0
        key = (v, w, d)
        if key in self._dist_memo:
            return self._dist_memo[key]
        best = None
        for _, t, gain, _ in self._steps[v]:
            if gain > d:
                continue
            sub = self._dist(t, w, d - gain)
            if sub is not None and (best is None or sub + 1 > best):
                best = sub + 1
        self._dist_memo[key] = best
        return best

    def is_cover(self, mu: AffineOrbitElement, nu: AffineOrbitElement) -> bool:
        return self.dist(mu, nu) == 1

    # -- chains ----------------------------------------------------------------

    def verify_sigma_chain(self, mu: AffineOrbitElement, nu: AffineOrbitElement, sigma: Fraction) -> bool:
        """Whether some saturated cover chain from mu to nu has all pairings sigma-integral."""
        self._check_window(mu, nu)
        return self._sigma_chain(mu.vertex, nu.vertex, nu.delta - mu.delta, sigma.denominator)

    def _sigma_chain(self, v: int, w: int, d: int, q: int) -> bool:
        # a sigma-chain from (v, 0) down to (w, d), sigma of denominator q
        if d < 0:
            return False
        if v == w and d == 0:
            return True
        key = (v, w, d, q)
        if key in self._chain_memo:
            return self._chain_memo[key]
        self._chain_memo[key] = False  # steps strictly descend, so re-entry cannot occur
        ok = False
        for _, t, gain, p in self._steps[v]:
            if gain > d or p % q != 0:
                continue
            if self._dist(v, t, gain) == 1 and self._sigma_chain(t, w, d - gain, q):
                ok = True
                break
        self._chain_memo[key] = ok
        return ok

    # -- path-level checks -------------------------------------------------------

    def verify_ls_path(self, lifted) -> bool:
        """Certify a lifted path: adjacent weights strictly ordered with sigma-chains.

        ``lifted`` is any object with ``weights`` (orbit elements) and
        ``times`` attributes, as produced by the degree module.
        """
        weights = tuple(lifted.weights)
        self._check_window(*weights)
        for k in range(len(weights) - 1):
            v, w, gap = weights[k].vertex, weights[k + 1].vertex, weights[k + 1].delta - weights[k].delta
            d = self._dist(v, w, gap)
            if d is None or d < 1:
                return False
            if not self._sigma_chain(v, w, gap, lifted.times[k + 1].denominator):
                return False
        return True

    # -- cover/edge correspondence --------------------------------------------------

    def _edge_root_from_cover(self, step: RaisingStep) -> tuple[int, ...]:
        # beta = w^{-1} gamma (finite) or -w^{-1} gamma (affine), w the smaller
        # element's representative; returned in simple-root coordinates.
        g = self.g
        group = g.group
        winv = group.inverse(g.rep_id(step.target.vertex))
        coords = group.apply_root_coords(winv, g.rs.positive_roots[step.root].coords)
        if step.kind == "affine":
            coords = tuple(-c for c in coords)
        return coords

    def covers_to_edges(self) -> CoverEdgeReport:
        """Exhaustive two-way check between orbit covers and graph edges.

        Every cover out of each (v, 0) must map to a graph edge of the
        matching kind, and every graph edge must lift to a cover.  Since
        (v, n) > (t, n + k) is a cover exactly when (v, 0) > (t, k) is, the
        check holds for every delta and does not use the window.
        """
        g = self.g
        mismatches: list[str] = []
        covers = 0
        edges_checked = 0

        def name(mu: AffineOrbitElement) -> str:
            return f"({g.vertex_name(mu.vertex)}, {mu.delta}d)"

        for v in range(g.num_vertices):
            mu = AffineOrbitElement(v, 0)
            for step in self.raising_steps(mu):
                if self._dist(v, step.target.vertex, step.target.delta) != 1:
                    continue
                covers += 1
                beta = self._edge_root_from_cover(step)
                idx = g.rs.root_index(beta)
                if idx is None or idx not in g.labels:
                    mismatches.append(f"cover {name(mu)} > {name(step.target)}: bad label {beta}")
                    continue
                e = g.edge(step.target.vertex, idx)
                want_quantum = step.kind == "affine"
                if e is None or e.target != mu.vertex or e.quantum != want_quantum:
                    mismatches.append(
                        f"cover {name(mu)} > {name(step.target)}: no matching {step.kind} edge"
                    )

        for e in g.edges:
            wmoved = g.group.apply_root_coords(g.rep_id(e.source), g.rs.positive_roots[e.label].coords)
            positive = all(c >= 0 for c in wmoved)
            if positive == e.quantum:
                mismatches.append(
                    f"edge {g.vertex_name(e.source)} -> {g.vertex_name(e.target)}: "
                    f"sign of the moved label contradicts the edge kind"
                )
                continue
            edges_checked += 1
            # the smaller element sits at the edge source; its cover partner at
            # the target has delta lowered by the pairing on quantum edges
            gain = 0 if not e.quantum else g.pairings[e.label]
            mu = AffineOrbitElement(e.target, 0)
            nu = AffineOrbitElement(e.source, gain)
            if self._dist(e.target, e.source, gain) != 1:
                mismatches.append(f"edge lift {name(mu)} > {name(nu)} is not a cover")

        return CoverEdgeReport(covers, edges_checked, tuple(mismatches))
