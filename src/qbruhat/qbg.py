"""The parabolic quantum Bruhat graph of one shape and its directed-path machinery.

A graph is built for one dominant shape Lambda, on W^J with J the labels
where Lambda vanishes.  It carries the pairings <Lambda, beta^vee>, which
decide sigma-admissibility, and the orbit x -> x Lambda.

The vertices W^J are built as the orbit W Lambda, with no Weyl group: a BFS
from Lambda applies r_i where <mu, alpha_i^vee> > 0, raising the length by
one (Deodhar).  Each orbit link mu -- r_i mu is reflected once, from its
lower end, and written at both ends; the BFS walks points in order of
length, so a point's down-links are written before it is walked.  Vertex x
is its orbit point and its lexicographically least reduced word
``words[x]`` (the least i with <mu, alpha_i^vee> < 0, then the word of
r_i mu); indices follow (length, word).  For a vertex w and a positive
root beta outside the parabolic subsystem there is an edge w -> w r_beta when
one of the two length conditions holds:

* Bruhat:   len(target) = len(w) + 1
* quantum:  len(target) = len(w) - 2 <rho - rho_J, beta^vee> + 1

The two conditions coincide only where <rho - rho_J, beta^vee> = 0, and it
is >= 1 on the allowed labels; this is asserted once per label, before any
edge is built, so each (vertex, label) pair is decided by one ``if``/``elif``
on the target's length.  ``in_edges[x]`` is filled in (source, label)
order; the out-lists are then filled by walking it in ascending target
order, so ``out_edges[w]`` comes out in (target, label) order by
construction.  The build and the vertex names make only acyclic containers
(tuples, lists of ints and of edges, strings), so the cyclic collector,
which would otherwise walk them again and again as they grow (44 to 57
collections per build of D5 and B4 regular, 2 with the pause), is paused
across them and the caller's setting restored afterwards, also when the
build raises.

Directed paths are stored in the orientation x = w_0 <- w_1 <- ... <- w_n = y,
i.e. ``vertices[0]`` is the endpoint the walk arrives at and ``labels[k]``
names the graph edge vertices[k+1] -> vertices[k].

Whole-graph distances come from one BFS per source, memoised per source
(``distances_from``).  A segment query of source y and denominator q runs
one sparse BFS from y inside the subgraph of the edges whose pairing q
divides (the sigma-admissible edges for every sigma of denominator q),
carrying the q-distance and the tree's energy; it is memoised per (y, q),
and the subgraph's adjacency per q.  A reached x is strong, some
q-admissible path to it being shortest in the whole graph, exactly when its
q-distance d is dist(y, x), i.e. when dist(y, x) > d - 1.  A single query
reads that from the BFS from y.  The successor tables, which query every
source, first build the reach layers (``build_reach_layers``): R[k][x], the
bitset of the sources y with dist(y, x) <= k, grown by or-ing R[k][s] over
the in-edges s -> x until stable, about N^2/8 bytes per layer.  Once built,
every distance the segment searches need is one bit of them.  Neither
structure is built by the constructor, so the graph alone costs nothing more.

Every public query is one read of one memoised search: ``distances_from``
returns the whole-graph BFS itself, ``sigma_distances_from`` and
``segment_energies`` are read-only views of the (y, q) search's distances
and energies, and ``sigma_path`` reads its path back from those distances.
None of them copies a search into a row of length N.

At every strong x the q-tree energy must equal wt_Lambda(y => x) read back
along one shortest path of the whole graph (memoised per pair): all shortest
paths agree modulo Q_J^vee (Lenart-Naito-Sagaki-Schilling-Shimozono,
arXiv:1211.2042), so a mismatch raises RuntimeError.  Paths are read back from
x, each step over the first admissible edge of ``in_edges`` one step nearer y,
so ties go to the least (source, label).  The build checks strong
connectivity: the BFS from vertex 0 reaches every vertex, and every vertex
reaches vertex 0 by ``_distances_to``, an unmemoised reverse BFS.
"""

from __future__ import annotations

import gc
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .cartan import LevelZeroShape, Weight, pair


class QBGEdge(NamedTuple):
    source: int  # vertex index
    target: int  # vertex index
    label: int  # index into rs.positive_roots
    quantum: bool

    @property
    def kind(self) -> str:
        return "quantum" if self.quantum else "bruhat"


@dataclass(frozen=True)
class DirectedPath:
    """A directed path, oriented target-first (see the module docstring)."""

    vertices: tuple[int, ...]
    labels: tuple[int, ...]
    quantum: tuple[bool, ...]

    @property
    def length(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class SigmaPathResult:
    path: DirectedPath | None
    shortest: bool  # True when path exists with length == directed distance


_GENERATOR_NAMES = tuple(f"s{j}" for j in range(9))  # ranks are at most 8


def word_name(word: tuple[int, ...]) -> str:
    return " ".join(map(_GENERATOR_NAMES.__getitem__, word)) or "e"


def _denominator(sigma: Fraction) -> int:
    """The denominator of sigma, which alone decides admissibility; ValueError unless 0 < sigma < 1."""
    if not 0 < sigma.numerator < sigma.denominator:
        raise ValueError(f"sigma must lie strictly between 0 and 1, got {sigma}")
    return sigma.denominator


class PQBG:
    """The graph of one shape on W^J, J = ``shape.parabolic``; all queries are pure.

    ``words[v]`` is the reduced word of vertex v.  ``edges`` is in (source,
    label) order: vertices ascending, and the labels of each vertex ascending;
    ``in_edges[x]`` is in (source, label) order and ``out_edges[w]`` in
    (target, label) order.
    """

    def __init__(self, shape: LevelZeroShape):
        self.shape = shape
        self.rs = shape.rs
        self.J = shape.parabolic
        self.pairings = tuple(pair(shape.multiplicities, c) for c in self.rs.positive_coroots)  # <Lambda, beta^vee>
        # the build makes no reference cycles, so the cyclic collector's passes over
        # its growing containers would find nothing: paused, then the caller's state restored
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._build()
            self._names = tuple(map(word_name, self.words))
        finally:
            if collecting:
                gc.enable()
        self._search_cache: dict[int, tuple[int, ...]] = {}
        self._layers: list[list[int]] | None = None
        self._energies: dict[tuple[int, int], int] = {}
        self._adjacent: dict[int, list[list[tuple[int, int]]]] = {}
        self._segment_cache: dict[tuple[int, int], tuple[dict[int, int], dict[int, int]]] = {}
        self._candidates: tuple[Fraction, ...] | None = None  # the memo of ``qls.sigma_candidates``
        self._check_strongly_connected()

    def _build(self) -> None:
        rs, lam, rank = self.rs, self.shape.multiplicities, self.rs.rank
        outside = lambda beta: any(c and i + 1 not in self.J for i, c in enumerate(beta))
        self.labels = tuple(idx for idx, beta in enumerate(rs.positive_roots) if outside(beta))  # roots outside Phi_J
        # the orbit by BFS from Lambda (points grows while it is walked), so by
        # length; left[p][i] is the point r_{i+1} mu_p, mu_p itself when fixed.
        # Each link is reflected once, from its lower end (m = <mu, alpha_i^vee>
        # > 0), and written at both ends: the lower end is walked first, so a
        # point's down-links are all written before the walk reaches it.
        # r_i mu = mu - m alpha_i moves only the coordinates j where row i of
        # the Cartan matrix is nonzero: moves[i] lists (j, c)
        moves = [[(j, c) for j, c in enumerate(alpha) if c] for alpha in rs.cartan]
        points, index, left, length = [lam], {lam: 0}, [[0] * rank], [0]
        for p, mu in enumerate(points):
            row, up = left[p], length[p] + 1
            for i, m in enumerate(mu):
                if m > 0:
                    nu = list(mu)
                    for j, c in moves[i]:
                        nu[j] -= m * c
                    nu = tuple(nu)
                    q = index.get(nu)
                    if q is None:
                        q = index[nu] = len(points)
                        points.append(nu)
                        left.append([q] * rank)
                        length.append(up)
                    row[i] = q
                    left[q][i] = p
        n = len(points)
        words = [()]
        for p in range(1, n):
            mu, i = points[p], 0
            while mu[i] >= 0:  # the least i with <mu, alpha_i^vee> < 0; mu_p is not dominant for p > 0
                i += 1
            words.append((i + 1, *words[left[p][i]]))
        order = sorted(range(n), key=list(zip(length, words)).__getitem__)
        vertex = [0] * n
        for v, p in enumerate(order):
            vertex[p] = v
        self.num_vertices = n
        self.words = tuple(map(words.__getitem__, order))
        self._orbit = tuple(map(points.__getitem__, order))
        self._vertex_by_point = dict(zip(self._orbit, range(n)))
        # from here on in vertex indices: length[v], and reflect[i][v] the vertex
        # s_{i+1} x for x the vertex v.  Each table is dropped once read, so the
        # edges and their tuples below are made without the dead ones held.
        length = list(map(length.__getitem__, order))
        reflect = [list(map(vertex.__getitem__, map(column.__getitem__, order))) for column in zip(*left)]
        del left, index, vertex
        # target[v][k]: the vertex x r_beta for x the vertex v and beta = labels[k];
        # r_beta itself at e, and for x = s_i x', i the first letter of x's word,
        # s_i applied to the target of x', which is shorter and so comes first
        target = [[self._vertex_by_point[rs.reflect_weight(lam, idx)] for idx in self.labels]]
        for v in range(1, n):
            step = reflect[self.words[v][0] - 1]
            target.append(list(map(step.__getitem__, target[step[v]])))
        del reflect

        # 2(rho - rho_J) = sum of positive roots outside the parabolic subsystem
        two_rho_diff = tuple(map(sum, zip(*(rs.root_weight_coords[idx] for idx in self.labels))))
        drops = [pair(two_rho_diff, rs.positive_coroots[idx]) for idx in self.labels]
        if any(d < 2 for d in drops):
            raise RuntimeError("<rho - rho_J, beta^vee> < 1 on an allowed label")

        # edges are made by tuple.__new__, which skips the NamedTuple constructor's call
        new, steps = tuple.__new__, list(zip(self.labels, drops))
        edges: list[QBGEdge] = []
        incoming: list[list[QBGEdge]] = [[] for _ in range(n)]
        for v, row in enumerate(target):
            up = length[v] + 1
            for (idx, drop2), w in zip(steps, row):
                # both conditions hold only when drop2 == 0, which the check above refuses
                lw = length[w]
                if lw == up:
                    quantum = False
                elif lw == up - drop2:
                    quantum = True
                else:
                    continue
                e = new(QBGEdge, (v, w, idx, quantum))
                edges.append(e)
                incoming[w].append(e)
        del target
        out: list[list[QBGEdge]] = [[] for _ in range(n)]
        for es in incoming:  # targets ascending, so each out-list comes out in (target, label) order
            for e in es:
                out[e[0]].append(e)
        self.edges = tuple(edges)
        self.out_edges = tuple(map(tuple, out))
        self.in_edges = tuple(map(tuple, incoming))  # appended in (source, label) order

    def _check_strongly_connected(self) -> None:
        # every vertex is reached from vertex 0 and reaches it: two traversals
        # that together are equivalent to strong connectivity
        if min(self.distances_from(0)) < 0 or min(self._distances_to(0)) < 0:
            raise RuntimeError("parabolic quantum Bruhat graph is not strongly connected")

    # -- vertex helpers ----------------------------------------------------

    def vertex_name(self, v: int) -> str:
        return self._names[v]

    def vertex_of_word(self, text: str) -> int:
        """The vertex a word names; ValueError unless the word is reduced and names a minimal coset representative.

        Accepts 's1', 'r1' or bare '1' tokens, and 'e' for the identity.
        The word's element u = v z, with v the vertex of its orbit point and
        z in W_J, has length len(v) + len(z) <= the token count k; so the
        word names v exactly when k = len(v).
        """
        word = []
        for tok in text.split():
            if tok == "e":
                continue
            body = tok[1:] if tok[0] in ("s", "r") else tok
            if not (body.isascii() and body.isdigit()):
                raise ValueError(f"bad generator token {tok!r}")
            j = int(body)
            if not 1 <= j <= self.rs.rank:
                raise ValueError(f"generator index {j} out of range 1..{self.rs.rank}")
            word.append(j)
        v = self.vertex_at(self.rs.apply_weight(word, self.shape.multiplicities))
        if len(word) == len(self.words[v]):
            return v
        # len(u) counted as #{gamma > 0 : <u rho, gamma^vee> < 0}
        u_rho = self.rs.apply_weight(word, self.rs.rho)
        if sum(pair(u_rho, c) < 0 for c in self.rs.positive_coroots) != len(word):
            raise ValueError(f"direction {text!r} is not a reduced word")
        raise ValueError(f"direction {text!r} is not a minimal coset representative")

    def orbit_weight(self, v: int) -> Weight:
        """x Lambda for the representative x at vertex v."""
        return self._orbit[v]

    def vertex_at(self, point: Weight) -> int:
        """The vertex x with x Lambda = point; KeyError off the orbit."""
        return self._vertex_by_point[point]

    # -- distances and shortest paths --------------------------------------

    def _distances_to(self, x: int) -> list[int]:
        """Distance of every vertex to x; -1 if x is out of reach."""
        to_x = [-1] * self.num_vertices
        to_x[x] = 0
        dq = deque([x])
        while dq:
            v = dq.popleft()
            for e in self.in_edges[v]:
                if to_x[e.source] < 0:
                    to_x[e.source] = to_x[v] + 1
                    dq.append(e.source)
        return to_x

    def build_reach_layers(self) -> None:
        """Build R[k][x], the bitset of the sources y with dist(y, x) <= k, for k up to the diameter, once.

        R[0][x] holds x alone and R[k + 1][x] is R[k][x] or'ed with R[k][s]
        over the in-edges s -> x, grown until stable, so the last layer holds
        every source (21 layers on D5 regular).  A layer costs about N^2/8
        bytes.  From then on ``_within`` reads one bit instead of the BFS from
        the source, so a caller about to query the segments of every source
        builds them first; a single query does not need them.
        """
        if self._layers is None:
            layers = [[1 << x for x in range(self.num_vertices)]]
            sources = [[e.source for e in es] for es in self.in_edges]
            while True:
                layer = layers[-1]
                grown = []
                for x, ss in enumerate(sources):
                    bits = layer[x]
                    for s in ss:
                        bits |= layer[s]
                    grown.append(bits)
                if grown == layer:
                    break
                layers.append(grown)
            self._layers = layers

    def _within(self, y: int, x: int, k: int) -> bool:
        """Whether dist(y, x) <= k, for k >= 0: bit y of R[k][x] once the layers are built, else the BFS from y."""
        layers = self._layers
        if layers is None:
            return self.distances_from(y)[x] <= k
        return k >= len(layers) or layers[k][x] >> y & 1 == 1  # the last layer holds every source

    def _step_back(self, y: int, x: int, d: int) -> QBGEdge:
        """The first in-edge of x, d = dist(y, x) >= 1, whose source is one step nearer y."""
        return next(e for e in self.in_edges[x] if self._within(y, e.source, d - 1))

    def _energy(self, y: int, x: int, d: int) -> int:
        """wt_Lambda(y => x), d = dist(y, x), along one shortest path of the whole graph, memoised per pair.

        The path is read back from x by ``_step_back``, so ties go to the
        least (source, label); the recursion is d deep, at most the diameter.
        """
        if x == y:
            return 0
        if (y, x) not in self._energies:
            e = self._step_back(y, x, d)
            gain = self.pairings[e.label] if e.quantum else 0
            self._energies[y, x] = self._energy(y, e.source, d - 1) + gain
        return self._energies[y, x]

    def _segment(self, y: int, q: int) -> tuple[dict[int, int], dict[int, int]]:
        """The BFS from y inside the subgraph of the edges whose pairing q divides, memoised per (y, q).

        Returns ``(dist, energy)``: ``dist[x]`` is the q-distance of every
        reached x, and ``energy[x]`` is wt_Lambda(y => x) for the strong x,
        those whose q-distance d is dist(y, x): exactly the x with
        dist(y, x) > d - 1, by ``_within``.  There the q-admissible tree path
        is a shortest path too and must carry the energy ``_energy`` reads
        along a shortest path of the whole graph: RuntimeError otherwise.
        """
        found = self._segment_cache.get((y, q))
        if found is None:
            adjacent = self._adjacent.get(q)
            if adjacent is None:
                pairings = self.pairings
                adjacent = self._adjacent[q] = [
                    [(e.target, pairings[e.label] if e.quantum else 0) for e in es if pairings[e.label] % q == 0]
                    for es in self.out_edges
                ]
            dist, tree, reached = {y: 0}, {y: 0}, [y]
            for v in reached:  # grows while it is walked
                d, here = dist[v] + 1, tree[v]
                for t, gain in adjacent[v]:
                    if t not in dist:
                        dist[t] = d
                        tree[t] = here + gain
                        reached.append(t)
            energy = {y: 0}
            for x in reached[1:]:
                d = dist[x]
                if not self._within(y, x, d - 1):
                    e = self._energy(y, x, d)
                    if e != tree[x]:
                        raise RuntimeError(f"shortest paths from vertex {y} to {x} carry energies {e} and {tree[x]}")
                    energy[x] = e
            found = self._segment_cache[y, q] = (dist, energy)
        return found

    def distances_from(self, y: int) -> tuple[int, ...]:
        """Distances from y over the whole graph (-1 when unreachable), by a BFS memoised per y."""
        found = self._search_cache.get(y)
        if found is None:
            dist = [-1] * self.num_vertices
            dist[y] = 0
            dq = deque([y])
            while dq:
                v = dq.popleft()
                for e in self.out_edges[v]:
                    if dist[e.target] < 0:
                        dist[e.target] = dist[v] + 1
                        dq.append(e.target)
            found = self._search_cache[y] = tuple(dist)
        return found

    def sigma_distances_from(self, y: int, sigma: Fraction) -> Mapping[int, int]:
        """The q-distance of every x a sigma-admissible path from y reaches, y itself included.

        A read-only view of the memoised distances of ``_segment`` at the
        denominator q of sigma; an x out of reach is not a key.
        """
        return MappingProxyType(self._segment(y, _denominator(sigma))[0])

    def sigma_path(self, x: int, y: int, sigma: Fraction) -> SigmaPathResult:
        """A shortest path from y to x inside the sigma-admissible subgraph, if any.

        The path is read back from x over the distances of the search that
        ``sigma_distances_from`` reads, each step over the first admissible
        in-edge one step nearer y, so ties go to the least (source, label).
        ``shortest`` reports whether that path is as short as an unrestricted
        one, i.e. whether the pair satisfies the strong segment condition.
        """
        q = _denominator(sigma)
        dist, energy = self._segment(y, q)
        if x not in dist:
            return SigmaPathResult(None, False)
        shortest = x in energy
        vertices, labels, quantum = [x], [], []
        while x != y:
            nearer = dist[x] - 1
            e = next(e for e in self.in_edges[x] if dist.get(e.source) == nearer and self.pairings[e.label] % q == 0)
            labels.append(e.label)
            quantum.append(e.quantum)
            x = e.source
            vertices.append(x)
        return SigmaPathResult(DirectedPath(tuple(vertices), tuple(labels), tuple(quantum)), shortest)

    def segment_energies(self, y: int, sigma: Fraction) -> Mapping[int, int]:
        """wt_Lambda(y => x) for the x some sigma-admissible shortest path from y reaches, y itself included.

        A read-only view of the memoised, checked energies of ``_segment`` at
        the denominator of sigma.
        """
        return MappingProxyType(self._segment(y, _denominator(sigma))[1])  # sigma is range-checked on a warm entry too

    # -- export --------------------------------------------------------------

    def root_name(self, label: int) -> str:
        terms = []
        for i, c in enumerate(self.rs.positive_roots[label]):
            if c == 0:
                continue
            terms.append(f"a{i + 1}" if c == 1 else f"{c}a{i + 1}")
        return "+".join(terms)

    def to_dot(self) -> list[str]:
        """Deterministic DOT rendering, one text per line: solid Bruhat arrows, dashed quantum ones.

        An edge's label is its root's name and coordinates, then its pairing in
        brackets; each label's text is rendered once.
        """
        roots = self.rs.positive_roots
        text = {i: f"{self.root_name(i)} ({','.join(map(str, roots[i]))}) [{self.pairings[i]}]" for i in self.labels}
        style = ("", ' style="dashed"')
        return [
            "digraph pqbg {",
            *(f'  n{v} [label="{name}"];' for v, name in enumerate(self._names)),
            *(f'  n{e.source} -> n{e.target} [label="{text[e.label]}"{style[e.quantum]}];' for e in self.edges),
            "}",
        ]


def build_pqbg(shape: LevelZeroShape) -> PQBG:
    return PQBG(shape)
