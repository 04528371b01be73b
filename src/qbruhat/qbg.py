"""The parabolic quantum Bruhat graph of one shape and its directed-path machinery.

A graph is built for one dominant shape Lambda, on W^J with J the labels
where Lambda vanishes.  It carries the pairings <Lambda, beta^vee>, which
decide sigma-admissibility, and the orbit x -> x Lambda.

The vertices W^J are built as the orbit W Lambda, with no Weyl group: a BFS
from Lambda applies r_i where <mu, alpha_i^vee> > 0, raising the length by
one (Deodhar).  Vertex x is its orbit point and its lexicographically least
reduced word ``words[x]`` (the least i with <mu, alpha_i^vee> < 0, then the
word of r_i mu); indices follow (length, word).  For a vertex w and a positive
root beta outside the parabolic subsystem there is an edge w -> w r_beta when
one of the two length conditions holds:

* Bruhat:   len(target) = len(w) + 1
* quantum:  len(target) = len(w) - 2 <rho - rho_J, beta^vee> + 1

The two conditions exclude each other because <rho - rho_J, beta^vee> >= 1
on the allowed labels; this is asserted during the build.

Directed paths are stored in the orientation x = w_0 <- w_1 <- ... <- w_n = y,
i.e. ``vertices[0]`` is the endpoint the walk arrives at and ``labels[k]``
names the graph edge vertices[k+1] -> vertices[k].

Every public distance, shortest-path and energy query reads one memoised BFS
per source y and denominator q: an edge is sigma-admissible when q divides
its pairing, and q = 1 is the unrestricted graph.  For q = 1 the BFS sums the
pairings of the quantum steps along its tree: the energy wt_Lambda(y => x)
of the paper, which does not depend on the shortest path chosen, since all
of them agree modulo Q_J^vee (Lenart-Naito-Sagaki-Schilling-Shimozono,
arXiv:1211.2042).  For q > 1 it keeps that energy where a q-admissible path
is shortest, after re-checking it against the q-admissible tree.  A path is
read back from x, each step over the first q-admissible edge of ``in_edges``
one step nearer y, so ties go to the least (source, label).  The build checks
strong connectivity: the BFS from vertex 0 reaches every vertex, and every
vertex reaches vertex 0 by ``_distances_to``, an unmemoised reverse BFS.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .cartan import LevelZeroShape, Weight, pair


@dataclass(frozen=True)
class QBGEdge:
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


def word_name(word: tuple[int, ...]) -> str:
    return "e" if not word else " ".join(f"s{j}" for j in word)


def _denominator(sigma: Fraction) -> int:
    """The denominator of sigma, which alone decides admissibility; ValueError unless 0 < sigma < 1."""
    if not 0 < sigma.numerator < sigma.denominator:
        raise ValueError(f"sigma must lie strictly between 0 and 1, got {sigma}")
    return sigma.denominator


class PQBG:
    """The graph of one shape on W^J, J = ``shape.parabolic``; all queries are pure.

    ``words[v]`` is the reduced word of vertex v.  ``edges`` is in (source,
    label) order: vertices ascending, and the labels of each vertex ascending.
    """

    def __init__(self, shape: LevelZeroShape):
        self.shape = shape
        self.rs = shape.rs
        self.J = shape.parabolic
        self.pairings = tuple(pair(shape.multiplicities, c) for c in self.rs.positive_coroots)  # <Lambda, beta^vee>
        self._build()
        self._names = tuple(map(word_name, self.words))
        self._search_cache: dict[tuple[int, int], tuple] = {}
        self._check_strongly_connected()

    def _build(self) -> None:
        rs, lam = self.rs, self.shape.multiplicities
        outside = lambda beta: any(c and i + 1 not in self.J for i, c in enumerate(beta))
        self.labels = tuple(idx for idx, beta in enumerate(rs.positive_roots) if outside(beta))  # roots outside Phi_J
        # the orbit by BFS from Lambda (points grows while it is walked), so by
        # length; left[p][i] is the point r_{i+1} mu_p, mu_p itself when fixed
        points, index, left = [lam], {lam: 0}, []
        for mu in points:
            images = [tuple(a - mu[i] * c for a, c in zip(mu, alpha)) for i, alpha in enumerate(rs.cartan)]
            for nu in images:
                if nu not in index:
                    index[nu] = len(points)
                    points.append(nu)
            left.append([index[nu] for nu in images])
        words = [()]
        for p in range(1, len(points)):
            i = next(i for i, c in enumerate(points[p]) if c < 0)
            words.append((i + 1, *words[left[p][i]]))
        # target[p][k]: the point x r_beta Lambda, beta = labels[k] and x the vertex
        # of mu_p; r_beta Lambda at e, and r_i applied to the target of x' at s_i x'
        target = [[index[rs.reflect_weight(lam, idx)] for idx in self.labels]]
        for p in range(1, len(points)):
            i = words[p][0] - 1
            target.append([left[t][i] for t in target[left[p][i]]])
        order = sorted(range(len(points)), key=lambda p: (len(words[p]), words[p]))
        vertex = {p: v for v, p in enumerate(order)}
        self.num_vertices = len(points)
        self.words = tuple(words[p] for p in order)
        self._orbit = tuple(points[p] for p in order)
        self._vertex_by_point = {point: v for v, point in enumerate(self._orbit)}

        # 2(rho - rho_J) = sum of positive roots outside the parabolic subsystem
        two_rho_diff = tuple(map(sum, zip(*(rs.root_weight_coords[idx] for idx in self.labels))))
        drops = [pair(two_rho_diff, rs.positive_coroots[idx]) for idx in self.labels]
        if any(d < 2 for d in drops):
            raise RuntimeError("<rho - rho_J, beta^vee> < 1 on an allowed label")

        edges: list[QBGEdge] = []
        out: list[list[QBGEdge]] = [[] for _ in range(self.num_vertices)]
        incoming: list[list[QBGEdge]] = [[] for _ in range(self.num_vertices)]
        for v, p in enumerate(order):
            lw = len(words[p])
            for idx, drop2, t in zip(self.labels, drops, target[p]):
                lt = len(words[t])
                bruhat = lt == lw + 1
                quantum = lt == lw - drop2 + 1
                if bruhat and quantum:
                    raise RuntimeError("edge dichotomy violated")
                if bruhat or quantum:
                    e = QBGEdge(v, vertex[t], idx, quantum)
                    edges.append(e)
                    out[v].append(e)
                    incoming[e.target].append(e)
        key = lambda e: (e.target, e.label)
        self.edges = tuple(edges)
        self.out_edges = tuple(tuple(sorted(es, key=key)) for es in out)
        self.in_edges = tuple(map(tuple, incoming))  # appended in (source, label) order

    def _check_strongly_connected(self) -> None:
        # every vertex is reached from vertex 0 and reaches it: two traversals
        # that together are equivalent to strong connectivity
        if min(self.distances_from(0)) < 0 or min(self._distances_to(0, 1)) < 0:
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

    def _search(self, y: int, q: int) -> tuple[tuple[int, ...], tuple[int | None, ...]]:
        """BFS from y over the edges whose pairing q divides, memoised per (y, q).

        Returns ``(dist, energy)``: ``dist[x]`` is the length of a shortest
        such path from y to x (-1 when unreachable).  For q = 1, ``energy[x]``
        sums the pairings of the quantum steps on the tree path from y to x;
        for q > 1 it is that unrestricted energy where the two distances
        agree, and None elsewhere.  There the q-admissible tree path is a
        shortest path too and must carry the same energy: RuntimeError otherwise.
        """
        key = (y, q)
        found = self._search_cache.get(key)
        if found is None:
            dist = [-1] * self.num_vertices
            energy: list[int | None] = [0] * self.num_vertices
            pairings = self.pairings
            dist[y] = 0
            dq = deque([y])
            while dq:
                v = dq.popleft()
                for e in self.out_edges[v]:
                    if dist[e.target] < 0 and pairings[e.label] % q == 0:
                        dist[e.target] = dist[v] + 1
                        energy[e.target] = energy[v] + pairings[e.label] if e.quantum else energy[v]
                        dq.append(e.target)
            if q > 1:
                full, tree = self._search(y, 1)
                qrow = [se if s == d else None for d, s, se in zip(full, dist, energy)]
                energy = [e if s == d else None for d, s, e in zip(full, dist, tree)]
                if energy != qrow:
                    x, e = next((x, e) for x, e in enumerate(energy) if e != qrow[x])
                    raise RuntimeError(f"shortest paths from vertex {y} to {x} carry energies {e} and {qrow[x]}")
            found = self._search_cache[key] = (tuple(dist), tuple(energy))
        return found

    def _distances_to(self, x: int, q: int) -> list[int]:
        """Distance of every vertex to x over the edges whose pairing q divides; -1 if x is out of reach."""
        to_x = [-1] * self.num_vertices
        to_x[x] = 0
        dq = deque([x])
        while dq:
            v = dq.popleft()
            for e in self.in_edges[v]:
                if to_x[e.source] < 0 and self.pairings[e.label] % q == 0:
                    to_x[e.source] = to_x[v] + 1
                    dq.append(e.source)
        return to_x

    def _path(self, x: int, y: int, q: int) -> DirectedPath | None:
        """A shortest q-admissible path from y to x, read back from x along the first nearer in-edges."""
        dist = self._search(y, q)[0]
        if dist[x] < 0:
            return None
        vertices = [x]
        labels = []
        quantum = []
        while x != y:
            e = next(e for e in self.in_edges[x] if dist[e.source] == dist[x] - 1 and self.pairings[e.label] % q == 0)
            labels.append(e.label)
            quantum.append(e.quantum)
            x = e.source
            vertices.append(x)
        return DirectedPath(tuple(vertices), tuple(labels), tuple(quantum))

    def distances_from(self, y: int) -> tuple[int, ...]:
        """BFS distances from y along edge orientation; -1 marks unreachable."""
        return self._search(y, 1)[0]

    def sigma_distances_from(self, y: int, sigma: Fraction) -> tuple[int, ...]:
        """Like ``distances_from``, inside the sigma-admissible subgraph."""
        return self._search(y, _denominator(sigma))[0]

    def sigma_path(self, x: int, y: int, sigma: Fraction) -> SigmaPathResult:
        """A shortest path from y to x inside the sigma-admissible subgraph, if any.

        The path is read back from x over the distances that
        ``sigma_distances_from`` reads, so ties go to the least (source,
        label).  ``shortest`` reports whether that path is as short as an
        unrestricted one, i.e. whether the pair satisfies the strong
        segment condition.
        """
        path = self._path(x, y, _denominator(sigma))
        if path is None:
            return SigmaPathResult(None, False)
        return SigmaPathResult(path, path.length == self.distances_from(y)[x])

    def segment_energies(self, y: int, sigma: Fraction) -> tuple[int | None, ...]:
        """wt_Lambda(y => x) for every x; None where no shortest path from y to x is sigma-admissible.

        The energy row of ``_search(y, denominator of sigma)``, which is
        checked against the sigma-admissible tree when it is built.
        """
        return self._search(y, _denominator(sigma))[1]  # sigma is range-checked on a warm entry too

    # -- export --------------------------------------------------------------

    def root_name(self, label: int) -> str:
        terms = []
        for i, c in enumerate(self.rs.positive_roots[label]):
            if c == 0:
                continue
            terms.append(f"a{i + 1}" if c == 1 else f"{c}a{i + 1}")
        return "+".join(terms)

    def to_dot(self) -> str:
        """Deterministic DOT rendering: solid Bruhat arrows, dashed quantum ones, pairings in brackets."""
        lines = ["digraph pqbg {"]
        for v in range(self.num_vertices):
            lines.append(f'  n{v} [label="{self.vertex_name(v)}"];')
        for e in self.edges:
            coords = ",".join(map(str, self.rs.positive_roots[e.label]))
            label = f"{self.root_name(e.label)} ({coords}) [{self.pairings[e.label]}]"
            style = ' style="dashed"' if e.quantum else ""
            lines.append(f'  n{e.source} -> n{e.target} [label="{label}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_pqbg(shape: LevelZeroShape) -> PQBG:
    return PQBG(shape)
