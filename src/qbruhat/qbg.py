"""The parabolic quantum Bruhat graph of one shape and its directed-path machinery.

A graph is built for one dominant shape Lambda, on W^J with J the labels
where Lambda vanishes.  It carries the pairings <Lambda, beta^vee>, which
decide sigma-admissibility, and the orbit x -> x Lambda.

Vertices are the minimal coset representatives, stored under dense indices
0..m-1 (ascending element id).  For a vertex w and a positive root beta
outside the parabolic subsystem there is an edge w -> proj(w r_beta) when
one of the two length conditions holds:

* Bruhat:   len(target) = len(w) + 1
* quantum:  len(target) = len(w) - 2 <rho - rho_J, beta^vee> + 1

The two conditions exclude each other because <rho - rho_J, beta^vee> >= 1
on the allowed labels; this is asserted during the build.

Directed paths are stored in the orientation x = w_0 <- w_1 <- ... <- w_n = y,
i.e. ``vertices[0]`` is the endpoint the walk arrives at and ``labels[k]``
names the graph edge vertices[k+1] -> vertices[k].

Every distance and shortest-path query reads one memoised BFS per (source,
admissible label set); the unrestricted graph is the set of all labels.  A
path follows that BFS's first-discovery edges, so ties go to the first edge
in ``out_edges``.  Strong connectivity is checked when the graph is built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cartan import Coroot, LevelZeroShape, Weight, pair
from .weyl import CosetSystem


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

    @property
    def start(self) -> int:
        return self.vertices[-1]

    @property
    def end(self) -> int:
        return self.vertices[0]


@dataclass(frozen=True)
class SigmaPathResult:
    path: DirectedPath | None
    shortest: bool  # True when path exists with length == directed distance


class PQBG:
    """The graph of one shape on W^J, J = ``shape.parabolic``; all queries are pure."""

    def __init__(self, shape: LevelZeroShape, cs: CosetSystem):
        if cs.J != shape.parabolic:  # only there do the vertices stand for the orbit points x Lambda
            raise ValueError(f"the graph of a shape lives on J = {sorted(shape.parabolic)}, not {sorted(cs.J)}")
        self.shape = shape
        self.rs = shape.rs
        self.cs = cs
        self.group = cs.group
        self.J = cs.J
        self.vertices = cs.reps
        self.num_vertices = len(cs.reps)
        self._build()
        self._names = tuple(self.group.word_name(rep) for rep in self.vertices)
        self.pairings = tuple(pair(shape.classical, c) for c in self.rs.positive_coroots)  # <Lambda, beta^vee>
        self._all_labels = frozenset(self.labels)
        self._admissible_cache: dict[int, frozenset[int]] = {}
        self._search_cache: dict[tuple[int, frozenset[int]], tuple] = {}
        self._check_strongly_connected()

    def _build(self) -> None:
        rs, group, cs = self.rs, self.group, self.cs
        in_J = [False] * rs.num_positive
        for idx, beta in enumerate(rs.positive_roots):
            support = {i + 1 for i, c in enumerate(beta.coords) if c}
            in_J[idx] = support <= self.J
        self.labels = tuple(i for i in range(rs.num_positive) if not in_J[i])

        # 2(rho - rho_J) = sum of positive roots outside the parabolic subsystem
        n = rs.rank
        acc = [0] * n
        for idx in self.labels:
            for k, v in enumerate(rs.root_weight_coords[idx]):
                acc[k] += v
        two_rho_diff = Weight(tuple(acc))
        # rho_J itself may be half-integral in fundamental-weight coordinates
        self.rho_J = tuple(Fraction(2 - a, 2) for a in acc)

        edges: list[QBGEdge] = []
        out: list[list[QBGEdge]] = [[] for _ in range(self.num_vertices)]
        incoming: list[list[QBGEdge]] = [[] for _ in range(self.num_vertices)]
        self._edge_by_source_label: dict[tuple[int, int], QBGEdge] = {}
        for v, rep in enumerate(self.vertices):
            lw = group.length(rep)
            for idx in self.labels:
                drop2 = pair(two_rho_diff, rs.positive_coroots[idx])
                if drop2 < 2:
                    raise RuntimeError("<rho - rho_J, beta^vee> < 1 on an allowed label")
                t_rep = cs.project(group.mul(rep, group.reflection(idx)))
                lt = group.length(t_rep)
                bruhat = lt == lw + 1
                quantum = lt == lw - drop2 + 1
                if bruhat and quantum:
                    raise RuntimeError("edge dichotomy violated")
                if bruhat or quantum:
                    e = QBGEdge(v, cs.rep_position[t_rep], idx, quantum)
                    edges.append(e)
                    out[v].append(e)
                    incoming[e.target].append(e)
                    self._edge_by_source_label[(v, idx)] = e
        key = lambda e: (e.target, e.label)
        self.edges = tuple(edges)
        self.out_edges = tuple(tuple(sorted(es, key=key)) for es in out)
        self.in_edges = tuple(tuple(sorted(es, key=lambda e: (e.source, e.label))) for es in incoming)

    def _check_strongly_connected(self) -> None:
        # every vertex is reached from vertex 0 and reaches it: two traversals
        # that together are equivalent to strong connectivity
        if min(self.distances_from(0)) < 0 or min(self._distances_to(0, self._all_labels)) < 0:
            raise RuntimeError("parabolic quantum Bruhat graph is not strongly connected")

    # -- vertex helpers ----------------------------------------------------

    def rep_id(self, v: int) -> int:
        """Group element id of vertex v."""
        return self.vertices[v]

    def vertex_name(self, v: int) -> str:
        return self._names[v]

    def vertex_of_element(self, elt_id: int) -> int:
        rep = self.cs.project(elt_id)
        return self.cs.rep_position[rep]

    def vertex_of_word(self, text: str) -> int:
        """The vertex a reduced word names; ValueError unless the word is a minimal coset representative."""
        v = self.cs.rep_position.get(self.group.parse_word(text))
        if v is None:
            raise ValueError(f"direction {text!r} is not a minimal coset representative")
        return v

    @cached_property
    def _orbit(self) -> tuple[Weight, ...]:
        # built on first use: only the path evaluation and the oracle read it
        return tuple(self.group.apply_weight(r, self.shape.classical) for r in self.vertices)

    def orbit_weight(self, v: int) -> Weight:
        """x Lambda for the representative x at vertex v."""
        return self._orbit[v]

    def edge(self, source: int, label: int) -> QBGEdge | None:
        return self._edge_by_source_label.get((source, label))

    # -- distances and shortest paths --------------------------------------

    def _admissible_labels(self, sigma: Fraction) -> frozenset[int]:
        q = sigma.denominator
        if q not in self._admissible_cache:
            self._admissible_cache[q] = frozenset(idx for idx in self.labels if self.pairings[idx] % q == 0)
        return self._admissible_cache[q]

    def _search(self, y: int, allowed: frozenset[int]) -> tuple[tuple[int, ...], tuple[QBGEdge | None, ...]]:
        """BFS from y over the edges labelled in ``allowed``, memoised per (y, allowed).

        Returns ``(dist, parent)``: ``dist[x]`` is the length of a shortest
        such path from y to x (-1 when unreachable) and ``parent[x]`` the edge
        that first reached x, scanning ``out_edges`` in order.
        """
        key = (y, allowed)
        found = self._search_cache.get(key)
        if found is None:
            dist = [-1] * self.num_vertices
            parent: list[QBGEdge | None] = [None] * self.num_vertices
            dist[y] = 0
            dq = deque([y])
            while dq:
                v = dq.popleft()
                for e in self.out_edges[v]:
                    if dist[e.target] < 0 and e.label in allowed:
                        dist[e.target] = dist[v] + 1
                        parent[e.target] = e
                        dq.append(e.target)
            found = self._search_cache[key] = (tuple(dist), tuple(parent))
        return found

    def _distances_to(self, x: int, allowed: frozenset[int]) -> list[int]:
        """Distance of every vertex to x over the edges labelled in ``allowed``; -1 if x is out of reach."""
        to_x = [-1] * self.num_vertices
        to_x[x] = 0
        dq = deque([x])
        while dq:
            v = dq.popleft()
            for e in self.in_edges[v]:
                if to_x[e.source] < 0 and e.label in allowed:
                    to_x[e.source] = to_x[v] + 1
                    dq.append(e.source)
        return to_x

    def _path(self, x: int, y: int, allowed: frozenset[int]) -> DirectedPath | None:
        """The path from y to x along the parent edges of ``_search(y, allowed)``."""
        dist, parent = self._search(y, allowed)
        if dist[x] < 0:
            return None
        vertices = [x]
        labels = []
        quantum = []
        while x != y:
            e = parent[x]
            labels.append(e.label)
            quantum.append(e.quantum)
            x = e.source
            vertices.append(x)
        return DirectedPath(tuple(vertices), tuple(labels), tuple(quantum))

    def distances_from(self, y: int) -> tuple[int, ...]:
        """BFS distances from y along edge orientation; -1 marks unreachable.

        Read from the memoised BFS that ``shortest_path`` also follows.
        """
        return self._search(y, self._all_labels)[0]

    def directed_distance(self, x: int, y: int) -> int:
        """Length of a shortest directed path from y to x."""
        return self.distances_from(y)[x]

    def sigma_distances_from(self, y: int, sigma: Fraction) -> tuple[int, ...]:
        """Like ``distances_from``, inside the sigma-admissible subgraph."""
        return self._search(y, self._admissible_labels(sigma))[0]

    def shortest_path(self, x: int, y: int) -> DirectedPath:
        """A shortest directed path from y to x; ties go to the first edge in ``out_edges``."""
        path = self._path(x, y, self._all_labels)
        if path is None:
            raise RuntimeError("graph is strongly connected; no path is a bug")
        return path

    def sigma_path(self, x: int, y: int, sigma: Fraction) -> SigmaPathResult:
        """A shortest path from y to x inside the sigma-admissible subgraph, if any.

        The path is rebuilt from the same memoised BFS that
        ``sigma_distances_from`` reads, so ties go to the first edge in
        ``out_edges``.  ``shortest`` reports whether that path is as short as
        an unrestricted one, i.e. whether the pair satisfies the strong
        segment condition.
        """
        if not 0 < sigma < 1:
            raise ValueError(f"sigma must lie strictly between 0 and 1, got {sigma}")
        path = self._path(x, y, self._admissible_labels(sigma))
        if path is None:
            return SigmaPathResult(None, False)
        return SigmaPathResult(path, path.length == self.directed_distance(x, y))

    # -- weights -----------------------------------------------------------

    def path_weight(self, path: DirectedPath) -> Coroot:
        """Sum of beta^vee over the quantum-kind steps of the path."""
        acc = [0] * self.rs.rank
        for label, q in zip(path.labels, path.quantum):
            if q:
                for k, c in enumerate(self.rs.positive_coroots[label].coords):
                    acc[k] += c
        return Coroot(tuple(acc))

    # -- export --------------------------------------------------------------

    def root_name(self, label: int) -> str:
        coords = self.rs.positive_roots[label].coords
        terms = []
        for i, c in enumerate(coords):
            if c == 0:
                continue
            terms.append(f"a{i + 1}" if c == 1 else f"{c}a{i + 1}")
        return "+".join(terms)

    def to_dot(self) -> str:
        """Deterministic DOT rendering: solid Bruhat arrows, dashed quantum ones, pairings in brackets."""
        lines = ["digraph pqbg {"]
        for v in range(self.num_vertices):
            lines.append(f'  n{v} [label="{self.vertex_name(v)}"];')
        for e in sorted(self.edges, key=lambda e: (e.source, e.label)):
            coords = ",".join(map(str, self.rs.positive_roots[e.label].coords))
            label = f"{self.root_name(e.label)} ({coords}) [{self.pairings[e.label]}]"
            style = ' style="dashed"' if e.quantum else ""
            lines.append(f'  n{e.source} -> n{e.target} [label="{label}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_pqbg(shape: LevelZeroShape, cs: CosetSystem) -> PQBG:
    return PQBG(shape, cs)
