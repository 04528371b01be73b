"""The parabolic quantum Bruhat graph and its directed-path machinery.

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

from .cartan import Coroot, RootSystem, Weight, pair
from .weyl import CosetSystem


class PathEnumerationCap(RuntimeError):
    """Exhaustive path enumeration exceeded its configured budget."""


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
    """Immutable graph object; all queries are pure."""

    def __init__(self, rs: RootSystem, cs: CosetSystem):
        self.rs = rs
        self.cs = cs
        self.group = cs.group
        self.J = cs.J
        self.vertices = cs.reps
        self.num_vertices = len(cs.reps)
        self._build()
        self._names = tuple(self.group.word_name(rep) for rep in self.vertices)
        self._all_labels = frozenset(self.labels)
        self._admissible_cache: dict[tuple[int, tuple[int, ...]], frozenset[int]] = {}
        self._search_cache: dict[tuple[int, frozenset[int]], tuple] = {}
        self._pair_cache: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._orbit_cache: dict[tuple[int, ...], tuple[Weight, ...]] = {}
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

    def orbit_weight(self, v: int, lam: Weight) -> Weight:
        """w Lambda for the representative at vertex v."""
        cached = self._orbit_cache.get(lam.coords)
        if cached is None:
            cached = tuple(self.group.apply_weight(r, lam) for r in self.vertices)
            self._orbit_cache[lam.coords] = cached
        return cached[v]

    def pair_values(self, lam: Weight) -> tuple[int, ...]:
        """<Lambda, beta^vee> for every positive root, indexed like positive_roots."""
        cached = self._pair_cache.get(lam.coords)
        if cached is None:
            cached = tuple(pair(lam, c) for c in self.rs.positive_coroots)
            self._pair_cache[lam.coords] = cached
        return cached

    def edge(self, source: int, label: int) -> QBGEdge | None:
        return self._edge_by_source_label.get((source, label))

    # -- distances and shortest paths --------------------------------------

    def _admissible_labels(self, sigma: Fraction, lam: Weight) -> frozenset[int]:
        key = (sigma.denominator, lam.coords)
        if key not in self._admissible_cache:
            values = self.pair_values(lam)
            self._admissible_cache[key] = frozenset(idx for idx in self.labels if values[idx] % key[0] == 0)
        return self._admissible_cache[key]

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

    def sigma_distances_from(self, y: int, sigma: Fraction, lam: Weight) -> tuple[int, ...]:
        """Like ``distances_from``, inside the sigma-admissible subgraph."""
        return self._search(y, self._admissible_labels(sigma, lam))[0]

    def shortest_path(self, x: int, y: int) -> DirectedPath:
        """A shortest directed path from y to x; ties go to the first edge in ``out_edges``."""
        path = self._path(x, y, self._all_labels)
        if path is None:
            raise RuntimeError("graph is strongly connected; no path is a bug")
        return path

    def sigma_path(self, x: int, y: int, sigma: Fraction, lam: Weight) -> SigmaPathResult:
        """A shortest path from y to x inside the sigma-admissible subgraph, if any.

        The path is rebuilt from the same memoised BFS that
        ``sigma_distances_from`` reads, so ties go to the first edge in
        ``out_edges``.  ``shortest`` reports whether that path is as short as
        an unrestricted one, i.e. whether the pair satisfies the strong
        segment condition.
        """
        if not 0 < sigma < 1:
            raise ValueError(f"sigma must lie strictly between 0 and 1, got {sigma}")
        path = self._path(x, y, self._admissible_labels(sigma, lam))
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

    # -- exhaustive enumeration ---------------------------------------------

    def all_paths_up_to(
        self,
        x: int,
        y: int,
        max_len: int | None = None,
        cap: int = 200_000,
        sigma: Fraction | None = None,
        lam: Weight | None = None,
    ) -> list[DirectedPath]:
        """Every directed path (vertex revisits allowed) from y to x of bounded length.

        With ``sigma``/``lam`` given, only sigma-admissible edges are walked.
        Raises PathEnumerationCap when the exploration budget is exhausted.
        """
        if max_len is None:
            max_len = 2 * self.rs.num_positive
        allowed = self._all_labels if sigma is None else self._admissible_labels(sigma, lam)
        found: list[DirectedPath] = []
        budget = [cap]

        def walk(v: int, vertices: list[int], labels: list[int], quantum: list[bool]) -> None:
            budget[0] -= 1
            if budget[0] < 0:
                raise PathEnumerationCap(f"path enumeration exceeded cap {cap}")
            if v == x:
                found.append(
                    DirectedPath(tuple(reversed(vertices)), tuple(reversed(labels)), tuple(reversed(quantum)))
                )
            if len(labels) == max_len:
                return
            for e in self.out_edges[v]:
                if e.label not in allowed:
                    continue
                vertices.append(e.target)
                labels.append(e.label)
                quantum.append(e.quantum)
                walk(e.target, vertices, labels, quantum)
                vertices.pop()
                labels.pop()
                quantum.pop()

        walk(y, [y], [], [])
        return found

    def shortest_sigma_paths(
        self, x: int, y: int, sigma: Fraction, lam: Weight
    ) -> list[DirectedPath]:
        """All sigma-admissible paths from y to x of minimal sigma-admissible length."""
        allowed = self._admissible_labels(sigma, lam)
        to_x = self._distances_to(x, allowed)
        if to_x[y] < 0:
            return []
        found: list[DirectedPath] = []

        def walk(v: int, vertices: list[int], labels: list[int], quantum: list[bool]) -> None:
            if v == x:
                found.append(
                    DirectedPath(tuple(reversed(vertices)), tuple(reversed(labels)), tuple(reversed(quantum)))
                )
                return
            for e in self.out_edges[v]:
                if e.label in allowed and to_x[e.target] == to_x[v] - 1:
                    vertices.append(e.target)
                    labels.append(e.label)
                    quantum.append(e.quantum)
                    walk(e.target, vertices, labels, quantum)
                    vertices.pop()
                    labels.pop()
                    quantum.pop()

        walk(y, [y], [], [])
        return found

    # -- export --------------------------------------------------------------

    def root_name(self, label: int) -> str:
        coords = self.rs.positive_roots[label].coords
        terms = []
        for i, c in enumerate(coords):
            if c == 0:
                continue
            terms.append(f"a{i + 1}" if c == 1 else f"{c}a{i + 1}")
        return "+".join(terms)

    def to_dot(self, lam: Weight | None = None) -> str:
        """Deterministic DOT rendering: solid Bruhat arrows, dashed quantum ones."""
        lines = ["digraph pqbg {"]
        for v in range(self.num_vertices):
            lines.append(f'  n{v} [label="{self.vertex_name(v)}"];')
        values = self.pair_values(lam) if lam is not None else None
        for e in sorted(self.edges, key=lambda e: (e.source, e.label)):
            tag = self.root_name(e.label)
            coords = ",".join(map(str, self.rs.positive_roots[e.label].coords))
            label = f"{tag} ({coords})"
            if values is not None:
                label += f" [{values[e.label]}]"
            style = ' style="dashed"' if e.quantum else ""
            lines.append(f'  n{e.source} -> n{e.target} [label="{label}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_pqbg(rs: RootSystem, cs: CosetSystem) -> PQBG:
    return PQBG(rs, cs)


def validate_path(g: PQBG, path: DirectedPath) -> None:
    """Re-check that every step of the path is a graph edge with the stated kind."""
    if len(path.vertices) != len(path.labels) + 1 or len(path.labels) != len(path.quantum):
        raise ValueError("ill-formed path arrays")
    for k in range(len(path.labels)):
        e = g.edge(path.vertices[k + 1], path.labels[k])
        if e is None or e.target != path.vertices[k] or e.quantum != path.quantum[k]:
            raise ValueError(f"step {k} is not an edge of the graph")
