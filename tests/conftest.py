"""Shared fixtures and helpers: cached contexts, the reference root system and root action, the reference Weyl
group, exhaustive path walks, the reference enumeration walk, lift chains, the graph, path and oracle queries that
only the tests ask, and the ``qbg`` JSON document built as dicts."""

from __future__ import annotations

import functools
import json
from collections import deque
from fractions import Fraction

import pytest

from qbruhat import build_context
from qbruhat.affine_oracle import AffineOrbitElement
from qbruhat.cartan import Coroot, FiniteType, build_root_system, cartan_matrix, positive_root_count
from qbruhat.degree import lift
from qbruhat.qbg import DirectedPath
from qbruhat.qls import EnumerationCap, QLSPath, _structure_ok, _successors, sigma_candidates, time_ticks
from qbruhat.weyl import coset_system, enumerate_group


@functools.lru_cache(maxsize=None)
def cached_context(type_name: str, mults: tuple[int, ...]):
    return build_context(type_name, mults)


@pytest.fixture(scope="session")
def a2_21():
    return cached_context("A2", (2, 1))


@pytest.fixture(scope="session")
def a2_11():
    return cached_context("A2", (1, 1))


@pytest.fixture(scope="session")
def a2_10():
    return cached_context("A2", (1, 0))


@pytest.fixture(scope="session")
def a1_1():
    return cached_context("A1", (1,))


@pytest.fixture(scope="session")
def c2_11():
    return cached_context("C2", (1, 1))


@pytest.fixture(scope="session")
def a3_010():
    return cached_context("A3", (0, 1, 0))


@pytest.fixture(scope="session")
def d4_0100():
    return cached_context("D4", (0, 1, 0, 0))


# -- the reference root system: the full closure under simple reflections ------


def reference_root_system(ftype: FiniteType) -> dict:
    """A root system's fields from the closure of all roots, negative ones included, under every simple reflection.

    Each root carries its coroot through the closure; the weight coordinates
    are recomputed as C^T c.  Roots are ordered as in ``RootSystem``: the
    simple roots, then the rest by (height, coords).
    """
    n = ftype.rank
    C = cartan_matrix(ftype)

    def reflect_root(c: tuple[int, ...], j: int) -> tuple[int, ...]:
        # r_j(beta) = beta - <beta, alpha_j^vee> alpha_j
        out = list(c)
        out[j] -= sum(c[i] * C[i][j] for i in range(n))
        return tuple(out)

    def reflect_coroot(d: tuple[int, ...], j: int) -> tuple[int, ...]:
        # r_j(h) = h - <alpha_j, h> alpha_j^vee
        out = list(d)
        out[j] -= sum(d[i] * C[j][i] for i in range(n))
        return tuple(out)

    unit = lambda i: tuple(1 if k == i else 0 for k in range(n))
    seen = {unit(i): unit(i) for i in range(n)}
    queue = list(seen)
    while queue:
        c = queue.pop()
        for j in range(n):
            c2, d2 = reflect_root(c, j), reflect_coroot(seen[c], j)
            if c2 not in seen:
                seen[c2] = d2
                queue.append(c2)
            assert seen[c2] == d2, "inconsistent root/coroot closure"
    positives = [c for c in seen if all(x >= 0 for x in c)]
    assert len(seen) == 2 * len(positives) == 2 * positive_root_count(ftype)
    ordered = [unit(i) for i in range(n)] + sorted((c for c in positives if sum(c) > 1), key=lambda c: (sum(c), c))
    heights = [sum(c) for c in ordered]
    return {
        "positive_roots": tuple(ordered),
        "positive_coroots": tuple(seen[c] for c in ordered),
        "root_weight_coords": tuple(
            tuple(sum(c[i] * C[i][j] for i in range(n)) for j in range(n)) for c in ordered
        ),
        "highest_root": heights.index(max(heights)),
        "num_positive": len(ordered),
        "rho": (1,) * n,
    }


def apply_root_coords(rs, word, coords: tuple[int, ...]) -> tuple[int, ...]:
    """A root in simple-root coordinates moved by the element a word names: its simple reflections (1-based labels)
    applied right to left, each r_j(beta) = beta - <beta, alpha_j^vee> alpha_j summed over the Cartan matrix."""
    C = rs.cartan
    out = list(coords)
    for j in reversed(word):
        out[j - 1] -= sum(c * row[j - 1] for c, row in zip(out, C))
    return tuple(out)


# -- the reference: the enumerated Weyl group and its cosets W^J ---------------


@functools.lru_cache(maxsize=None)
def type_group(type_name: str):
    """The enumerated Weyl group of a type, built once per type."""
    return enumerate_group(build_root_system(FiniteType.parse(type_name)))


@functools.lru_cache(maxsize=None)
def _cosets(type_name: str, J: frozenset[int]):
    return coset_system(type_group(type_name), J)


def group_cosets(ctx):
    """The reference group of the context's type and its coset system on J = ``ctx.shape.parabolic``."""
    name = str(ctx.rs.type)
    return type_group(name), _cosets(name, ctx.shape.parabolic)


def element_of_word(group, word: str) -> int:
    """Group element id of a word of 's1', 'r1' or bare '1' tokens ('e' is the identity), by the right multiplication table."""
    a = 0
    for tok in word.split():
        if tok != "e":
            a = group.right_gen(a, int(tok.lstrip("sr")))
    return a


def vertex_by_word(ctx, word: str) -> int:
    """The vertex of the coset of any word, through the group table and the coset projection."""
    group, cs = group_cosets(ctx)
    return cs.rep_position[cs.projection[element_of_word(group, word)]]


# Shapes of A1-A5, B2-B4, C2-C4, D4-D5, F4 and G2 on which the graph and the
# oracle are compared with group-built references: per type a regular shape
# (J empty), one with a minuscule J (a fundamental weight for F4 and G2, which
# have no minuscule weight) and, from rank 2 on, one with a mixed J.
_REFERENCE_SHAPES = [
    ("A1", (1,)),
    ("A2", (1, 1)), ("A2", (1, 0)),
    ("A3", (1, 1, 1)), ("A3", (0, 1, 0)), ("A3", (1, 0, 1)),
    ("A4", (1, 1, 1, 1)), ("A4", (0, 1, 0, 0)), ("A4", (1, 0, 0, 1)),
    ("A5", (1, 1, 1, 1, 1)), ("A5", (0, 0, 1, 0, 0)), ("A5", (1, 0, 1, 0, 0)),
    ("B2", (1, 1)), ("B2", (0, 1)), ("B2", (2, 0)),
    ("B3", (1, 1, 1)), ("B3", (0, 0, 1)), ("B3", (1, 1, 0)),
    ("B4", (1, 1, 1, 1)), ("B4", (0, 0, 0, 1)), ("B4", (0, 1, 0, 1)),
    ("C2", (1, 1)), ("C2", (1, 0)), ("C2", (0, 2)),
    ("C3", (1, 1, 1)), ("C3", (1, 0, 0)), ("C3", (1, 0, 2)),
    ("C4", (1, 1, 1, 1)), ("C4", (1, 0, 0, 0)), ("C4", (0, 1, 1, 0)),
    ("D4", (1, 1, 1, 1)), ("D4", (0, 0, 0, 1)), ("D4", (1, 0, 1, 0)),
    ("D5", (1, 1, 1, 1, 1)), ("D5", (0, 0, 0, 0, 1)), ("D5", (1, 0, 0, 1, 0)),
    ("F4", (1, 1, 1, 1)), ("F4", (0, 0, 0, 1)), ("F4", (1, 0, 1, 0)),
    ("G2", (1, 1)), ("G2", (1, 0)), ("G2", (0, 2)),
]
REFERENCE_SHAPES = pytest.mark.parametrize(
    "name,mults", _REFERENCE_SHAPES, ids=[f"{n}-{','.join(map(str, m))}" for n, m in _REFERENCE_SHAPES]
)


# -- exhaustive path walks: reference checks for the graph's BFS queries ------


class PathEnumerationCap(RuntimeError):
    """Exhaustive path enumeration exceeded its configured budget."""


def _reversed_path(vertices: list[int], labels: list[int], quantum: list[bool]) -> DirectedPath:
    return DirectedPath(tuple(reversed(vertices)), tuple(reversed(labels)), tuple(reversed(quantum)))


def admissible_labels(g, sigma: Fraction) -> frozenset[int]:
    """The labels whose pairing sigma times is an integer."""
    return frozenset(idx for idx in g.labels if g.pairings[idx] * sigma % 1 == 0)


def distances_to(g, x: int, q: int) -> list[int]:
    """Distance of every vertex to x over the edges whose pairing q divides; -1 if x is out of reach."""
    to_x = [-1] * g.num_vertices
    to_x[x] = 0
    dq = deque([x])
    while dq:
        v = dq.popleft()
        for e in g.in_edges[v]:
            if to_x[e.source] < 0 and g.pairings[e.label] % q == 0:
                to_x[e.source] = to_x[v] + 1
                dq.append(e.source)
    return to_x


def all_paths_up_to(
    g, x: int, y: int, max_len: int | None = None, cap: int = 200_000, sigma: Fraction | None = None
) -> list[DirectedPath]:
    """Every directed path (vertex revisits allowed) from y to x of bounded length.

    With ``sigma`` given, only sigma-admissible edges are walked.  Raises
    PathEnumerationCap when the exploration budget is exhausted.
    """
    if max_len is None:
        max_len = 2 * g.rs.num_positive
    allowed = frozenset(g.labels) if sigma is None else admissible_labels(g, sigma)
    found: list[DirectedPath] = []
    budget = [cap]

    def walk(v: int, vertices: list[int], labels: list[int], quantum: list[bool]) -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise PathEnumerationCap(f"path enumeration exceeded cap {cap}")
        if v == x:
            found.append(_reversed_path(vertices, labels, quantum))
        if len(labels) == max_len:
            return
        for e in g.out_edges[v]:
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


def shortest_sigma_paths(g, x: int, y: int, sigma: Fraction) -> list[DirectedPath]:
    """All sigma-admissible paths from y to x of minimal sigma-admissible length."""
    allowed = admissible_labels(g, sigma)
    to_x = distances_to(g, x, sigma.denominator)
    if to_x[y] < 0:
        return []
    found: list[DirectedPath] = []

    def walk(v: int, vertices: list[int], labels: list[int], quantum: list[bool]) -> None:
        if v == x:
            found.append(_reversed_path(vertices, labels, quantum))
            return
        for e in g.out_edges[v]:
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


def validate_path(g, path: DirectedPath) -> None:
    """Re-check that every step of the path is a graph edge with the stated kind."""
    if len(path.vertices) != len(path.labels) + 1 or len(path.labels) != len(path.quantum):
        raise ValueError("ill-formed path arrays")
    for k in range(len(path.labels)):
        e = next((e for e in g.out_edges[path.vertices[k + 1]] if e.label == path.labels[k]), None)
        if e is None or e.target != path.vertices[k] or e.quantum != path.quantum[k]:
            raise ValueError(f"step {k} is not an edge of the graph")


# -- the segment-table reference: one full BFS row per source and denominator ---


def reference_search(g, y: int, q: int, unrestricted=None) -> tuple[tuple[int, ...], tuple[int | None, ...]]:
    """BFS from y over the edges whose pairing q divides, in the order of ``out_edges``.

    Returns ``(dist, energy)``: ``dist[x]`` is the length of a shortest such
    path from y to x (-1 when unreachable).  For q = 1, ``energy[x]`` sums the
    pairings of the quantum steps on the tree path from y to x; for q > 1 it
    is that unrestricted energy where the two distances agree, and None
    elsewhere.  There the q-admissible tree path is a shortest path too and
    must carry the same energy: RuntimeError otherwise.  ``unrestricted`` is
    the q = 1 result from y, computed when not given.
    """
    dist = [-1] * g.num_vertices
    energy: list[int | None] = [0] * g.num_vertices
    dist[y] = 0
    dq = deque([y])
    while dq:
        v = dq.popleft()
        for e in g.out_edges[v]:
            if dist[e.target] < 0 and g.pairings[e.label] % q == 0:
                dist[e.target] = dist[v] + 1
                energy[e.target] = energy[v] + g.pairings[e.label] if e.quantum else energy[v]
                dq.append(e.target)
    if q > 1:
        full, tree = unrestricted or reference_search(g, y, 1)
        qrow = [se if s == d else None for d, s, se in zip(full, dist, energy)]
        energy = [e if s == d else None for d, s, e in zip(full, dist, tree)]
        if energy != qrow:
            x, e = next((x, e) for x, e in enumerate(energy) if e != qrow[x])
            raise RuntimeError(f"shortest paths from vertex {y} to {x} carry energies {e} and {qrow[x]}")
    return tuple(dist), tuple(energy)


def reference_successors(g, candidates) -> tuple[list, list]:
    """The strong and the weak tables of ``qls._successors``, from the N-long rows of ``reference_search``.

    Every source's q = 1 row is kept while the tables are built, and each
    q > 1 row only while it is read.
    """
    n = g.num_vertices
    unrestricted: dict[int, tuple] = {}
    strong: dict[int, list] = {}
    weak: dict[int, list] = {}
    for sigma in candidates:
        q = sigma.denominator
        if q in strong:
            continue
        strong[q], weak[q] = [[] for _ in range(n)], [[] for _ in range(n)]
        for y in range(n):
            if y not in unrestricted:
                unrestricted[y] = reference_search(g, y, 1)
            dist, energy = reference_search(g, y, q, unrestricted[y])
            for x in range(n):
                if x != y and energy[x] is not None:
                    strong[q][x].append((y, energy[x]))
                if x != y and dist[x] >= 0:
                    weak[q][x].append((y, None))
    return [strong[s.denominator] for s in candidates], [weak[s.denominator] for s in candidates]


# -- the walk reference: a depth-first walk and one global sort ----------------


def reference_walk(g, strong: bool, cap: int) -> tuple[tuple[Fraction, ...], list[tuple]]:
    """The records of ``qls._walk``, (dirs, candidate indices, energies), from a depth-first walk.

    Every path is extended by every later candidate index, empty successor
    lists included, and the records are sorted once, on (number of
    directions, dirs, indices), at the end.  The cap is refused as the walk
    refuses it: before any time is built when the straight and two-direction
    paths alone exceed it, else as soon as the count does.
    """
    if g.num_vertices + max((g.pairings[e.label] for e in g.edges), default=1) - 1 > cap:
        raise EnumerationCap(f"more than {cap} paths")
    candidates = sigma_candidates(g)
    succ = _successors(g, candidates, strong)
    found: list[tuple] = []
    stack: list[tuple] = [((start,), (), (), -1) for start in range(g.num_vertices)]
    while stack:
        dirs, idx, energies, last = stack.pop()
        found.append((len(dirs), dirs, idx, energies))
        if len(found) > cap:
            raise EnumerationCap(f"more than {cap} paths")
        for si in range(last + 1, len(candidates)):
            for nxt, energy in succ[si][dirs[-1]]:
                stack.append(((*dirs, nxt), (*idx, si), (*energies, energy), si))
    found.sort()
    return candidates, [record[1:] for record in found]


# -- lift chains: the cover chains between adjacent lifted weights ------------


def segment_chains(g, path) -> tuple[tuple[AffineOrbitElement, ...], ...]:
    """Per segment, the chain its shortest sigma-admissible path induces between adjacent lifted weights.

    The p-th chain starts at the p-th lifted weight and walks the path from
    x_p back to x_{p+1}; a quantum step adds the pairing of its label to the
    running delta-coefficient and a Bruhat step leaves it unchanged.
    """
    weights = lift(path, g).weights
    chains = []
    for p, (x_cur, x_next, sigma) in enumerate(path.turning_points()):
        d = g.sigma_path(x_cur, x_next, sigma).path
        delta = weights[p].delta
        chain = [weights[p]]
        for k in range(d.length):
            if d.quantum[k]:
                delta += g.pairings[d.labels[k]]
            chain.append(AffineOrbitElement(d.vertices[k + 1], delta))
        assert chain[-1] == weights[p + 1], "segment chain does not land on the next lifted weight"
        chains.append(tuple(chain))
    return tuple(chains)


# -- graph and path queries: shortest paths, validators, evaluation, JSON ----


def shortest_path(g, x: int, y: int) -> DirectedPath:
    """A shortest directed path from y to x, read back from x by ``PQBG._step_back``; ties go to the least
    (predecessor, label).  It is the path along which the graph reads the energy wt_Lambda(y => x)."""
    vertices, labels, quantum = [x], [], []
    d = g.distances_from(y)[x]
    while x != y:
        e = g._step_back(y, x, d)
        labels.append(e.label)
        quantum.append(e.quantum)
        x, d = e.source, d - 1
        vertices.append(x)
    return DirectedPath(tuple(vertices), tuple(labels), tuple(quantum))


def path_weight(g, path: DirectedPath) -> Coroot:
    """Sum of beta^vee over the quantum steps of the path."""
    coroots = [g.rs.positive_coroots[label] for label, q in zip(path.labels, path.quantum) if q]
    return tuple(sum(c[k] for c in coroots) for k in range(g.rs.rank))


def path_sort_key(path: QLSPath):
    """The canonical order of enumeration: number of directions, then directions, then times."""
    return (len(path.directions), path.directions, path.times)


def is_hat_path(g, path: QLSPath) -> bool:
    """Independent validator for the strong variant."""
    return _structure_ok(g, path.directions, *time_ticks(path.times)) and all(
        g.sigma_path(x, y, sigma).shortest for x, y, sigma in path.turning_points()
    )


def is_tilde_path(g, path: QLSPath) -> bool:
    """Independent validator for the weak variant."""
    return _structure_ok(g, path.directions, *time_ticks(path.times)) and all(
        g.sigma_path(x, y, sigma).path is not None for x, y, sigma in path.turning_points()
    )


def evaluate(g, path: QLSPath, t: Fraction) -> tuple[Fraction, ...]:
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
        for i, c in enumerate(g.orbit_weight(dirs[k - 1])):
            acc[i] += (min(t, hi) - lo) * c
        if t <= hi:
            break
    return tuple(acc)


def path_from_json(g, record: dict) -> QLSPath:
    """The path of a ``{"dirs": [words], "times": [fraction strings]}`` record."""
    return QLSPath(tuple(g.vertex_of_word(w) for w in record["dirs"]), tuple(Fraction(t) for t in record["times"]))


def qbg_document(type_name: str, mults: tuple[int, ...]) -> str:
    """The ``qbg`` JSON document built as dicts and dumped by ``json.dumps(doc, indent=2)``: the reference
    for the CLI, which writes it from per-vertex and per-label texts."""
    g = cached_context(type_name, mults).graph
    doc = {
        "schema": "qbruhat/qbg/1",
        "type": type_name,
        "lambda": list(mults),
        "parabolic": sorted(g.J),
        "vertices": [
            {"index": v, "word": g.vertex_name(v), "length": len(g.words[v])} for v in range(g.num_vertices)
        ],
        "edges": [
            {
                "source": g.vertex_name(e.source),
                "target": g.vertex_name(e.target),
                "label": g.root_name(e.label),
                "pairing": g.pairings[e.label],
                "kind": e.kind,
            }
            for e in g.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# -- oracle queries: longest chains and sigma-chains, references for the down-sets ----


def dist(oracle, mu: AffineOrbitElement, nu: AffineOrbitElement) -> int | None:
    """Maximal chain length from mu down to nu over the oracle's steps, or None when mu is not above nu.

    The reference for the oracle's covers: the steps whose longest chain has
    length 1.  The memo, keyed by (vertex, vertex, delta difference), lives
    on the oracle and goes with it.
    """
    steps, memo = oracle._steps, vars(oracle).setdefault("_reference_dist_memo", {})

    def longest(v: int, w: int, d: int) -> int | None:
        if d < 0:
            return None
        if v == w and d == 0:
            return 0
        key = (v, w, d)
        if key not in memo:
            subs = [longest(t, w, d - gain) for _, t, gain, _ in steps[v]]
            memo[key] = max((sub + 1 for sub in subs if sub is not None), default=None)
        return memo[key]

    return longest(mu.vertex, nu.vertex, nu.delta - mu.delta)


def sigma_chain_reference(oracle, v: int, w: int, d: int, q: int) -> bool:
    """Whether a saturated cover chain runs from (v, 0) down to (w, d) with every pairing divisible by q.

    The reference for the oracle's chain bits: a memoised search down the
    oracle's covers.  The memo, keyed by (vertex, vertex, delta difference,
    q), lives on the oracle and goes with it.
    """
    covers, memo = oracle._covers, vars(oracle).setdefault("_reference_chain_memo", {})

    def chain(u: int, gap: int) -> bool:
        if gap < 0:
            return False
        if u == w and gap == 0:
            return True
        key = (u, w, gap, q)
        if key not in memo:
            memo[key] = any(p % q == 0 and chain(t, gap - gain) for _, t, gain, p in covers[u])
        return memo[key]

    return chain(v, d)


def verify_sigma_chain(oracle, mu: AffineOrbitElement, nu: AffineOrbitElement, sigma: Fraction) -> bool:
    """Whether some saturated cover chain from mu to nu has all pairings sigma-integral."""
    return oracle._sigma_chain(mu.vertex, nu.vertex, nu.delta - mu.delta, sigma.denominator)
