"""Exact arithmetic for finite root systems of the simple Lie types.

Coordinate conventions, fixed once for the whole package.  Roots, coroots
and weights (orbit points ``x Lambda`` among them) are plain int tuples; the
aliases ``Root``, ``Coroot`` and ``Weight`` name their bases in signatures:

* roots carry integer coordinates in the simple-root basis,
* coroots carry integer coordinates in the simple-coroot basis,
* weights carry integer coordinates in the fundamental-weight basis.

The fundamental-weight basis is dual to the simple-coroot basis, so pairing
a weight with a coroot is a plain integer dot product; every other pairing
routes through the Cartan matrix ``C[i][j] = <alpha_i, alpha_j^vee>``.
Simple-root labels are 1-based (``alpha_1 .. alpha_n``); coordinate tuples
are positional.

All arithmetic is exact: integers everywhere, ``fractions.Fraction`` where
denominators occur.  Python integers are unbounded, so overflow cannot
happen silently.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass

_RANK_RANGE = {
    "A": (1, 8),
    "B": (2, 8),
    "C": (2, 8),
    "D": (4, 8),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_EXCEPTIONAL_POSITIVE_COUNTS = {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}
_EXCEPTIONAL_WEYL_ORDERS = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600, ("F", 4): 1152, ("G", 2): 12}


@dataclass(frozen=True)
class FiniteType:
    """A simple Cartan type (family letter plus rank), validated on creation."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _RANK_RANGE:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = _RANK_RANGE[self.family]
        if not lo <= self.rank <= hi:
            raise ValueError(f"rank {self.rank} invalid for family {self.family} (allowed {lo}..{hi})")

    @classmethod
    def parse(cls, text: str) -> "FiniteType":
        text = text.strip()
        if len(text) < 2 or not (text[1:].isascii() and text[1:].isdigit()):
            raise ValueError(f"cannot parse type {text!r}; expected e.g. 'A2' or 'C2'")
        return cls(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def positive_root_count(ftype: FiniteType) -> int:
    """Number of positive roots, from the classical closed-form counts."""
    n = ftype.rank
    if ftype.family == "A":
        return n * (n + 1) // 2
    if ftype.family in ("B", "C"):
        return n * n
    if ftype.family == "D":
        return n * (n - 1)
    return _EXCEPTIONAL_POSITIVE_COUNTS[(ftype.family, n)]


def weyl_order(ftype: FiniteType) -> int:
    """Order of the finite Weyl group, from the classical product formulas."""
    n = ftype.rank
    if ftype.family == "A":
        return math.factorial(n + 1)
    if ftype.family in ("B", "C"):
        return 2**n * math.factorial(n)
    if ftype.family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return _EXCEPTIONAL_WEYL_ORDERS[(ftype.family, n)]


def cartan_matrix(ftype: FiniteType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix C with C[i][j] = <alpha_i, alpha_j^vee> (0-based storage).

    Numbering follows the standard affine-table conventions for the finite
    part of an untwisted type: in B_n the last node is the short root, in
    C_n the last node is the long root, in F4 nodes 1,2 are long, and in G2
    node 1 is the long root.  E-series nodes use the common branch layout
    with node 2 attached to node 4 of the chain 1-3-4-5-...-n.
    """
    n = ftype.rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i: int, j: int, a: int = -1, b: int = -1) -> None:
        # 1-based nodes; C[i][j] = a means <alpha_i, alpha_j^vee> = a
        C[i - 1][j - 1] = a
        C[j - 1][i - 1] = b

    fam = ftype.family
    if fam == "A":
        for i in range(1, n):
            link(i, i + 1)
    elif fam == "B":
        for i in range(1, n - 1):
            link(i, i + 1)
        link(n - 1, n, -2, -1)  # alpha_n short
    elif fam == "C":
        for i in range(1, n - 1):
            link(i, i + 1)
        link(n - 1, n, -1, -2)  # alpha_n long
    elif fam == "D":
        for i in range(1, n - 1):
            link(i, i + 1)
        # re-route the last edge to make the fork at n-2
        C[n - 2][n - 1] = C[n - 1][n - 2] = 0
        link(n - 2, n - 1)
        link(n - 2, n)
    elif fam == "E":
        link(1, 3)
        link(2, 4)
        for i in range(3, n):
            link(i, i + 1)
    elif fam == "F":
        link(1, 2)
        link(2, 3, -2, -1)  # alpha_3 short
        link(3, 4)
    elif fam == "G":
        link(1, 2, -3, -1)  # alpha_1 long
    return tuple(tuple(row) for row in C)


Root = tuple[int, ...]
Coroot = tuple[int, ...]
Weight = tuple[int, ...]


def pair(w: Weight, c: Coroot) -> int:
    """Duality pairing <w, c>.  Exact because the two bases are dual."""
    return sum(a * b for a, b in zip(w, c))


class RootSystem:
    """Positive roots/coroots of a simple type, generated by reflection closure.

    ``positive_roots[i-1]`` is the simple root ``alpha_i``; the remaining
    positive roots follow sorted by (height, coords).  ``positive_coroots``
    is the parallel coroot list (``beta -> beta^vee`` tracked through the
    closure), ``highest_root`` indexes theta and ``rho`` is the half-sum of
    positive roots, i.e. (1,...,1) in fundamental-weight coordinates.
    """

    def __init__(self, ftype: FiniteType):
        self.type = ftype
        self.rank = ftype.rank
        self.cartan = cartan_matrix(ftype)
        self._generate()

    def _generate(self) -> None:
        n = self.rank
        C = self.cartan

        def reflect_root(c: tuple[int, ...], j: int) -> tuple[int, ...]:
            # r_j(beta) = beta - <beta, alpha_j^vee> alpha_j, 0-based j
            k = sum(c[i] * C[i][j] for i in range(n))
            out = list(c)
            out[j] -= k
            return tuple(out)

        def reflect_coroot(d: tuple[int, ...], j: int) -> tuple[int, ...]:
            # r_j(h) = h - <alpha_j, h> alpha_j^vee
            k = sum(d[i] * C[j][i] for i in range(n))
            out = list(d)
            out[j] -= k
            return tuple(out)

        unit = lambda i: tuple(1 if k == i else 0 for k in range(n))
        seen: dict[tuple[int, ...], tuple[int, ...]] = {unit(i): unit(i) for i in range(n)}
        queue = list(seen.keys())
        while queue:
            c = queue.pop()
            d = seen[c]
            for j in range(n):
                c2, d2 = reflect_root(c, j), reflect_coroot(d, j)
                if c2 not in seen:
                    seen[c2] = d2
                    queue.append(c2)
                elif seen[c2] != d2:
                    raise RuntimeError("inconsistent root/coroot closure")

        positives = [c for c in seen if all(x >= 0 for x in c)]
        simples = [unit(i) for i in range(n)]
        rest = sorted((c for c in positives if sum(c) > 1), key=lambda c: (sum(c), c))
        ordered = simples + rest
        if len(ordered) != len(positives) or len(positives) != positive_root_count(self.type):
            raise RuntimeError(f"closure produced {len(positives)} positive roots for {self.type}")

        self.positive_roots = tuple(ordered)
        self.positive_coroots = tuple(seen[c] for c in ordered)
        self.num_positive = len(ordered)

        heights = [sum(c) for c in ordered]
        hmax = max(heights)
        top = [i for i, h in enumerate(heights) if h == hmax]
        if len(top) != 1:
            raise RuntimeError(f"no unique highest root for {self.type}")
        self.highest_root = top[0]
        theta = self.positive_roots[self.highest_root]
        # a sanity check on the closure: theta dominates every positive root
        # componentwise (the tests read theta at ``highest_root``)
        for c in ordered:
            if any(x > t for x, t in zip(c, theta)):
                raise RuntimeError("highest root fails componentwise domination")

        self.rho = (1,) * n
        # weight-basis coordinates of each positive root: w = C^T c
        self.root_weight_coords = tuple(
            tuple(sum(c[i] * C[i][j] for i in range(n)) for j in range(n)) for c in ordered
        )

    # -- arithmetic ------------------------------------------------------

    def reflect_weight(self, w: Weight, index: int) -> Weight:
        """r_beta(w) = w - <w, beta^vee> beta for the positive root at ``index``."""
        k = pair(w, self.positive_coroots[index])
        beta_w = self.root_weight_coords[index]
        return tuple(a - k * b for a, b in zip(w, beta_w))

    def apply_weight(self, word: Sequence[int], w: Weight) -> Weight:
        """w moved by the element a word names: its simple reflections (1-based labels) applied right to left."""
        # r_j(v) = v - v_j alpha_j, alpha_j being row j-1 of the Cartan matrix
        C = self.cartan
        for j in reversed(word):
            wj = w[j - 1]
            w = tuple(x - wj * c for x, c in zip(w, C[j - 1]))
        return w

    def apply_root_coords(self, word: Sequence[int], coords: Root) -> Root:
        """Like ``apply_weight``, on a root."""
        # r_j(beta) = beta - <beta, alpha_j^vee> alpha_j
        C = self.cartan
        out = list(coords)
        for j in reversed(word):
            out[j - 1] -= sum(c * row[j - 1] for c, row in zip(out, C))
        return tuple(out)


def build_root_system(ftype: FiniteType) -> RootSystem:
    return RootSystem(ftype)


@dataclass(frozen=True)
class LevelZeroShape:
    """A dominant shape: its multiplicities m_i, which are Lambda as a weight, and its parabolic set.

    ``parabolic`` is exactly the set of 1-based labels j with m_j = 0; the
    downstream path model is stated relative to this set.
    """

    rs: RootSystem
    multiplicities: Weight
    parabolic: frozenset[int]


def parse_multiplicities(text: str) -> tuple[int, ...]:
    """Comma-separated integers, each ASCII digits with an optional sign and surrounding whitespace."""
    for part in text.split(","):
        if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", part):
            raise ValueError(f"{part!r} is not an integer")
    return tuple(map(int, text.split(",")))


def compute_shape(rs: RootSystem, multiplicities: tuple[int, ...] | list[int]) -> LevelZeroShape:
    """Validate multiplicities and derive the parabolic set."""
    mults = tuple(int(m) for m in multiplicities)
    if len(mults) != rs.rank:
        raise ValueError(f"expected {rs.rank} multiplicities, got {len(mults)}")
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be nonnegative")
    if all(m == 0 for m in mults):
        raise ValueError("the zero shape is degenerate and rejected")
    parabolic = frozenset(j for j in range(1, rs.rank + 1) if mults[j - 1] == 0)
    return LevelZeroShape(rs, mults, parabolic)
