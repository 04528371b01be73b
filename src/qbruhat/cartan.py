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

``RootSystem`` builds the positive roots only, by a breadth-first search
from the simple roots over raising steps: every positive root is reached
from a simple root by simple reflections that each raise its height
(Humphreys, *Introduction to Lie Algebras and Representation Theory*,
10.2).  Each root travels with its coroot and its weight coordinates, so a
step reads the pairing it needs from the weight coordinates and moves only
the entries that one row of the Cartan matrix touches.  The search stops
with an error once it holds more roots than the type has, so a Cartan
matrix of infinite type is refused instead of looping.

All arithmetic is exact: integers everywhere, ``fractions.Fraction`` where
denominators occur.  Python integers are unbounded, so overflow cannot
happen silently.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from operator import mul, sub

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
    return sum(map(mul, w, c))


class RootSystem:
    """Positive roots/coroots of a simple type, generated from the simple roots by raising steps.

    ``positive_roots[i-1]`` is the simple root ``alpha_i``; the remaining
    positive roots follow sorted by (height, coords).  ``positive_coroots``
    is the parallel coroot list (``beta -> beta^vee`` tracked through the
    search), ``root_weight_coords`` the parallel weight coordinates
    ``C^T c`` (also tracked, not recomputed), ``highest_root`` indexes theta
    and ``rho`` is the half-sum of positive roots, i.e. (1,...,1) in
    fundamental-weight coordinates.  The search is checked: it must reach
    ``positive_root_count`` roots and no more, give a root reached twice the
    same coroot both times, and end at a unique highest root that dominates
    every positive root componentwise.
    """

    def __init__(self, ftype: FiniteType):
        self.type = ftype
        self.rank = ftype.rank
        self.cartan = cartan_matrix(ftype)
        self._generate()

    def _generate(self) -> None:
        n = self.rank
        C = self.cartan
        limit = positive_root_count(self.type)
        # row j of the Cartan matrix is alpha_j in weight coordinates; only its
        # nonzero entries (i, C[j][i]) move anything under r_j
        rows = [tuple((i, a) for i, a in enumerate(row) if a) for row in C]

        # BFS over the positive roots by raising steps.  A root beta travels as
        # (coroot d, weight coordinates w = C^T c), so <beta, alpha_j^vee> = w[j]
        # and r_j raises beta exactly when w[j] < 0.  Then c[j] and w move by
        # -w[j] alpha_j, and d[j] by -<alpha_j, beta^vee>.
        seen: dict[Root, tuple[Coroot, Weight]] = {}
        for i in range(n):
            unit = tuple(1 if k == i else 0 for k in range(n))
            seen[unit] = (unit, C[i])
        queue = list(seen)
        for c in queue:  # the queue grows while it is walked
            d, w = seen[c]
            for j, wj in enumerate(w):
                if wj >= 0:
                    continue
                row = rows[j]
                c2 = list(c)
                c2[j] -= wj
                c2 = tuple(c2)
                d2 = list(d)
                d2[j] -= sum(d[i] * a for i, a in row)
                d2 = tuple(d2)
                found = seen.get(c2)
                if found is None:
                    w2 = list(w)
                    for i, a in row:
                        w2[i] -= wj * a
                    seen[c2] = (d2, tuple(w2))
                    queue.append(c2)
                    if len(queue) > limit:
                        raise RuntimeError(f"closure passed {limit} positive roots for {self.type}")
                elif found[0] != d2:
                    raise RuntimeError("inconsistent root/coroot closure")
        if len(queue) != limit:
            raise RuntimeError(f"closure produced {len(queue)} positive roots for {self.type}")

        ordered = queue[:n] + sorted(queue[n:], key=lambda c: (sum(c), c))
        self.positive_roots = tuple(ordered)
        self.positive_coroots = tuple(seen[c][0] for c in ordered)
        self.root_weight_coords = tuple(seen[c][1] for c in ordered)
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

    # -- arithmetic ------------------------------------------------------

    def reflect_weight(self, w: Weight, index: int) -> Weight:
        """r_beta(w) = w - <w, beta^vee> beta for the positive root at ``index``."""
        k = pair(w, self.positive_coroots[index])
        return tuple(map(sub, w, map(k.__mul__, self.root_weight_coords[index])))

    def apply_weight(self, word: Sequence[int], w: Weight) -> Weight:
        """w moved by the element a word names: its simple reflections (1-based labels) applied right to left."""
        # r_j(v) = v - v_j alpha_j, alpha_j being row j-1 of the Cartan matrix
        C = self.cartan
        for j in reversed(word):
            wj = w[j - 1]
            w = tuple(x - wj * c for x, c in zip(w, C[j - 1]))
        return w

    def simple_index_action(self) -> tuple[tuple[int, ...] | None, ...]:
        """Each simple reflection's action on signed positive-root indices, indexed by its 1-based label.

        ``action[j][m]`` is the index of r_j(beta_m), a negative root
        -beta_k being encoded as ``~k``.  Row j lists the images of the
        indices 0 .. N-1, then those of ~(N-1) .. ~0, so that Python's
        negative indexing reads ``action[j][~k]``; r_j(-beta) = -r_j(beta)
        gives the second half from the first.  Row 0 is None.
        """
        index = {c: m for m, c in enumerate(self.positive_roots)}
        action: list[tuple[int, ...] | None] = [None]
        for j in range(self.rank):
            # r_j(beta) = beta - <beta, alpha_j^vee> alpha_j, and <beta, alpha_j^vee> is beta's weight coordinate j;
            # alpha_j alone leaves the positive roots, to -alpha_j
            images = []
            for m, (c, w) in enumerate(zip(self.positive_roots, self.root_weight_coords)):
                moved = list(c)
                moved[j] -= w[j]
                images.append(~j if m == j else index[tuple(moved)])
            action.append((*images, *(~k for k in reversed(images))))
        return tuple(action)


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


def parse_integer(text: str) -> int:
    """One integer: ASCII digits with an optional sign and surrounding whitespace, nothing else ``int`` reads."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def parse_multiplicities(text: str) -> tuple[int, ...]:
    """Comma-separated integers, each read by ``parse_integer``."""
    return tuple(map(parse_integer, text.split(",")))


def compute_shape(rs: RootSystem, multiplicities: tuple[int, ...] | list[int]) -> LevelZeroShape:
    """Validate multiplicities and derive the parabolic set; each must be an ``int`` (not a ``bool`` or a string)."""
    for m in multiplicities:
        if not isinstance(m, int) or isinstance(m, bool):
            raise ValueError(f"multiplicity {m!r} is not an int")
    mults = tuple(map(int, multiplicities))
    if len(mults) != rs.rank:
        raise ValueError(f"expected {rs.rank} multiplicities, got {len(mults)}")
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be nonnegative")
    if all(m == 0 for m in mults):
        raise ValueError("the zero shape is degenerate and rejected")
    parabolic = frozenset(j for j in range(1, rs.rank + 1) if mults[j - 1] == 0)
    return LevelZeroShape(rs, mults, parabolic)
