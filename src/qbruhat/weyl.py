"""Finite Weyl group enumeration and minimal-length coset machinery.

Elements are interned with dense ids in BFS discovery order (so ids sort by
length first).  Each element stores two integer matrices: its action on
fundamental-weight coordinates (the canonical form used for equality) and
its action on simple-root coordinates (used for sign tests on roots).
Reduced words follow the BFS discovery order; they are reduced but not
guaranteed ShortLex.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .cartan import RootSystem, Weight, weyl_order

DEFAULT_GROUP_CAP = 40320
WARN_GROUP_ORDER = 5000  # larger groups are enumerated with a warning

Matrix = tuple[tuple[int, ...], ...]


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_vec(a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


class GroupCapExceeded(RuntimeError):
    """The Weyl group is larger than the configured enumeration cap."""


@dataclass(frozen=True)
class WeylElement:
    id: int
    wmat: Matrix  # action on fundamental-weight coordinates
    rmat: Matrix  # action on simple-root coordinates
    word: tuple[int, ...]  # reduced word, 1-based generator labels

    @property
    def length(self) -> int:
        return len(self.word)


class WeylGroup:
    """The finite Weyl group of a root system, fully enumerated."""

    def __init__(self, rs: RootSystem, cap: int = DEFAULT_GROUP_CAP):
        order = weyl_order(rs.type)
        if order > cap:
            raise GroupCapExceeded(f"|W| = {order} for {rs.type} exceeds the cap {cap}")
        if order > WARN_GROUP_ORDER:
            warnings.warn(f"enumerating a Weyl group of order {order}; this is in-memory", stacklevel=2)
        self.rs = rs
        self._enumerate()
        if len(self.elements) != order:
            raise RuntimeError(f"enumerated {len(self.elements)} elements, expected {order}")

    def _generator_matrices(self, j: int) -> tuple[Matrix, Matrix]:
        # 1-based j.  Weight action: w_k -> w_k - w_j * C[j][k];
        # root action: c_k -> c_k - delta_{k,j} * sum_l c_l C[l][j].
        n = self.rs.rank
        C = self.rs.cartan
        wmat = tuple(
            tuple((1 if k == l else 0) - (C[j - 1][k] if l == j - 1 else 0) for l in range(n))
            for k in range(n)
        )
        rmat = tuple(
            tuple((1 if k == l else 0) - (C[l][j - 1] if k == j - 1 else 0) for l in range(n))
            for k in range(n)
        )
        return wmat, rmat

    def _enumerate(self) -> None:
        n = self.rs.rank
        gen_mats = [self._generator_matrices(j) for j in range(1, n + 1)]
        identity = WeylElement(0, _identity(n), _identity(n), ())
        self.elements: list[WeylElement] = [identity]
        self._by_wmat: dict[Matrix, int] = {identity.wmat: 0}
        right: list[list[int]] = [[-1] * n]

        head = 0
        while head < len(self.elements):
            cur = self.elements[head]
            for j in range(1, n + 1):
                gw, gr = gen_mats[j - 1]
                wmat = _mat_mul(cur.wmat, gw)
                found = self._by_wmat.get(wmat)
                if found is None:
                    elt = WeylElement(len(self.elements), wmat, _mat_mul(cur.rmat, gr), cur.word + (j,))
                    self._by_wmat[wmat] = elt.id
                    self.elements.append(elt)
                    right.append([-1] * n)
                    found = elt.id
                right[head][j - 1] = found
            head += 1
        self._right = right
        self._reflection_cache: dict[int, int] = {}

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    def length(self, a: int) -> int:
        return len(self.elements[a].word)

    def right_gen(self, a: int, j: int) -> int:
        """id of w * r_j for a 1-based generator label j."""
        return self._right[a][j - 1]

    def mul(self, a: int, b: int) -> int:
        out = a
        for j in self.elements[b].word:
            out = self._right[out][j - 1]
        return out

    def inverse(self, a: int) -> int:
        out = 0
        for j in reversed(self.elements[a].word):
            out = self._right[out][j - 1]
        return out

    def apply_weight(self, a: int, w: Weight) -> Weight:
        return Weight(_mat_vec(self.elements[a].wmat, w.coords))

    def apply_root_coords(self, a: int, coords: tuple[int, ...]) -> tuple[int, ...]:
        return _mat_vec(self.elements[a].rmat, coords)

    def reflection(self, root_index: int) -> int:
        """Group element id of the reflection in the positive root at ``root_index``."""
        cached = self._reflection_cache.get(root_index)
        if cached is not None:
            return cached
        n = self.rs.rank
        beta_w = self.rs.root_weight_coords[root_index]
        cov = self.rs.positive_coroots[root_index].coords
        wmat = tuple(
            tuple((1 if k == l else 0) - cov[l] * beta_w[k] for l in range(n)) for k in range(n)
        )
        rid = self._by_wmat.get(wmat)
        if rid is None:
            raise RuntimeError("reflection matrix not found in group table")
        self._reflection_cache[root_index] = rid
        return rid

    # -- serialization ---------------------------------------------------

    def word_name(self, a: int) -> str:
        word = self.elements[a].word
        return "e" if not word else " ".join(f"s{j}" for j in word)

    def parse_word(self, text: str) -> int:
        """Parse a reduced-word string; accepts 's1', 'r1' or bare '1' tokens."""
        text = text.strip()
        if text == "e" or not text:
            return 0
        out = 0
        for tok in text.split():
            if tok == "e":
                continue
            body = tok[1:] if tok[0] in ("s", "r") else tok
            if not body.isdigit():
                raise ValueError(f"bad generator token {tok!r}")
            j = int(body)
            if not 1 <= j <= self.rs.rank:
                raise ValueError(f"generator index {j} out of range 1..{self.rs.rank}")
            out = self._right[out][j - 1]
        return out


def enumerate_group(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> WeylGroup:
    return WeylGroup(rs, cap=cap)


@dataclass(frozen=True)
class CosetSystem:
    """Minimal-length coset representatives for W / W_J and the projection onto them."""

    group: WeylGroup
    J: frozenset[int]
    reps: tuple[int, ...]  # element ids, ascending (BFS order = by length first)
    projection: tuple[int, ...]  # element id -> rep id
    rep_position: dict[int, int]  # rep id -> dense vertex index

    def project(self, a: int) -> int:
        return self.projection[a]

    @property
    def subgroup_order(self) -> int:
        return len(self.group) // len(self.reps)


def coset_system(group: WeylGroup, J: frozenset[int] | set[int]) -> CosetSystem:
    """Compute W^J by iterated right descent through J-generators."""
    J = frozenset(J)
    for j in J:
        if not 1 <= j <= group.rs.rank:
            raise ValueError(f"parabolic label {j} out of range")
    proj = [0] * len(group)
    for a in range(len(group)):
        w = a
        while True:
            lw = group.length(w)
            nxt = None
            for j in sorted(J):
                cand = group.right_gen(w, j)
                if group.length(cand) < lw:
                    nxt = cand
                    break
            if nxt is None:
                break
            w = nxt
        proj[a] = w
    reps = tuple(sorted(set(proj)))
    if len(group) % len(reps) != 0:
        raise RuntimeError("coset count does not divide the group order")
    return CosetSystem(group, J, reps, tuple(proj), {r: i for i, r in enumerate(reps)})


def project(w: int, cs: CosetSystem) -> int:
    return cs.projection[w]
