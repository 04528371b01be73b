"""Finite Weyl group enumeration and minimal-length coset machinery.

Elements are interned with dense ids in BFS discovery order (so ids sort by
length first).  An element ``w`` is keyed on the weight ``w^-1 rho`` in
fundamental-weight coordinates; the key is faithful because rho is regular.
The key of ``w r_j`` is ``mu - mu_j alpha_j`` with ``mu = w^-1 rho``, so each
edge of the enumeration costs O(rank).  Elements store only their reduced
word; reduced words follow the BFS discovery order and are reduced but not
guaranteed ShortLex.

Nothing on the main path enumerates the group: the graph walks the orbit
W Lambda, and ``build_context`` reads only ``check_group_cap``.  The group
table and the coset projection are the tests' reference for that graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import FiniteType, RootSystem, weyl_order

DEFAULT_GROUP_CAP = 40320


class GroupCapExceeded(RuntimeError):
    """The Weyl group is larger than the configured enumeration cap."""


def check_group_cap(ftype: FiniteType, cap: int = DEFAULT_GROUP_CAP) -> int:
    """|W| from the order formula, with no enumeration; GroupCapExceeded above the cap."""
    order = weyl_order(ftype)
    if order > cap:
        raise GroupCapExceeded(f"|W| = {order} for {ftype} exceeds the cap {cap}")
    return order


@dataclass(frozen=True)
class WeylElement:
    id: int
    word: tuple[int, ...]  # reduced word, 1-based generator labels

    @property
    def length(self) -> int:
        return len(self.word)


class WeylGroup:
    """The finite Weyl group of a root system, fully enumerated."""

    def __init__(self, rs: RootSystem, cap: int = DEFAULT_GROUP_CAP):
        order = check_group_cap(rs.type, cap)
        self.rs = rs
        self._enumerate()
        if len(self.elements) != order:
            raise RuntimeError(f"enumerated {len(self.elements)} elements, expected {order}")

    def _enumerate(self) -> None:
        n = self.rs.rank
        # alpha_{j+1} in fundamental-weight coordinates is row j of the Cartan
        # matrix; r_{j+1} changes only coordinate j and its Dynkin neighbours.
        alpha = [[(k, c) for k, c in enumerate(row) if c] for row in self.rs.cartan]
        rho = self.rs.rho.coords
        self.elements: list[WeylElement] = [WeylElement(0, ())]
        self._by_key: dict[tuple[int, ...], int] = {rho: 0}
        keys = [rho]
        right: list[list[int]] = []

        head = 0
        while head < len(self.elements):
            mu = keys[head]
            word = self.elements[head].word
            row = []
            for j in range(n):
                mj = mu[j]
                moved = list(mu)
                for k, c in alpha[j]:
                    moved[k] -= mj * c
                key = tuple(moved)
                found = self._by_key.get(key)
                if found is None:
                    found = len(self.elements)
                    self.elements.append(WeylElement(found, word + (j + 1,)))
                    self._by_key[key] = found
                    keys.append(key)
                row.append(found)
            right.append(row)
            head += 1
        self._right = right
        self._reflection_cache: dict[int, int] = {}

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

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

    def reflection(self, index: int) -> int:
        """Group element id of the reflection in the positive root at ``index``."""
        cached = self._reflection_cache.get(index)
        if cached is not None:
            return cached
        # r_beta is an involution, so its key is r_beta rho = rho - <rho, beta^vee> beta.
        rid = self._by_key.get(self.rs.reflect_weight(self.rs.rho, index).coords)
        if rid is None:
            raise RuntimeError("reflection not found in group table")
        self._reflection_cache[index] = rid
        return rid


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


def coset_system(group: WeylGroup, J: frozenset[int] | set[int]) -> CosetSystem:
    """Compute W^J by right descent through J-generators, in one pass over ids.

    ``a`` projects like ``a r_j`` for the first j in J that shortens it, and
    onto itself if none does; ids sort by length, so ``a r_j`` is already
    projected.
    """
    J = frozenset(J)
    for j in J:
        if not 1 <= j <= group.rs.rank:
            raise ValueError(f"parabolic label {j} out of range")
    gens = sorted(J)
    proj = list(range(len(group)))
    for a in range(len(group)):
        la = group.length(a)
        for j in gens:
            b = group.right_gen(a, j)
            if group.length(b) < la:
                proj[a] = proj[b]
                break
    reps = tuple(sorted(set(proj)))
    if len(group) % len(reps) != 0:
        raise RuntimeError("coset count does not divide the group order")
    return CosetSystem(group, J, reps, tuple(proj), {r: i for i, r in enumerate(reps)})

