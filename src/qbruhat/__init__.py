"""Quantum Bruhat graph combinatorics with an exact affine-orbit oracle.

Builds the parabolic quantum Bruhat graph of a simple type, enumerates
quantum Lakshmibai-Seshadri paths of a dominant shape, evaluates their
degree by the closed segment-energy formula, and independently certifies
the results by lifting paths into the affine weight lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import (
    FiniteType,
    LevelZeroShape,
    RootSystem,
    Weight,
    build_root_system,
    compute_shape,
    pair,
)
from .qbg import PQBG, build_pqbg
from .weyl import CosetSystem, WeylGroup, coset_system, enumerate_group

__version__ = "0.1.0"


@dataclass(frozen=True)
class Context:
    """Everything needed to work with one (type, shape) instance."""

    rs: RootSystem
    group: WeylGroup
    shape: LevelZeroShape
    cs: CosetSystem
    graph: PQBG


def build_context(
    type_name: str,
    multiplicities: tuple[int, ...] | list[int],
    parabolic: frozenset[int] | set[int] | None = None,
) -> Context:
    """Build root system, Weyl group, coset system and graph for one shape.

    ``parabolic`` overrides the canonical parabolic set; it must be a subset
    of the labels where the shape vanishes.
    """
    rs = build_root_system(FiniteType.parse(type_name))
    group = enumerate_group(rs)
    shape = compute_shape(rs, multiplicities)
    J = shape.parabolic if parabolic is None else frozenset(parabolic)
    if not J <= shape.parabolic:
        raise ValueError(
            f"parabolic override {sorted(J)} not contained in the vanishing set {sorted(shape.parabolic)}"
        )
    cs = coset_system(group, J)
    graph = build_pqbg(rs, cs)
    return Context(rs, group, shape, cs, graph)
