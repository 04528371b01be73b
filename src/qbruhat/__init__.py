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


def build_context(type_name: str, multiplicities: tuple[int, ...] | list[int]) -> Context:
    """Build root system, Weyl group, coset system and graph for one shape.

    The graph is the shape's own: it lives on W^J with J = ``shape.parabolic``,
    the labels where the shape vanishes, and carries the shape, so path
    enumeration, the degree and the oracle take only the graph.
    """
    rs = build_root_system(FiniteType.parse(type_name))
    group = enumerate_group(rs)
    shape = compute_shape(rs, multiplicities)
    cs = coset_system(group, shape.parabolic)
    graph = build_pqbg(shape, cs)
    return Context(rs, group, shape, cs, graph)
