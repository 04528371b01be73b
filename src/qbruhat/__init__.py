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
from .weyl import check_group_cap, coset_system, enumerate_group  # noqa: F401  (perfbench/tracing.py wraps them)

__version__ = "0.1.0"


@dataclass(frozen=True)
class Context:
    """Everything needed to work with one (type, shape) instance: the root system, the shape and its graph."""

    rs: RootSystem
    shape: LevelZeroShape
    graph: PQBG


def build_context(type_name: str, multiplicities: tuple[int, ...] | list[int]) -> Context:
    """Build the root system, the shape and the shape's graph, from the orbit of the shape.

    No Weyl group is enumerated; ``GroupCapExceeded`` refuses a type whose
    |W|, read from its order formula, exceeds the cap.  The graph lives on
    W^J with J = ``shape.parabolic`` and carries the shape, so path
    enumeration, the degree and the oracle take only the graph.
    """
    ftype = FiniteType.parse(type_name)
    check_group_cap(ftype)
    rs = build_root_system(ftype)
    shape = compute_shape(rs, multiplicities)
    return Context(rs, shape, build_pqbg(shape))
