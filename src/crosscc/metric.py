"""The cross complexity pair, its halfplane classification, and the
refactoring indicator omega/nu.

The pair is (nu, omega): nu is the cycle rank of the closed graph (McCabe's
number for a control-flow graph) and omega the weight of a minimum-weight
cycle basis, either exact or the fundamental-system upper bound of some
spanning tree. omega >= nu holds for every real graph since each basis
cycle weighs at least 1; the plane below that line is infeasible, the band
up to slope*nu holds valid graphs that are not non-trivial programs, and
everything above is ordinary program territory. The band slope defaults to
2 but is configuration: published descriptions of the boundary disagree
with each other, so we refuse to hard-code one reading.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .basis import Provenance, horton_basis, tree_bound
from .cfg import ControlFlowGraph
from .errors import ZeroNu
from .graph import SpanningTree, WeightedDigraph, as_weight, spanning_tree

DEFAULT_SLOPE = Fraction(2)


class Region(enum.Enum):
    INFEASIBLE = "infeasible"
    TRIVIAL_BAND = "trivial-band"
    NON_TRIVIAL = "non-trivial"


class CrossComplexity(NamedTuple):
    """The (nu, omega) pair plus how omega was obtained and where it plots."""

    nu: int
    omega_min: Fraction
    provenance: Provenance
    region: Region
    indicator: Fraction  # omega/nu: distance from the diagonal, smaller is better


def classify_region(nu: int, omega, slope=DEFAULT_SLOPE) -> Region:
    """Halfplane classification of a (nu, omega) point.

    Below omega = nu is unconstructible (each basis cycle weighs >= 1);
    between the lines omega = nu and omega = slope*nu sit valid graphs that
    no non-trivial program produces; at or above slope*nu is program land.
    """
    omega = as_weight(omega)
    slope = as_weight(slope)
    if omega < nu:
        return Region.INFEASIBLE
    if omega < slope * nu:
        return Region.TRIVIAL_BAND
    return Region.NON_TRIVIAL


def cross_complexity(
    subject: Union[ControlFlowGraph, WeightedDigraph],
    mode: Provenance = Provenance.EXACT,
    slope=DEFAULT_SLOPE,
    tree: Optional[SpanningTree] = None,
) -> CrossComplexity:
    """Compute the pair for a control-flow graph or a bare weighted graph.

    ``mode=Provenance.EXACT`` runs the exact minimum-basis algorithm;
    ``Provenance.TREE_BOUND`` sums the fundamental cycles of ``tree`` (or of
    the deterministic BFS tree rooted at the start vertex when none is
    given). ``Provenance.ORACLE`` is not a mode and raises ValueError. nu is
    the basis's size, the same for every basis of the graph.
    """
    if isinstance(subject, ControlFlowGraph):
        graph = subject.graph
        root = subject.start
    else:
        graph = subject
        root = 0
    if mode is Provenance.EXACT:
        basis = horton_basis(graph)
    elif mode is Provenance.TREE_BOUND:
        basis = tree_bound(graph, tree or spanning_tree(graph, root))
    else:
        raise ValueError(f"cross complexity has no {mode.value!r} mode")
    nu = len(basis.masks)
    if nu == 0:
        raise ZeroNu("cross complexity needs cycle rank >= 1 "
                     "(a closed control-flow graph always has it)")
    omega = basis.total_weight
    return CrossComplexity(nu=nu, omega_min=omega, provenance=basis.provenance,
                           region=classify_region(nu, omega, slope),
                           indicator=omega / Fraction(nu))
