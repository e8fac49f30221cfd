"""crosscc: cross cyclomatic complexity for programs and control-flow graphs.

The metric is the pair (cycle rank, minimum-weight cycle basis weight) of a
control-flow graph closed by a synthetic exit-to-start arc. The first
component is McCabe's cyclomatic complexity; the second describes how the
independent cycles are built, separating programs that McCabe's number
conflates.
"""

from .basis import (
    Cycle,
    CycleBasis,
    Provenance,
    horton_basis,
    tree_bound,
)
from .cfg import ControlFlowGraph, lower
from .dot import DotGraphDoc, dump_cfg_dot, dump_dot, parse_dot
from .errors import CrossCCError
from .graph import (
    Edge,
    SpanningTree,
    WeightedDigraph,
    cycle_rank,
    spanning_tree,
)
from .metric import CrossComplexity, Region, classify_region, cross_complexity
from .minilang import parse
from .report import AnalysisReport, UnitRecord, halfplane_svg, points_csv

__version__ = "0.1.0"

__all__ = [
    "CrossCCError",
    "WeightedDigraph",
    "Edge",
    "SpanningTree",
    "Cycle",
    "spanning_tree",
    "cycle_rank",
    "CycleBasis",
    "Provenance",
    "horton_basis",
    "tree_bound",
    "parse",
    "ControlFlowGraph",
    "lower",
    "CrossComplexity",
    "Region",
    "cross_complexity",
    "classify_region",
    "DotGraphDoc",
    "parse_dot",
    "dump_dot",
    "dump_cfg_dot",
    "AnalysisReport",
    "UnitRecord",
    "halfplane_svg",
    "points_csv",
    "__version__",
]
