"""Weighted digraphs and spanning trees.

Edges carry dense integer ids and that id, not the endpoint pair, is an
edge's identity. Parallel arcs between the same vertices are therefore
representable, which keeps the control-flow construction total when the
synthetic exit-to-start arc duplicates an existing arc.

Every walk reads ``_adjacency``, per vertex the ``(neighbor, edge id)``
pairs of the edges it may follow, built in the pass that walks them. Every
tree, and the check that edges form one cycle, is one search of that
undirected graph, ``_bfs_parents``, which checks its root. All weights are
exact ``fractions.Fraction`` values so equality assertions are exact.

Every cycle basis of a connected graph has nu = #E - #V + 1 cycles
(``cycle_rank``), so nu can be read as the size of a basis.

A graph holds its vertex count and its edges, nothing more. The public
constructor checks every edge a library caller gives it. The frontends,
which build and check their own arcs, hand finished ``Edge`` tuples to
``WeightedDigraph._trusted`` instead, so no edge is checked twice. Only
``incident``, which outside callers read, keeps lists: its first call
builds them for every vertex and keeps them in one slot. A graph stays
immutable and safe to share: any caller that fills the slot fills it with
the same lists.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, List, Mapping, NamedTuple, Sequence, Tuple, Union

from .errors import (
    DisconnectedGraph,
    EmptyGraph,
    NotASpanningTree,
    UnknownEdge,
)

WeightLike = Union[int, float, str, Fraction]

# Shared weights of unit and virtual arcs: one Fraction each, not one per arc.
ONE = Fraction(1)
ZERO = Fraction(0)

# ``_new(Edge, (id, source, target, weight))`` builds an edge without
# ``Edge.__new__``, a Python function; the frontends use it too.
_new = tuple.__new__


# CPython's limit on the digits of an int, which ``str`` needs to write a
# weight back. ``Fraction`` expands a decimal exponent in full (seconds for
# ``1e10000000``), so a longer exponent is refused first, and then terms of
# more digits (``1e4300``). Only a text with an ``e`` runs the pattern.
_MAX_EXPONENT = 4300


def _too_long(weight: Fraction) -> bool:
    """Whether a term of ``weight`` has more than ``_MAX_EXPONENT`` digits.
    10**n has over 3n bits, so only terms of more bits are compared with it."""
    term = max(abs(weight.numerator), weight.denominator)
    return term.bit_length() > 3 * _MAX_EXPONENT and term >= 10**_MAX_EXPONENT


def as_weight(value: WeightLike) -> Fraction:
    """Coerce a number (or a string like ``1/2`` or ``0.5``) to an exact Fraction.
    A string with a zero denominator, or whose exponent or whose terms'
    digits pass ``_MAX_EXPONENT``, raises ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        # Floats that came from decimal text should stay what they look like.
        return Fraction(str(value))
    scientific = isinstance(value, str) and "E" in value.upper()
    if scientific:
        exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", value)
        if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
            raise ValueError(f"exponent beyond {_MAX_EXPONENT} in {value!r}")
    try:
        weight = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    if scientific and _too_long(weight):
        raise ValueError(f"more than {_MAX_EXPONENT} digits in {value!r}")
    return weight


class Edge(NamedTuple):
    """One arc: dense id, endpoints, exact weight. No loops (source != target).
    An immutable tuple, but equal only to an ``Edge``, never to a plain tuple."""

    id: int
    source: int
    target: int
    weight: Fraction

    def other(self, vertex: int) -> int:
        return self.target if vertex == self.source else self.source

    def __eq__(self, other):
        return other.__class__ is Edge and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class WeightedDigraph:
    """Immutable weighted digraph over dense vertex ids ``0..vertex_count-1``."""

    __slots__ = ("vertex_count", "edges", "_incidence")

    def __init__(self, vertex_count: int, edges: Iterable[Union[Edge, tuple]]):
        if type(vertex_count) is not int or vertex_count < 0:
            raise ValueError(f"vertex_count must be >= 0 and an int, not {vertex_count!r}")
        built = []
        for i, spec in enumerate(edges):
            if isinstance(spec, Edge):
                if spec.id != i:
                    raise ValueError(f"edge ids must be dense and ordered, got {spec.id} at {i}")
                source, target, weight = spec.source, spec.target, as_weight(spec.weight)
            else:
                source, target = spec[0], spec[1]
                weight = as_weight(spec[2]) if len(spec) > 2 else ONE
            if type(source) is not int or type(target) is not int:
                raise ValueError(f"edge {i} endpoints must be ints, not {source!r}, {target!r}")
            if _too_long(weight):
                raise ValueError(f"edge {i} weight has more than {_MAX_EXPONENT} digits")
            if source == target:
                raise ValueError(f"loop edge {i} at vertex {source} not allowed")
            if not (0 <= source < vertex_count and 0 <= target < vertex_count):
                raise ValueError(f"edge {i} endpoint out of range")
            built.append(_new(Edge, (i, source, target, weight)))
        self.vertex_count = vertex_count
        self.edges = tuple(built)
        self._incidence = None

    @classmethod
    def _trusted(cls, vertex_count: int, edges: Tuple[Edge, ...]) -> "WeightedDigraph":
        """A graph of ``edges`` as given, unchecked. Only for edges that hold
        what ``__init__`` checks: ``edges[i].id == i``, endpoints distinct
        and in ``range(vertex_count)``, and ``Fraction`` weights."""
        g = object.__new__(cls)
        g.vertex_count = vertex_count
        g.edges = edges
        g._incidence = None
        return g

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge(self, edge_id: int) -> Edge:
        """``UnknownEdge`` unless ``edge_id`` is an ``int``, not a ``bool``, in range."""
        if type(edge_id) is not int or not 0 <= edge_id < len(self.edges):
            raise UnknownEdge(f"no edge with id {edge_id!r}")
        return self.edges[edge_id]

    def incident(self, vertex: int) -> Sequence[Edge]:
        """Edges touching ``vertex`` (unoriented view), ascending edge id. The
        lists of every vertex are built on the first call and kept."""
        if self._incidence is None:
            self._incidence = tuple(tuple(self.edges[eid] for _, eid in row)
                                    for row in _adjacency(self.vertex_count, self.edges))
        return self._incidence[vertex]

    def __repr__(self):
        return f"WeightedDigraph(V={self.vertex_count}, E={len(self.edges)})"


def _adjacency(vertex_count: int, edges: Iterable[Edge]) -> List[List[Tuple[int, int]]]:
    """Per vertex, a ``(neighbor, edge id)`` pair for each of ``edges`` that
    touches it, in the order of ``edges``: the unoriented view that every
    walk of a graph reads, built in the pass that walks it."""
    adjacency = [[] for _ in range(vertex_count)]
    for eid, source, target, _ in edges:
        adjacency[source].append((target, eid))
        adjacency[target].append((source, eid))
    return adjacency


def _bfs_parents(g: WeightedDigraph, root: int, edges: Iterable[Edge]) -> dict:
    """Breadth-first search of the unoriented graph of ``edges`` from ``root``,
    a vertex of ``g`` (``EmptyGraph`` for a graph with none, else ``ValueError``).

    Returns ``{v: (parent_vertex, edge_id)}`` for every vertex reached other
    than the root. Neighbors are explored in the order of ``edges``, which
    every caller gives in ascending id, so the result is a pure function of
    the arguments: reruns and platforms agree bit for bit.
    """
    if g.vertex_count == 0:
        raise EmptyGraph("graph has no vertices")
    if not (0 <= root < g.vertex_count):
        raise ValueError(f"root {root} out of range")
    parent = {}
    order = [root]
    adjacency = _adjacency(g.vertex_count, edges)
    for v in order:  # grows while it is read: a FIFO queue
        for u, eid in adjacency[v]:
            if u != root and u not in parent:
                parent[u] = (v, eid)
                order.append(u)
    return parent


class SpanningTree(NamedTuple):
    """A spanning tree of ``host``: edge-id set plus a parent map rooted at ``root``.

    ``parent[v] = (parent_vertex, edge_id)`` for every vertex except the root,
    in BFS order (both constructors run a BFS), so each after its parent.
    """

    host: WeightedDigraph
    root: int
    tree_edges: frozenset
    parent: Mapping[int, tuple]

    @classmethod
    def from_edge_ids(cls, g: WeightedDigraph, root: int, edge_ids: Iterable[int]) -> "SpanningTree":
        """Build a tree from an explicit edge set, validating it spans ``g``."""
        ids = frozenset(edge_ids)
        parent = _bfs_parents(g, root, sorted(map(g.edge, ids)))  # g.edge raises UnknownEdge
        if len(ids) != g.vertex_count - 1:
            raise NotASpanningTree(f"{len(ids)} edges cannot span {g.vertex_count} vertices")
        if len(parent) != g.vertex_count - 1:
            raise NotASpanningTree("edge set does not reach every vertex acyclically")
        return cls(host=g, root=root, tree_edges=ids, parent=parent)


def spanning_tree(g: WeightedDigraph, root: int = 0) -> SpanningTree:
    """BFS spanning tree rooted at ``root``, ignoring arc direction; a pure
    function of the graph (see ``_bfs_parents``) that must be connected."""
    parent = _bfs_parents(g, root, g.edges)
    if len(parent) != g.vertex_count - 1:
        raise DisconnectedGraph("graph is not connected (unoriented)")
    tree_edges = frozenset(eid for _, eid in parent.values())
    return SpanningTree(host=g, root=root, tree_edges=tree_edges, parent=parent)


def cycle_rank(g: WeightedDigraph) -> int:
    """Dimension of the cycle space of a connected graph: #E - #V + 1."""
    spanning_tree(g)
    return g.edge_count - g.vertex_count + 1
