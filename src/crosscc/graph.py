"""Weighted digraphs and spanning trees.

Edges carry dense integer ids and that id, not the endpoint pair, is an
edge's identity. Parallel arcs between the same vertices are therefore
representable, which keeps the control-flow construction total when the
synthetic exit-to-start arc duplicates an existing arc.

Every search here traverses the underlying undirected graph. All weights
are exact ``fractions.Fraction`` values so equality assertions are exact.

Every cycle basis of a connected graph has nu = #E - #V + 1 cycles
(``cycle_rank``), so nu can be read as the size of a basis.

A graph holds its vertex count and its edges, nothing more. The public
constructor checks every edge a library caller gives it. The frontends,
which build and check their own arcs, hand finished ``Edge`` tuples to
``WeightedDigraph._trusted`` instead, so no edge is checked twice. The
incidence lists, which only the breadth-first search and ``incident``
read, are built on the first such read and kept in one slot; the exact
basis never reads them. A graph stays immutable and safe to share: any
caller that fills the slot fills it with the same lists.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Tuple, Union

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


def as_weight(value: WeightLike) -> Fraction:
    """Coerce a number (or a string like ``1/2`` or ``0.5``) to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        # Floats that came from decimal text should stay what they look like.
        return Fraction(str(value))
    return Fraction(value)


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
        if vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        built = []
        for i, spec in enumerate(edges):
            if isinstance(spec, Edge):
                if spec.id != i:
                    raise ValueError(f"edge ids must be dense and ordered, got {spec.id} at {i}")
                source, target, weight = spec.source, spec.target, as_weight(spec.weight)
            else:
                source, target = spec[0], spec[1]
                weight = as_weight(spec[2]) if len(spec) > 2 else ONE
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

    def _incidence_lists(self) -> Tuple[Tuple[Edge, ...], ...]:
        """Per vertex, the edges touching it, built on the first read."""
        incidence = self._incidence
        if incidence is None:
            incidence = self._incidence = _build_incidence(self.vertex_count, self.edges)
        return incidence

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge(self, edge_id: int) -> Edge:
        if not (0 <= edge_id < len(self.edges)):
            raise UnknownEdge(f"no edge with id {edge_id}")
        return self.edges[edge_id]

    def incident(self, vertex: int) -> Sequence[Edge]:
        """Edges touching ``vertex`` (unoriented view), ascending edge id."""
        return self._incidence_lists()[vertex]

    def __repr__(self):
        return f"WeightedDigraph(V={self.vertex_count}, E={len(self.edges)})"


def _build_incidence(vertex_count: int, edges: Tuple[Edge, ...]) -> Tuple[Tuple[Edge, ...], ...]:
    """The incidence lists of a graph. Edges come in id order, so every list
    is in ascending edge id, which makes every traversal deterministic."""
    incidence = [[] for _ in range(vertex_count)]
    for e in edges:
        incidence[e[1]].append(e)
        incidence[e[2]].append(e)
    return tuple(map(tuple, incidence))


def _bfs_parents(g: WeightedDigraph, root: int, allowed=None) -> dict:
    """Breadth-first search of the unoriented graph from ``root``.

    Returns ``{v: (parent_vertex, edge_id)}`` for every vertex reached other
    than the root, following only the edge ids in ``allowed`` when given.
    Neighbors are explored in ascending edge id, so the result is a pure
    function of the arguments: reruns and platforms agree bit for bit.
    """
    parent = {}
    order = [root]
    incidence = g._incidence_lists()
    for v in order:  # grows while it is read: a FIFO queue
        for eid, source, target, _ in incidence[v]:
            if allowed is not None and eid not in allowed:
                continue
            u = target if v == source else source
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
        for i in ids:
            g.edge(i)  # raises UnknownEdge
        if g.vertex_count == 0:
            raise EmptyGraph("graph has no vertices")
        if not (0 <= root < g.vertex_count):
            raise ValueError(f"root {root} out of range")
        if len(ids) != g.vertex_count - 1:
            raise NotASpanningTree(
                f"{len(ids)} edges cannot span {g.vertex_count} vertices"
            )
        parent = _bfs_parents(g, root, ids)
        if len(parent) != g.vertex_count - 1:
            raise NotASpanningTree("edge set does not reach every vertex acyclically")
        return cls(host=g, root=root, tree_edges=ids, parent=parent)


def _connected_parents(g: WeightedDigraph, root: int) -> dict:
    """``_bfs_parents(g, root)`` of a graph that must have a vertex, hold
    ``root`` and be connected (unoriented)."""
    if g.vertex_count == 0:
        raise EmptyGraph("graph has no vertices")
    if not (0 <= root < g.vertex_count):
        raise ValueError(f"root {root} out of range")
    parent = _bfs_parents(g, root)
    if len(parent) != g.vertex_count - 1:
        raise DisconnectedGraph("graph is not connected (unoriented)")
    return parent


def spanning_tree(g: WeightedDigraph, root: int = 0) -> SpanningTree:
    """BFS spanning tree rooted at ``root``, ignoring arc direction; a pure
    function of the graph (see ``_bfs_parents``)."""
    parent = _connected_parents(g, root)
    tree_edges = frozenset(eid for _, eid in parent.values())
    return SpanningTree(host=g, root=root, tree_edges=tree_edges, parent=parent)


def cycle_rank(g: WeightedDigraph) -> int:
    """Dimension of the cycle space of a connected graph: #E - #V + 1."""
    _connected_parents(g, 0)
    return g.edge_count - g.vertex_count + 1
