"""Weighted digraphs, spanning trees, fundamental cycles, and GF(2) elimination.

Edges carry dense integer ids and that id, not the endpoint pair, is an
edge's identity. Parallel arcs between the same vertices are therefore
representable, which keeps the control-flow construction total when the
synthetic exit-to-start arc duplicates an existing arc.

Cycles are unoriented edge-id sets: arc direction matters to control-flow
semantics, never to the cycle algebra, so every algorithm here traverses
the underlying undirected graph. Over GF(2) a cycle is an int bitmask with
bit i set iff edge i is in it. All weights are exact ``fractions.Fraction``
values so equality assertions are exact; sums over many edges run on the
graph's integer weights (``WeightedDigraph.integer_weights``), which are
the same weights times one common factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import (
    DisconnectedGraph,
    EdgeInTree,
    EmptyGraph,
    NotACycle,
    NotASpanningTree,
    UnknownEdge,
)

WeightLike = Union[int, float, str, Fraction]

# Shared weights of unit and virtual arcs: one Fraction each, not one per arc.
ONE = Fraction(1)
ZERO = Fraction(0)


def as_weight(value: WeightLike) -> Fraction:
    """Coerce a number (or a string like ``1/2`` or ``0.5``) to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        # Floats that came from decimal text should stay what they look like.
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class Edge:
    """One arc: dense id, endpoints, exact weight. No loops (source != target)."""

    id: int
    source: int
    target: int
    weight: Fraction

    def other(self, vertex: int) -> int:
        return self.target if vertex == self.source else self.source


class WeightedDigraph:
    """Immutable weighted digraph over dense vertex ids ``0..vertex_count-1``."""

    __slots__ = ("vertex_count", "edges", "_incidence", "_integer_weights", "_tree0")

    def __init__(self, vertex_count: int, edges: Iterable[Union[Edge, tuple]]):
        if vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        built = []
        for i, spec in enumerate(edges):
            if isinstance(spec, Edge):
                e = spec
                if not isinstance(e.weight, Fraction):
                    e = Edge(e.id, e.source, e.target, as_weight(e.weight))
            else:
                source, target = spec[0], spec[1]
                weight = as_weight(spec[2]) if len(spec) > 2 else ONE
                e = Edge(i, source, target, weight)
            if e.id != i:
                raise ValueError(f"edge ids must be dense and ordered, got {e.id} at {i}")
            if e.source == e.target:
                raise ValueError(f"loop edge {e.id} at vertex {e.source} not allowed")
            if not (0 <= e.source < vertex_count and 0 <= e.target < vertex_count):
                raise ValueError(f"edge {e.id} endpoint out of range")
            built.append(e)
        self.vertex_count = vertex_count
        self.edges = tuple(built)
        incidence = [[] for _ in range(vertex_count)]
        # Edges come in id order (checked above), so every incidence list is
        # in ascending edge id, which makes every traversal deterministic.
        for e in self.edges:
            incidence[e.source].append(e)
            incidence[e.target].append(e)
        self._incidence = tuple(map(tuple, incidence))
        self._integer_weights = None
        self._tree0 = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge(self, edge_id: int) -> Edge:
        if not (0 <= edge_id < len(self.edges)):
            raise UnknownEdge(f"no edge with id {edge_id}")
        return self.edges[edge_id]

    def incident(self, vertex: int) -> Sequence[Edge]:
        """Edges touching ``vertex`` (unoriented view), ascending edge id."""
        return self._incidence[vertex]

    def integer_weights(self) -> Tuple[List[int], int]:
        """``(weights, scale)``: every edge weight times ``scale``, the least
        common multiple of their denominators, by edge id. Computed once per
        graph; a sum of these over ``scale`` is the exact ``Fraction`` sum."""
        if self._integer_weights is None:
            ratios = [e.weight.as_integer_ratio() for e in self.edges]
            scale = math.lcm(*{d for _, d in ratios})
            self._integer_weights = ([n * (scale // d) for n, d in ratios], scale)
        return self._integer_weights

    def weight_of(self, edge_ids: Iterable[int]) -> Fraction:
        return sum((self.edge(i).weight for i in edge_ids), Fraction(0))

    def _bfs_parents_of_0(self) -> dict:
        """``_bfs_parents(self, 0)``, computed once per graph: it decides
        connectivity, and it is the spanning tree rooted at 0."""
        if self._tree0 is None:
            self._tree0 = _bfs_parents(self, 0)
        return self._tree0

    def is_connected(self) -> bool:
        """Whether the unoriented graph is connected."""
        return (self.vertex_count <= 1
                or len(self._bfs_parents_of_0()) == self.vertex_count - 1)

    def require_connected(self) -> None:
        if self.vertex_count == 0:
            raise EmptyGraph("graph has no vertices")
        if not self.is_connected():
            raise DisconnectedGraph("graph is not connected (unoriented)")

    def __repr__(self):
        return f"WeightedDigraph(V={self.vertex_count}, E={len(self.edges)})"


def _bfs_parents(g: WeightedDigraph, root: int, allowed=None) -> dict:
    """Breadth-first search of the unoriented graph from ``root``.

    Returns ``{v: (parent_vertex, edge_id)}`` for every vertex reached other
    than the root, following only the edge ids in ``allowed`` when given.
    Neighbors are explored in ascending edge id, so the result is a pure
    function of the arguments: reruns and platforms agree bit for bit.
    """
    parent = {}
    order = [root]
    for v in order:  # grows while it is read: a FIFO queue
        for e in g.incident(v):
            if allowed is not None and e.id not in allowed:
                continue
            u = e.other(v)
            if u != root and u not in parent:
                parent[u] = (v, e.id)
                order.append(u)
    return parent


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of ``host``: edge-id set plus a parent map rooted at ``root``.

    ``parent[v] = (parent_vertex, edge_id)`` for every vertex except the root.
    """

    host: WeightedDigraph
    root: int
    tree_edges: frozenset
    parent: Mapping[int, tuple]

    def chords(self) -> list:
        """Non-tree edge ids in ascending order."""
        return [e.id for e in self.host.edges if e.id not in self.tree_edges]

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


def spanning_tree(g: WeightedDigraph, root: int = 0) -> SpanningTree:
    """BFS spanning tree rooted at ``root``, ignoring arc direction; a pure
    function of the graph (see ``_bfs_parents``)."""
    if g.vertex_count == 0:
        raise EmptyGraph("graph has no vertices")
    if not (0 <= root < g.vertex_count):
        raise ValueError(f"root {root} out of range")
    parent = g._bfs_parents_of_0() if root == 0 else _bfs_parents(g, root)
    if len(parent) != g.vertex_count - 1:
        raise DisconnectedGraph(
            f"only {len(parent) + 1} of {g.vertex_count} vertices reachable from {root}"
        )
    tree_edges = frozenset(eid for _, eid in parent.values())
    return SpanningTree(host=g, root=root, tree_edges=tree_edges, parent=parent)


@dataclass(frozen=True)
class Cycle:
    """An unoriented simple cycle as an edge-id set with its cached exact weight."""

    edge_ids: frozenset
    weight: Fraction

    @classmethod
    def from_edges(cls, g: WeightedDigraph, edge_ids: Iterable[int]) -> "Cycle":
        """Validate that ``edge_ids`` form one simple closed walk and build the cycle."""
        ids = frozenset(edge_ids)
        if not ids:
            raise NotACycle("empty edge set")
        degree = {}
        for i in ids:
            e = g.edge(i)
            degree[e.source] = degree.get(e.source, 0) + 1
            degree[e.target] = degree.get(e.target, 0) + 1
        if any(d != 2 for d in degree.values()):
            raise NotACycle("some vertex does not have degree 2 in the edge set")
        # Degree-2 everywhere means a disjoint union of cycles; a single
        # cycle additionally has as many edges as touched vertices and is
        # connected. Walk it to check connectivity.
        if len(ids) != len(degree):
            raise NotACycle("edge and vertex counts differ; not a single cycle")
        start = min(degree)
        visited_edges = set()
        v = start
        while True:
            nxt = None
            for e in g.incident(v):
                if e.id in ids and e.id not in visited_edges:
                    nxt = e
                    break
            if nxt is None:
                break
            visited_edges.add(nxt.id)
            v = nxt.other(v)
            if v == start:
                break
        if len(visited_edges) != len(ids):
            raise NotACycle("edge set is a union of disjoint cycles, not one cycle")
        return cls(edge_ids=ids, weight=g.weight_of(ids))


def fundamental_cycle(t: SpanningTree, e: Edge) -> Cycle:
    """The unique unoriented cycle in ``tree + e``: e plus the tree path between its endpoints.

    Climbs the parent map from both endpoints in turn until one climb reaches
    a vertex the other has passed; that vertex is where the two paths meet.
    Each edge id is collected once, and a tree plus one chord is a cycle by
    construction, so the result needs no re-check. The weight is the sum of
    the host's integer weights over their scale: one ``Fraction`` per cycle.
    """
    if e.id in t.tree_edges:
        raise EdgeInTree(f"edge {e.id} is a tree edge")
    parent, root = t.parent, t.root
    ends = [e.source, e.target]
    climbs = ([], [])
    reached = ({e.source: 0}, {e.target: 0})  # per side: vertex -> edges climbed
    side = 0
    while True:
        v = ends[side]
        if v != root:
            v, eid = parent[v]
            climbs[side].append(eid)
            depth = reached[1 - side].get(v)
            if depth is not None:
                break
            reached[side][v] = len(climbs[side])
            ends[side] = v
        side = 1 - side
    ids = climbs[side] + climbs[1 - side][:depth] + [e.id]
    weights, scale = t.host.integer_weights()
    return Cycle(frozenset(ids), Fraction(sum([weights[i] for i in ids]), scale))


class Gf2Basis:
    """Incremental GF(2) elimination over int bitmasks.

    Keeps one reduced vector per pivot (highest set bit). ``try_add``
    reduces the candidate by existing pivots; a surviving nonzero mask is
    independent and gets stored, a vanished one was dependent.
    """

    def __init__(self):
        self._pivots = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def try_add(self, bits: int) -> bool:
        v = bits
        while v:
            msb = v.bit_length() - 1
            if msb not in self._pivots:
                self._pivots[msb] = v
                return True
            v ^= self._pivots[msb]
        return False


def cycle_rank(g: WeightedDigraph) -> int:
    """Dimension of the cycle space of a connected graph: #E - #V + 1."""
    g.require_connected()
    return g.edge_count - g.vertex_count + 1
