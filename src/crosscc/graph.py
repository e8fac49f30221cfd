"""Weighted digraphs, spanning trees, fundamental cycles, and GF(2) elimination.

Edges carry dense integer ids and that id, not the endpoint pair, is an
edge's identity. Parallel arcs between the same vertices are therefore
representable, which keeps the control-flow construction total when the
synthetic exit-to-start arc duplicates an existing arc.

Cycles are unoriented edge-id sets: arc direction matters to control-flow
semantics, never to the cycle algebra, so every algorithm here traverses
the underlying undirected graph. Over GF(2) a cycle is an int bitmask with
bit i set iff edge i is in it; a fundamental cycle is the XOR of two
root-path masks. All weights are exact ``fractions.Fraction`` values so
equality assertions are exact; sums over many edges run on the graph's
integer weights (``WeightedDigraph.integer_weights``), which are the same
weights times one common factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple, Union

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

    __slots__ = ("vertex_count", "edges", "_incidence", "_integer_weights", "_tree0")

    def __init__(self, vertex_count: int, edges: Iterable[Union[Edge, tuple]]):
        if vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        built = []
        # Edges come in id order (checked below), so every incidence list is
        # in ascending edge id, which makes every traversal deterministic.
        incidence = [[] for _ in range(vertex_count)]
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
            e = tuple.__new__(Edge, (i, source, target, weight))  # skips Edge.__new__
            built.append(e)
            incidence[source].append(e)
            incidence[target].append(e)
        self.vertex_count = vertex_count
        self.edges = tuple(built)
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
            ratios = [w.as_integer_ratio() for _, _, _, w in self.edges]
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
    incidence = g._incidence
    for v in order:  # grows while it is read: a FIFO queue
        for eid, source, target, _ in incidence[v]:
            if allowed is not None and eid not in allowed:
                continue
            u = target if v == source else source
            if u != root and u not in parent:
                parent[u] = (v, eid)
                order.append(u)
    return parent


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of ``host``: edge-id set plus a parent map rooted at ``root``.

    ``parent[v] = (parent_vertex, edge_id)`` for every vertex except the root,
    in BFS order (both constructors run a BFS), so each after its parent.
    """

    host: WeightedDigraph
    root: int
    tree_edges: frozenset
    parent: Mapping[int, tuple]

    def chords(self) -> list:
        """Non-tree edge ids in ascending order."""
        return [eid for eid, _, _, _ in self.host.edges if eid not in self.tree_edges]

    @cached_property
    def _root_paths(self) -> Tuple[List[int], List[int], Dict[int, int], List[int]]:
        """Per vertex, the edge mask and integer weight of its path from the
        root; the vertex of each such mask; and the host's integer weights."""
        weights = self.host.integer_weights()[0]
        path = [0] * self.host.vertex_count
        depth = [0] * self.host.vertex_count
        at = {0: self.root}
        for v, (p, eid) in self.parent.items():  # parents first
            path[v] = mask = path[p] | 1 << eid
            depth[v] = depth[p] + weights[eid]
            at[mask] = v
        return path, depth, at, weights

    def fundamental_masks(self, chords: Iterable[Edge]) -> List[Tuple[int, int]]:
        """Edge mask and integer weight of the cycle ``tree + e``, per chord e:
        the XOR of the root paths of e's ends, whose AND ends where they meet."""
        path, depth, at, weights = self._root_paths
        return [(path[x] ^ path[y] | 1 << eid,
                 depth[x] + depth[y] - 2 * depth[at[path[x] & path[y]]] + weights[eid])
                for eid, x, y, _ in chords]

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

    A tree plus one chord is a cycle by construction, so the result needs
    no re-check (see ``SpanningTree.fundamental_masks``).
    """
    if e.id in t.tree_edges:
        raise EdgeInTree(f"edge {e.id} is a tree edge")
    ((mask, weight),) = t.fundamental_masks([e])
    return Cycle(frozenset(_edge_ids(mask)), Fraction(weight, t.host.integer_weights()[1]))


def _edge_ids(mask: int) -> List[int]:
    """The set bits of ``mask``, lowest first, one step per set bit."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


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
