"""Minimum-weight cycle bases: exact greedy-over-candidates algorithm, the
spanning-tree upper bound, and an independent brute-force oracle.

The exact algorithm builds, for every root z of a feedback vertex set and
every edge e=(x,y), the candidate cycle ``shortest z-x path + e + shortest
y-z path``, keeps the simple ones, sorts them by weight, and greedily admits
candidates whose edge bitmask is independent over GF(2) until the cycle rank
is reached. Horton (1987) showed that with every vertex as a root this
candidate set contains a minimum-weight basis when the shortest paths are
unique; Mehlhorn & Michail ("Minimum cycle bases: faster and simpler", ACM
TALG 2009) showed that roots over any feedback vertex set (a vertex set that
meets every cycle) suffice, so the roots are a greedy one. Path ties are
broken by the path's edge bitmask (bit i set iff edge i is on the path),
which gives one consistent shortest-path tree per root. That tie-break mask
is the path itself: a candidate cycle is two path masks and the bit of e,
OR-ed.

Weights are scaled to ints on entry, by the least common multiple of their
denominators, so no ``Fraction`` arithmetic runs in the shortest paths or
the candidate weights. Scaling by a positive constant keeps the
``(weight, mask)`` order, so the trees and the greedy order are those of the
exact weights.

Per graph, the edges are read once into an adjacency of ``(neighbor,
integer weight, edge bit)`` triples and a list of arcs, which every root's
shortest paths and the candidate loop share. A relaxation compares the
integer distances first and builds a path mask only when the new distance
beats the old one or ties it, where the mask decides. Every candidate is a
simple cycle with its integer weight by construction, so each chosen cycle
is kept as its mask and integer weight, and is not walked again: a basis
builds ``Cycle`` objects only when its ``cycles`` are read.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Tuple

from .errors import DisconnectedGraph, NegativeWeight, TooLarge
from .graph import (
    Cycle,
    Gf2Basis,
    SpanningTree,
    WeightedDigraph,
    _edge_ids,
    cycle_rank,
)


class Provenance(enum.Enum):
    """How a basis (or a complexity value derived from it) was obtained."""

    EXACT = "exact"
    TREE_BOUND = "tree-bound"
    ORACLE = "oracle"


@dataclass(frozen=True)
class CycleBasis:
    """A cycle basis: cycle_rank(g) independent ``(edge mask, weight * scale)``
    pairs and their total weight. ``cycles`` is built on first read, then kept."""

    masks: Tuple[Tuple[int, int], ...]
    scale: int
    total_weight: Fraction
    provenance: Provenance

    @cached_property
    def cycles(self) -> Tuple[Cycle, ...]:
        return tuple(Cycle(frozenset(_edge_ids(m)), Fraction(w, self.scale))
                     for m, w in self.masks)

    def __len__(self):
        return len(self.masks)


def _require_nonnegative(g: WeightedDigraph) -> None:
    if min(g.integer_weights()[0], default=0) < 0:  # the basis reads them anyway
        e = next(e for e in g.edges if e.weight < 0)
        raise NegativeWeight(f"edge {e.id} has weight {e.weight}")


def _mask(edge_ids: Iterable[int]) -> int:
    return sum(1 << i for i in edge_ids)


def _feedback_vertex_set(g: WeightedDigraph) -> List[int]:
    """A greedy feedback vertex set of the unoriented graph.

    Repeatedly prunes vertices of degree at most 1, which lie on no cycle,
    then takes the vertex of highest remaining degree (lowest id on ties),
    until no vertex is left. Degree counts parallel arcs one by one, so a
    2-cycle between parallel arcs keeps its vertices until one is taken.
    The choice reads a heap of ``(-degree, vertex)``: degrees only fall, so
    an entry whose degree has fallen goes back in at its current degree.
    """
    n = g.vertex_count
    degree = [len(g.incident(v)) for v in range(n)]
    alive = [True] * n
    prune = [v for v in range(n) if degree[v] <= 1]
    heap = [(-d, v) for v, d in enumerate(degree)]
    heapify(heap)
    fvs = []

    def remove(v):
        alive[v] = False
        for _, source, target, _ in g.incident(v):
            u = target if v == source else source
            if alive[u]:
                degree[u] -= 1
                if degree[u] == 1:
                    prune.append(u)

    while True:
        while prune:
            v = prune.pop()
            if alive[v]:
                remove(v)
        while heap:
            key, v = heappop(heap)
            if alive[v]:
                if -key == degree[v]:
                    break
                heappush(heap, (-degree[v], v))
        else:
            return fvs
        fvs.append(v)
        remove(v)


def _adjacency(g: WeightedDigraph, weights: List[int]) -> List[List[Tuple[int, int, int]]]:
    """Per vertex, ``(neighbor, weight, 1 << edge id)`` for every incident
    edge in ascending edge id, on the integer ``weights`` by edge id."""
    adjacency = [[] for _ in range(g.vertex_count)]
    for eid, source, target, _ in g.edges:
        w, bit = weights[eid], 1 << eid
        adjacency[source].append((target, w, bit))
        adjacency[target].append((source, w, bit))
    return adjacency


def _shortest_paths(adjacency: List[List[Tuple[int, int, int]]], source: int):
    """Single-source shortest paths on the unoriented graph of ``adjacency``
    (see ``_adjacency``; weights are non-negative integers).

    Labels are ``(distance, path)`` where path is the edge bitmask of the
    path. Distinct edge sets give distinct masks, so the optimum per vertex
    is unique and the chosen paths form one consistent shortest-path tree
    per source. Neither label component decreases along a path, so plain
    label-setting Dijkstra applies. A relaxation compares distances first
    and builds the new path mask only when its distance beats or ties the
    old one: the mask can decide nothing else.

    Returns (dist, path), two lists indexed by vertex.
    """
    n = len(adjacency)
    dist = [None] * n
    path = [0] * n
    done = [False] * n
    dist[source] = 0
    heap = [(0, 0, source)]
    while heap:
        d, p, v = heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for u, w, bit in adjacency[v]:
            if done[u]:
                continue
            nd = d + w
            old = dist[u]
            # The path mask is built only where it wins or decides a tie.
            if old is None or nd < old or nd == old and p | bit < path[u]:
                dist[u] = nd
                path[u] = npath = p | bit
                heappush(heap, (nd, npath, u))
    if not all(done):
        raise DisconnectedGraph(f"vertex unreachable from {source} (unoriented)")
    return dist, path


def _candidate_cycles(g: WeightedDigraph, weights: List[int]) -> Dict[int, int]:
    """All simple candidate cycles ``P(z,x) + e + P(y,z)`` over the roots z of
    a feedback vertex set, as mask -> integer weight (``weights`` scale)."""
    adjacency = _adjacency(g, weights)
    arcs = [(x, y, weights[eid], 1 << eid) for eid, x, y, _ in g.edges]
    candidates = {}
    for z in _feedback_vertex_set(g):
        dist, path = _shortest_paths(adjacency, z)
        for x, y, w, bit in arcs:
            p_zx, p_zy = path[x], path[y]
            if (p_zx | p_zy) & bit or p_zx & p_zy:
                continue
            # Two edge-disjoint root paths of one tree meet only at the root,
            # so with e they form a simple cycle.
            candidates[p_zx | p_zy | bit] = dist[x] + dist[y] + w
    return candidates


def horton_basis(g: WeightedDigraph) -> CycleBasis:
    """Exact minimum-weight cycle basis of a connected graph with weights >= 0.

    Acyclic graphs (cycle rank 0) yield an empty basis rather than an error,
    so straight-line control-flow subgraphs stay total.
    """
    # Label-setting Dijkstra is unsound on negative weights.
    _require_nonnegative(g)
    nu = cycle_rank(g)
    if nu == 0:
        return CycleBasis((), 1, Fraction(0), Provenance.EXACT)
    weights, scale = g.integer_weights()
    candidates = _candidate_cycles(g, weights)
    ordered = sorted(candidates, key=lambda m: (candidates[m], m))
    chosen = _greedy_independent(ordered, nu)
    if len(chosen) < nu:
        # Cannot happen for a connected graph: the candidate set contains a
        # minimum basis. Guard against silent nonsense anyway.
        raise AssertionError("candidate cycles did not span the cycle space")
    # Every candidate is a simple cycle with its integer weight by
    # construction, so the chosen ones need no walk of their own.
    masks = tuple((m, candidates[m]) for m in chosen)
    total = Fraction(sum(w for _, w in masks), scale)
    return CycleBasis(masks, scale, total, Provenance.EXACT)


def _greedy_independent(ordered_masks: Iterable[int], nu: int) -> List[int]:
    """First nu edge bitmasks, in the given order, independent over GF(2).

    Every mask is a set of edge ids of the graph, so none needs a range
    check of its own.
    """
    basis = Gf2Basis()
    chosen = []
    for mask in ordered_masks:
        if len(chosen) == nu:
            break
        if basis.try_add(mask):
            chosen.append(mask)
    return chosen


def tree_bound(g: WeightedDigraph, t: SpanningTree) -> CycleBasis:
    """The fundamental system of cycles of ``t``: a valid basis, so an upper
    bound on the minimum basis weight (not necessarily minimal).

    The cycles are ``SpanningTree.fundamental_masks`` in chord order; the
    total adds their integer weights and divides once.
    """
    if t.host is not g:
        raise ValueError("tree does not belong to this graph")
    _require_nonnegative(g)
    masks = tuple(t.fundamental_masks([g.edges[eid] for eid in t.chords()]))
    scale = g.integer_weights()[1]
    total = Fraction(sum(w for _, w in masks), scale)
    return CycleBasis(masks, scale, total, Provenance.TREE_BOUND)


def enumerate_simple_cycles(g: WeightedDigraph, limit: int = 10_000):
    """Every unoriented simple cycle of ``g`` (including 2-cycles between
    parallel edges), as Cycle objects. Raises TooLarge past ``limit``.

    Cycles are kept as edge-id lists while the search runs and validated
    as Cycle objects only once it finishes within ``limit``."""
    found = {}
    n = g.vertex_count
    for start in range(n):
        # Enumerate cycles whose smallest vertex is `start`; interior
        # vertices are all > start, so each cycle appears for one start only
        # (twice, once per direction; the dict collapses that).
        stack = [(start, [], {start})]
        while stack:
            v, path_edges, path_vertices = stack.pop()
            for e in g.incident(v):
                if e.id in path_edges:
                    continue
                u = e.other(v)
                if u == start:
                    if path_edges:
                        mask = _mask(path_edges) | 1 << e.id
                        if mask not in found:
                            found[mask] = path_edges + [e.id]
                            if len(found) > limit:
                                raise TooLarge(
                                    f"more than {limit} simple cycles; oracle refused"
                                )
                    continue
                if u < start or u in path_vertices:
                    continue
                stack.append((u, path_edges + [e.id], path_vertices | {u}))
    cycles = {m: Cycle.from_edges(g, ids) for m, ids in found.items()}
    return [cycles[m] for m in sorted(cycles, key=lambda m: (cycles[m].weight, m))]


def oracle_min_basis(g: WeightedDigraph, limit: int = 10_000) -> CycleBasis:
    """Brute-force minimum-weight basis for small graphs.

    Enumerates every simple cycle, sorts by weight, and greedily extracts a
    maximal independent set; matroid greedy is exact for cycle spaces. Kept
    deliberately independent of the candidate-set algorithm so the two can
    check each other.
    """
    nu = cycle_rank(g)
    cycles = {_mask(c.edge_ids): c for c in enumerate_simple_cycles(g, limit=limit)}
    chosen = _greedy_independent(cycles, nu)
    if len(chosen) < nu:
        raise AssertionError("cycle enumeration did not span the cycle space")
    total = sum((cycles[m].weight for m in chosen), Fraction(0))
    scale = math.lcm(*(cycles[m].weight.denominator for m in chosen))
    masks = tuple((m, int(cycles[m].weight * scale)) for m in chosen)
    return CycleBasis(masks, scale, total, Provenance.ORACLE)
