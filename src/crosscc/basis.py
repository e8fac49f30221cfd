"""Minimum-weight cycle bases: exact greedy-over-candidates algorithm, the
spanning-tree upper bound, and an independent brute-force oracle.

The exact algorithm builds, for every vertex z and edge e=(x,y), the
candidate cycle ``shortest z-x path + e + shortest y-z path``, keeps the
simple ones, sorts them by weight, and greedily admits candidates whose
edge bitmask is independent over GF(2) until the cycle rank is reached.
The candidate set is guaranteed to contain a minimum-weight basis when the
shortest paths are unique, so path ties are broken by a deterministic
additive perturbation (see ``_dijkstra``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Dict, Optional, Sequence, Tuple

from .errors import DisconnectedGraph, NegativeWeight, NotACycle, TooLarge
from .graph import (
    Cycle,
    Gf2Basis,
    SpanningTree,
    WeightedDigraph,
    cycle_rank,
    fundamental_cycle,
)


class Provenance(enum.Enum):
    """How a basis (or a complexity value derived from it) was obtained."""

    EXACT = "exact"
    TREE_BOUND = "tree-bound"
    ORACLE = "oracle"


@dataclass(frozen=True)
class CycleBasis:
    """A cycle basis: cycle_rank(g) independent cycles and their total weight."""

    cycles: Tuple[Cycle, ...]
    total_weight: Fraction
    provenance: Provenance

    def __len__(self):
        return len(self.cycles)


def _require_nonnegative(g: WeightedDigraph) -> None:
    for e in g.edges:
        if e.weight < 0:
            raise NegativeWeight(f"edge {e.id} has weight {e.weight}")


def _dijkstra(g: WeightedDigraph, source: int):
    """Single-source shortest paths on the unoriented graph.

    Labels are ``(distance, tiebreak)`` where tiebreak sums ``2**edge_id``
    over the path. Distinct edge sets give distinct tiebreak sums, so the
    optimum per vertex is unique and the chosen paths form one consistent
    shortest-path tree per source. Both label components are additive and
    non-negative, so plain label-setting Dijkstra applies.

    Returns (dist, tiebreak, pred) maps; pred[v] is the edge entering v.
    """
    dist: Dict[int, Fraction] = {source: Fraction(0)}
    tie: Dict[int, int] = {source: 0}
    pred: Dict[int, Optional[int]] = {source: None}
    done = set()
    heap = [(Fraction(0), 0, source)]
    while heap:
        d, t, v = heappop(heap)
        if v in done:
            continue
        done.add(v)
        for e in g.incident(v):
            u = e.other(v)
            if u in done:
                continue
            nd = d + e.weight
            nt = t + (1 << e.id)
            if u not in dist or (nd, nt) < (dist[u], tie[u]):
                dist[u] = nd
                tie[u] = nt
                pred[u] = e.id
                heappush(heap, (nd, nt, u))
    return dist, tie, pred


class _SourceTree:
    """Shortest paths out of one source, with memoized path edge sets."""

    def __init__(self, g: WeightedDigraph, source: int):
        # Label-setting Dijkstra is unsound on negative weights.
        _require_nonnegative(g)
        self.g = g
        self.source = source
        self.dist, self.tie, self.pred = _dijkstra(g, source)
        if len(self.dist) != g.vertex_count:
            raise DisconnectedGraph(
                f"vertex unreachable from {source} (unoriented)"
            )
        self._paths: Dict[int, frozenset] = {source: frozenset()}

    def path_edges(self, target: int) -> frozenset:
        chain = []
        v = target
        while v not in self._paths:
            eid = self.pred[v]
            chain.append((v, eid))
            v = self.g.edge(eid).other(v)
        acc = set(self._paths[v])
        for vertex, eid in reversed(chain):
            acc.add(eid)
            self._paths[vertex] = frozenset(acc)
        return self._paths[target]


def _candidate_cycles(g: WeightedDigraph, trees: Sequence[_SourceTree]):
    """All simple candidate cycles ``P(z,x) + e + P(y,z)``, deduplicated."""
    seen = {}
    for z in range(g.vertex_count):
        tree = trees[z]
        for e in g.edges:
            p_zx = tree.path_edges(e.source)
            p_zy = tree.path_edges(e.target)
            if e.id in p_zx or e.id in p_zy:
                continue
            if p_zx & p_zy:
                continue
            ids = p_zx | p_zy | {e.id}
            if ids in seen:
                continue
            try:
                seen[ids] = Cycle.from_edges(g, ids)
            except NotACycle:
                continue
    return list(seen.values())


def horton_basis(g: WeightedDigraph) -> CycleBasis:
    """Exact minimum-weight cycle basis of a connected graph with weights >= 0.

    Acyclic graphs (cycle rank 0) yield an empty basis rather than an error,
    so straight-line control-flow subgraphs stay total.
    """
    _require_nonnegative(g)
    nu = cycle_rank(g)
    if nu == 0:
        return CycleBasis(cycles=(), total_weight=Fraction(0), provenance=Provenance.EXACT)
    trees = [_SourceTree(g, s) for s in range(g.vertex_count)]
    candidates = _candidate_cycles(g, trees)
    candidates.sort(key=lambda c: (c.weight, c.canonical_key()))
    chosen = _greedy_independent(candidates, nu)
    if len(chosen) < nu:
        # Cannot happen for a connected graph: the candidate set contains a
        # minimum basis. Guard against silent nonsense anyway.
        raise AssertionError("candidate cycles did not span the cycle space")
    total = sum((c.weight for c in chosen), Fraction(0))
    return CycleBasis(cycles=tuple(chosen), total_weight=total, provenance=Provenance.EXACT)


def _greedy_independent(ordered_cycles, nu: int):
    """First nu cycles, in the given order, whose edge bitmasks are independent.

    Every cycle was built through ``Cycle.from_edges``, which looked up each
    edge id in the graph, so the masks need no range check of their own.
    """
    basis = Gf2Basis()
    chosen = []
    for cycle in ordered_cycles:
        if len(chosen) == nu:
            break
        if basis.try_add(sum(1 << i for i in cycle.edge_ids)):
            chosen.append(cycle)
    return chosen


def tree_bound(g: WeightedDigraph, t: SpanningTree) -> CycleBasis:
    """The fundamental system of cycles of ``t``: a valid basis, so an upper
    bound on the minimum basis weight (not necessarily minimal)."""
    if t.host is not g:
        raise ValueError("tree does not belong to this graph")
    cycles = []
    for eid in t.chords():
        cycles.append(fundamental_cycle(t, g.edge(eid)))
    total = sum((c.weight for c in cycles), Fraction(0))
    return CycleBasis(cycles=tuple(cycles), total_weight=total, provenance=Provenance.TREE_BOUND)


def enumerate_simple_cycles(g: WeightedDigraph, limit: int = 10_000):
    """Every unoriented simple cycle of ``g`` (including 2-cycles between
    parallel edges), as Cycle objects. Raises TooLarge past ``limit``."""
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
                        ids = frozenset(path_edges) | {e.id}
                        if ids not in found:
                            found[ids] = Cycle.from_edges(g, ids)
                            if len(found) > limit:
                                raise TooLarge(
                                    f"more than {limit} simple cycles; oracle refused"
                                )
                    continue
                if u < start or u in path_vertices:
                    continue
                stack.append((u, path_edges + [e.id], path_vertices | {u}))
    return sorted(found.values(), key=lambda c: (c.weight, c.canonical_key()))


def oracle_min_basis(g: WeightedDigraph, limit: int = 10_000) -> CycleBasis:
    """Brute-force minimum-weight basis for small graphs.

    Enumerates every simple cycle, sorts by weight, and greedily extracts a
    maximal independent set; matroid greedy is exact for cycle spaces. Kept
    deliberately independent of the candidate-set algorithm so the two can
    check each other.
    """
    nu = cycle_rank(g)
    cycles = enumerate_simple_cycles(g, limit=limit)
    chosen = _greedy_independent(cycles, nu)
    if len(chosen) < nu:
        raise AssertionError("cycle enumeration did not span the cycle space")
    total = sum((c.weight for c in chosen), Fraction(0))
    return CycleBasis(cycles=tuple(chosen), total_weight=total, provenance=Provenance.ORACLE)
