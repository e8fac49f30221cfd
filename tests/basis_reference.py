"""Reference oracle for ``test_basis.py``, kept verbatim from an earlier
version of ``crosscc.basis``. Nothing under ``src/`` imports this module.

* ``_shortest_paths``: the Dijkstra that read each edge through ``Edge``
  objects and built a path mask and a label tuple on every relaxation.
* ``_feedback_vertex_set`` and ``_candidate_cycles``: the roots and the
  candidate loop that called it.
* ``horton_cycles``: the chosen cycles of that version of
  ``horton_basis``, each validated by ``Cycle.from_edges``.
* ``fundamental_cycle`` and ``tree_bound``: the two-sided climb of the
  parent map that built each fundamental cycle, and the tree bound that
  summed those cycles. ``tree_bound`` returns ``(cycles, total_weight)``
  where it built a ``CycleBasis``, and ``fundamental_cycle`` raises
  ``ValueError`` for a tree edge, where it raised an exception class that
  is gone; both are otherwise unchanged.
* ``_integer_weights``: the integer scaling, which was then the graph's
  own ``integer_weights`` method.
"""

import math
from fractions import Fraction
from heapq import heappop, heappush
from typing import Dict, List, Tuple

from crosscc.basis import Cycle, _edge_ids, _greedy_independent, _require_nonnegative
from crosscc.errors import DisconnectedGraph
from crosscc.graph import Edge, SpanningTree, WeightedDigraph, cycle_rank


def _integer_weights(g: WeightedDigraph) -> Tuple[List[int], int]:
    """``(weights, scale)``: every edge weight times ``scale``, the least
    common multiple of their denominators, by edge id."""
    ratios = [w.as_integer_ratio() for _, _, _, w in g.edges]
    scale = math.lcm(*{d for _, d in ratios})
    return [n * (scale // d) for n, d in ratios], scale


def _feedback_vertex_set(g: WeightedDigraph) -> List[int]:
    """A greedy feedback vertex set of the unoriented graph.

    Repeatedly prunes vertices of degree at most 1, which lie on no cycle,
    then takes the vertex of highest remaining degree (lowest id on ties),
    until no vertex is left. Degree counts parallel arcs one by one, so a
    2-cycle between parallel arcs keeps its vertices until one is taken.
    """
    n = g.vertex_count
    degree = [len(g.incident(v)) for v in range(n)]
    alive = [True] * n
    prune = [v for v in range(n) if degree[v] <= 1]
    fvs = []

    def remove(v):
        alive[v] = False
        for e in g.incident(v):
            u = e.other(v)
            if alive[u]:
                degree[u] -= 1
                if degree[u] == 1:
                    prune.append(u)

    while True:
        while prune:
            v = prune.pop()
            if alive[v]:
                remove(v)
        rest = [v for v in range(n) if alive[v]]
        if not rest:
            return fvs
        v = max(rest, key=lambda v: (degree[v], -v))
        fvs.append(v)
        remove(v)


def _shortest_paths(g: WeightedDigraph, weights: List[int], source: int):
    """Single-source shortest paths on the unoriented graph.

    ``weights`` are the non-negative integer edge weights by edge id.
    Labels are ``(distance, path)`` where path is the edge bitmask of the
    path. Distinct edge sets give distinct masks, so the optimum per vertex
    is unique and the chosen paths form one consistent shortest-path tree
    per source. Neither label component decreases along a path, so plain
    label-setting Dijkstra applies.

    Returns (dist, path), two lists indexed by vertex.
    """
    n = g.vertex_count
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
        for e in g.incident(v):
            u = e.other(v)
            if done[u]:
                continue
            nd = d + weights[e.id]
            npath = p | 1 << e.id
            if dist[u] is None or (nd, npath) < (dist[u], path[u]):
                dist[u] = nd
                path[u] = npath
                heappush(heap, (nd, npath, u))
    if not all(done):
        raise DisconnectedGraph(f"vertex unreachable from {source} (unoriented)")
    return dist, path


def _candidate_cycles(g: WeightedDigraph, weights: List[int]) -> Dict[int, int]:
    """All simple candidate cycles ``P(z,x) + e + P(y,z)`` over the roots z of
    a feedback vertex set, as mask -> integer weight (``weights`` scale)."""
    candidates = {}
    for z in _feedback_vertex_set(g):
        dist, path = _shortest_paths(g, weights, z)
        for e in g.edges:
            p_zx, p_zy = path[e.source], path[e.target]
            bit = 1 << e.id
            if (p_zx | p_zy) & bit or p_zx & p_zy:
                continue
            # Two edge-disjoint root paths of one tree meet only at the root,
            # so with e they form a simple cycle.
            candidates[p_zx | p_zy | bit] = dist[e.source] + dist[e.target] + weights[e.id]
    return candidates


def horton_cycles(g: WeightedDigraph) -> List[Cycle]:
    """The cycles of that version's ``horton_basis(g)``, in its order."""
    nu = cycle_rank(g)
    if nu == 0:
        return []
    candidates = _candidate_cycles(g, _integer_weights(g)[0])
    ordered = sorted(candidates, key=lambda m: (candidates[m], m))
    chosen = _greedy_independent(ordered, nu)
    return [Cycle.from_edges(g, _edge_ids(m)) for m in chosen]


def fundamental_cycle(t: SpanningTree, e: Edge) -> Cycle:
    """The unique unoriented cycle in ``tree + e``: e plus the tree path between its endpoints.

    Climbs the parent map from both endpoints in turn until one climb reaches
    a vertex the other has passed; that vertex is where the two paths meet.
    Each edge id is collected once, and a tree plus one chord is a cycle by
    construction, so the result needs no re-check. The weight is the sum of
    the host's integer weights over their scale: one ``Fraction`` per cycle.
    """
    if e.id in t.tree_edges:
        raise ValueError(f"edge {e.id} is a tree edge")
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
    weights, scale = _integer_weights(t.host)
    return Cycle(frozenset(ids), Fraction(sum([weights[i] for i in ids]), scale))


def tree_bound(g: WeightedDigraph, t: SpanningTree) -> Tuple[Tuple[Cycle, ...], Fraction]:
    """The fundamental system of cycles of ``t``: a valid basis, so an upper
    bound on the minimum basis weight (not necessarily minimal).

    Each cycle weight is its integer weight over the graph's scale, so the
    total adds the integer weights back up and divides once.
    """
    if t.host is not g:
        raise ValueError("tree does not belong to this graph")
    _require_nonnegative(g)
    cycles = tuple(fundamental_cycle(t, e) for e in g.edges if e.id not in t.tree_edges)
    scale = _integer_weights(g)[1]
    total = Fraction(sum(c.weight.numerator * (scale // c.weight.denominator) for c in cycles),
                     scale)
    return cycles, total
