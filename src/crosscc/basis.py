"""Minimum-weight cycle bases: exact greedy-over-candidates algorithm, the
spanning-tree upper bound, and an independent brute-force oracle.

The exact algorithm first reduces the graph by three rules until none
applies. Each keeps omega, the minimum basis weight, exactly:

* Prune: a vertex of degree at most 1 lies on no cycle; drop it.
* Series: a vertex v of degree 2, with edges (a, v) and (v, b), a != b,
  becomes one edge (a, b) of the summed weight. Cycles map one to one
  with equal weights.
* Parallel: take edges a and b between u and v with w(a) <= w(b). Remove
  b, and record the forced cycle b plus a shortest u-v path of G - b, of
  weight w(b) + d. The map phi(x) = x + [b in x]{a, b} from the cycle
  space Z(G) onto Z(G - b) is linear, and its kernel is spanned by the
  2-cycle {a, b}. So dropping from any basis of G a member that holds b
  (one that the expansion of {a, b} uses) leaves an image that is a basis
  of G - b. No member gets heavier, since swapping b for a costs
  w(a) - w(b) <= 0, and the dropped one weighs at least w(b) + d. Hence
  omega(G) >= omega(G - b) + w(b) + d, and the forced cycle plus a minimum
  basis of G - b attains it. The trap: w(b) + w(a) is wrong when a third
  u-v path is shorter than a, so d comes from a Dijkstra bounded by w(a).

On what is left, the kernel, it builds for every root z of a feedback
vertex set and every edge e=(x,y) the candidate cycle ``shortest z-x path
+ e + shortest y-z path``, keeps the simple ones, sorts them by weight,
and greedily admits candidates whose edge bitmask is independent over
GF(2) until the kernel's cycle rank (nu less the forced cycles) is
reached. Horton (1987) showed that with every vertex as a root this
candidate set contains a minimum-weight basis when the shortest paths are
unique; Mehlhorn & Michail ("Minimum cycle bases: faster and simpler", ACM
TALG 2009) showed that roots over any feedback vertex set (a vertex set that
meets every cycle) suffice, so the roots are a greedy one. Path ties are
broken by the path's edge bitmask (bit i set iff kernel edge i is on the
path), which gives one consistent shortest-path tree per root. That
tie-break mask is the path itself: a candidate cycle is two path masks and
the bit of e, OR-ed. A kernel edge stands for a path of original edges, so
a chosen kernel cycle becomes an original-edge mask by OR-ing theirs.

Weights are scaled to ints on entry, by the least common multiple of their
denominators, so no ``Fraction`` arithmetic runs in the shortest paths or
the candidate weights. Scaling by a positive constant keeps the
``(weight, mask)`` order, so the trees and the greedy order are those of the
exact weights.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from heapq import heappop, heappush
from typing import Dict, Iterable, List, NamedTuple, Tuple

from .errors import NegativeWeight, TooLarge
from .graph import Cycle, SpanningTree, WeightedDigraph, cycle_rank


class Provenance(enum.Enum):
    """How a basis (or a complexity value derived from it) was obtained."""

    EXACT = "exact"
    TREE_BOUND = "tree-bound"
    ORACLE = "oracle"


class CycleBasis(NamedTuple):
    """A cycle basis: cycle_rank(g) independent ``(edge mask, weight * scale)``
    pairs and their total weight. ``cycles`` is built from them on each read."""

    masks: Tuple[Tuple[int, int], ...]
    scale: int
    total_weight: Fraction
    provenance: Provenance

    @property
    def cycles(self) -> Tuple[Cycle, ...]:
        return tuple(Cycle(frozenset(_edge_ids(m)), Fraction(w, self.scale))
                     for m, w in self.masks)


def _require_nonnegative(g: WeightedDigraph) -> Tuple[List[int], int]:
    """``(weights, scale)``: every edge weight, checked to be >= 0, times
    ``scale``, the least common multiple of their denominators, by edge id.
    A sum of these over ``scale`` is the exact ``Fraction`` sum."""
    ratios = [w.as_integer_ratio() for _, _, _, w in g.edges]
    scale = math.lcm(*{d for _, d in ratios})
    weights = [n * (scale // d) for n, d in ratios]
    if min(weights, default=0) < 0:
        e = next(e for e in g.edges if e.weight < 0)
        raise NegativeWeight(f"edge {e.id} has weight {e.weight}")
    return weights, scale


def _mask(edge_ids: Iterable[int]) -> int:
    return sum(1 << i for i in edge_ids)


def _edge_ids(mask: int) -> List[int]:
    """The set bits of ``mask``, lowest first, one step per set bit."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def _feedback_vertex_set(adjacency: List[List[Tuple[int, int, int]]]) -> List[int]:
    """A greedy feedback vertex set of the unoriented graph of ``adjacency``.

    Repeatedly prunes vertices of degree at most 1, which lie on no cycle,
    then takes the vertex of highest remaining degree (lowest id on ties),
    until no vertex is left. Degree counts parallel arcs one by one, so a
    2-cycle between parallel arcs keeps its vertices until one is taken.
    Each choice is one scan of the live vertices, which costs less than the
    Dijkstra that the chosen root then runs.
    """
    n = len(adjacency)
    degree = [len(row) for row in adjacency]
    alive = [True] * n
    live = range(n)
    prune = [v for v in live if degree[v] <= 1]
    fvs = []

    def remove(v):
        alive[v] = False
        for u, _, _ in adjacency[v]:
            if alive[u]:
                degree[u] -= 1
                if degree[u] == 1:
                    prune.append(u)

    while True:
        while prune:
            v = prune.pop()
            if alive[v]:
                remove(v)
        live = [v for v in live if alive[v]]
        if not live:
            return fvs
        v = max(live, key=degree.__getitem__)  # max keeps the first of ties: the lowest id
        fvs.append(v)
        remove(v)


def _shortest_paths(adjacency: List[List[Tuple[int, int, int]]], source: int):
    """Single-source shortest paths on the unoriented graph of ``adjacency``
    (see ``_reduce``; weights are non-negative integers).

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
    return dist, path


def _reduce(g: WeightedDigraph, weights: List[int]):
    """``(adjacency, originals, forced)``: the kernel of ``g`` on the integer
    ``weights`` by the rules of the module docstring, laid out per vertex as
    a list of ``(neighbor, weight, 1 << kernel edge id)``, one per incident
    kernel edge; the original-edge mask of each kernel edge by kernel edge id; and
    the forced cycles as ``(original-edge mask, integer weight)`` pairs."""
    # Per vertex, neighbor -> slot of the one edge between them (None once
    # the vertex is gone); per slot, (integer weight, original-edge mask).
    # A parallel edge is found as it is joined: the lighter keeps the slot,
    # and the heavier waits in `heavier` for its forced cycle, which is
    # taken before the next step changes the graph.
    nbr = [{} for _ in range(g.vertex_count)]
    slots, heavier, forced = [], [], []

    def join(u, v, edge):
        k = nbr[u].get(v)
        if k is None:
            nbr[u][v] = nbr[v][u] = len(slots)
            slots.append(edge)
        else:
            slots[k], edge = sorted((slots[k], edge))
            heavier.append((u, v, edge))

    for eid, source, target, _ in g.edges:
        join(source, target, (weights[eid], 1 << eid))
    stack = [v for v, row in enumerate(nbr) if len(row) <= 2]
    while True:
        for u, v, (w, m) in heavier:
            d, path = _detour(nbr, slots, u, v)
            forced.append((m | path, w + d))
        heavier.clear()
        if not stack:
            break
        row = nbr[v := stack.pop()]
        if row is None or len(row) > 2:
            continue
        nbr[v] = None
        for u in row:
            del nbr[u][v]
        if len(row) == 2:
            (a, ka), (b, kb) = row.items()
            (wa, ma), (wb, mb) = slots[ka], slots[kb]
            join(a, b, (wa + wb, ma | mb))
        stack += row  # a neighbor whose degree fell to 2 or less
    live = [v for v, row in enumerate(nbr) if row is not None]
    index = {v: i for i, v in enumerate(live)}
    adjacency, originals = [[] for _ in live], []
    for v in live:
        for u, k in nbr[v].items():
            if u > v:
                (w, m), bit = slots[k], 1 << len(originals)
                originals.append(m)
                adjacency[index[v]].append((index[u], w, bit))
                adjacency[index[u]].append((index[v], w, bit))
    return adjacency, originals, forced


def _detour(nbr, slots, u, v):
    """``(d, original-edge mask)`` of a shortest u-v path of ``_reduce``'s
    graph without its u-v edge k, if one is lighter than k; else k's own.
    The Dijkstra from u settles only distances below the weight of k."""
    k = nbr[u][v]
    bound = slots[k][0]
    dist = {u: 0}
    heap = [(0, u, 0)]
    while heap:
        d, x, p = heappop(heap)
        if x == v:
            return d, p
        if d == dist[x]:
            for y, j in nbr[x].items():
                w, m = slots[j]
                if d + w < dist.get(y, bound) and j != k:
                    dist[y] = d + w
                    heappush(heap, (d + w, y, p | m))
    return slots[k]


def _candidate_cycles(adjacency: List[List[Tuple[int, int, int]]]) -> Dict[int, int]:
    """All simple candidate cycles ``P(z,x) + e + P(y,z)`` over the roots z of
    a feedback vertex set of ``adjacency`` (see ``_reduce``), as mask ->
    integer weight."""
    arcs = [(x, y, w, bit) for x, row in enumerate(adjacency) for y, w, bit in row if x < y]
    candidates = {}
    for z in _feedback_vertex_set(adjacency):
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

    Acyclic graphs (cycle rank 0) reduce to nothing and yield an empty
    basis rather than an error, so straight-line control-flow subgraphs
    stay total. The cycles are in ``(weight, mask)`` order.
    """
    # Label-setting Dijkstra is unsound on negative weights.
    weights, scale = _require_nonnegative(g)
    nu = cycle_rank(g)
    adjacency, originals, forced = _reduce(g, weights)
    rank = nu - len(forced)
    candidates = _candidate_cycles(adjacency)
    ordered = sorted(candidates, key=lambda m: (candidates[m], m))
    chosen = _greedy_independent(ordered, rank)
    if len(chosen) < rank:
        # Cannot happen for a connected graph: the candidate set contains a
        # minimum basis. Guard against silent nonsense anyway.
        raise AssertionError("candidate cycles did not span the cycle space")
    # Every candidate is a simple cycle with its integer weight by
    # construction, so the chosen ones need no walk of their own.
    masks = sorted(forced + [(sum(originals[i] for i in _edge_ids(m)), candidates[m])
                             for m in chosen], key=lambda c: (c[1], c[0]))
    total = Fraction(sum(w for _, w in masks), scale)
    return CycleBasis(tuple(masks), scale, total, Provenance.EXACT)


def _greedy_independent(ordered_masks: Iterable[int], nu: int) -> List[int]:
    """First nu edge bitmasks, in the given order, independent over GF(2).

    Elimination keeps one reduced mask per pivot, its highest set bit. A
    candidate that the pivots reduce to a nonzero mask is independent and
    is kept under that mask's pivot; one that they reduce to zero is not.
    """
    pivots = {}
    chosen = []
    for mask in ordered_masks:
        if len(chosen) == nu:
            break
        v = mask
        while v:
            msb = v.bit_length() - 1
            if msb not in pivots:
                pivots[msb] = v
                chosen.append(mask)
                break
            v ^= pivots[msb]
    return chosen


def tree_bound(g: WeightedDigraph, t: SpanningTree) -> CycleBasis:
    """The fundamental system of cycles of ``t``: a valid basis, so an upper
    bound on the minimum basis weight (not necessarily minimal).

    Per chord e = (x, y), in ascending id, the cycle ``t + e`` is the XOR of
    the root-path masks of x and y, plus e. Its integer weight is w(e) plus
    the weighted depths of x and y, less twice that of the vertex where the
    two paths meet (their AND ends there). The total divides once.
    """
    if t.host is not g:
        raise ValueError("tree does not belong to this graph")
    weights, scale = _require_nonnegative(g)
    # Per vertex, its root path's edge mask and integer weight; per mask, the weight.
    path = [0] * g.vertex_count
    depth = [0] * g.vertex_count
    depth_of = {0: 0}
    for v, (p, eid) in t.parent.items():  # parents first
        path[v] = mask = path[p] | 1 << eid
        depth[v] = depth_of[mask] = depth[p] + weights[eid]
    tree = t.tree_edges
    masks = tuple((path[x] ^ path[y] | 1 << eid,
                   depth[x] + depth[y] - 2 * depth_of[path[x] & path[y]] + weights[eid])
                  for eid, x, y, _ in g.edges if eid not in tree)
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
