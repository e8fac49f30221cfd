"""Minimum-weight cycle bases: exact greedy-over-candidates algorithm, the
spanning-tree upper bound, and an independent brute-force oracle.

Cycles are unoriented edge-id sets with exact ``fractions.Fraction``
weights: arc direction matters to control-flow semantics, never to the
cycle algebra, so every algorithm here traverses the underlying
undirected graph.

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
  u-v path is shorter than a, so d comes from a Dijkstra bounded by w(a),
  run only if an edge at u, where any other u-v path starts, is lighter.

Each rule keeps E - V + c (c components) plus the forced cycles and joins
no components. So, with no search of its own, the graph is connected iff
the kernel is empty or connected (the first root's Dijkstra reaches all of
it) and the forced cycles plus its E - V + 1, if any, are nu = E - V + 1.

On what is left, the kernel, it builds for every root z of a feedback
vertex set and every edge e=(x,y) the candidate cycle ``shortest z-x path
+ e + shortest y-z path``, keeps the simple ones, sorts them by weight,
and greedily admits candidates whose edge bitmask is independent over
GF(2) until the kernel's cycle rank (nu less the forced cycles) is
reached. Horton (1987) showed that with every vertex as a root this
candidate set contains a minimum-weight basis when the shortest paths are
unique; Mehlhorn & Michail ("Minimum cycle bases: faster and simpler", ACM
TALG 2009) showed that roots over any feedback vertex set (a vertex set that
meets every cycle) suffice, so the roots are a greedy one. Each root's
search skips the roots before it: a cycle of the basis found is isometric
(between two of its vertices, one of its arcs is the shortest path), so in
the graph without the roots before the first one on it, it is still that
root's candidate. Path ties are broken by the path's edge bitmask (bit i
set iff kernel edge i is on the path), which gives one consistent
shortest-path tree per root. That tie-break mask is the path itself: a
candidate cycle is two path masks and the bit of e, OR-ed.

No original-edge mask is built. Every merged edge, detour and forced
cycle is a reference to what it was made of: edge r for r >= 0, else the
entry ``~r`` of one flat table, a tuple of earlier references (two merged
edges, the edges of a detour, or a removed edge and its detour). A chosen
kernel cycle keeps its kernel mask, and each kernel edge its reference.
Every weight is summed as it is recorded, so nu and omega need no cycle,
and ``CycleBasis.cycles`` expands the references only when it is read.

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
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .errors import DisconnectedGraph, EmptyGraph, NegativeWeight, NotACycle, TooLarge
from .graph import SpanningTree, WeightedDigraph, _adjacency, _bfs_parents, cycle_rank


class Provenance(enum.Enum):
    """How a basis (or a complexity value derived from it) was obtained."""

    EXACT = "exact"
    TREE_BOUND = "tree-bound"
    ORACLE = "oracle"


class Cycle(NamedTuple):
    """An unoriented simple cycle as an edge-id set with its exact weight."""

    edge_ids: frozenset
    weight: Fraction

    @classmethod
    def from_edges(cls, g: WeightedDigraph, edge_ids: Iterable[int]) -> "Cycle":
        """Validate that ``edge_ids`` form one simple closed walk and build the cycle."""
        ids = frozenset(edge_ids)
        if not ids:
            raise NotACycle("empty edge set")
        edges = sorted(map(g.edge, ids))  # g.edge raises UnknownEdge
        degree = {}
        for _, source, target, _ in edges:
            degree[source] = degree.get(source, 0) + 1
            degree[target] = degree.get(target, 0) + 1
        if any(d != 2 for d in degree.values()):
            raise NotACycle("some vertex does not have degree 2 in the edge set")
        # Degree 2 everywhere makes a disjoint union of cycles, one iff connected.
        if len(_bfs_parents(g, min(degree), edges)) != len(degree) - 1:
            raise NotACycle("edge set is a union of disjoint cycles, not one cycle")
        return cls(edge_ids=ids, weight=sum((e.weight for e in edges), Fraction(0)))


class CycleBasis(NamedTuple):
    """A cycle basis: cycle_rank(g) independent ``(weight * scale, form)``
    members and their total weight. ``cycles`` is built from them on each
    read, in ``(weight, mask)`` order for an exact basis, else in the order
    built: a tree bound's by chord id, the oracle's in ``(weight, mask)``
    order too.

    A form below 0 is a reference (see the module docstring) into
    ``table``; any other is a mask whose bit i stands for ``parts[i]``. The
    edges a member's references reach are disjoint, so the cycle is their
    union."""

    members: Tuple[Tuple[int, int], ...]
    parts: Sequence[int]
    table: Tuple[Tuple[int, ...], ...]
    scale: int
    total_weight: Fraction
    provenance: Provenance

    @property
    def cycles(self) -> Tuple[Cycle, ...]:
        # High to low, the edge ids compare as their masks do.
        cycles = [(w, sorted(_expand(form, self.parts, self.table), reverse=True))
                  for w, form in self.members]
        if self.provenance is Provenance.EXACT:
            cycles.sort()
        return tuple(Cycle(frozenset(ids), Fraction(w, self.scale)) for w, ids in cycles)


def _expand(form: int, parts: Sequence[int], table: Sequence[Tuple[int, ...]]) -> List[int]:
    """The edge ids of a ``CycleBasis`` member's ``form``, read off with a
    stack of references, so a chain of merges of any length is flat."""
    stack = [form] if form < 0 else [parts[i] for i in _edge_ids(form)]
    ids = []
    while stack:
        r = stack.pop()
        if r < 0:
            stack += table[~r]
        else:
            ids.append(r)
    return ids


def _require_nonnegative(g: WeightedDigraph) -> Tuple[List[int], int]:
    """``(weights, scale)``: every edge weight, checked to be >= 0, times
    ``scale``, the least common multiple of their denominators, by edge id.
    A sum of these over ``scale`` is the exact ``Fraction`` sum."""
    ratios = list(map(Fraction.as_integer_ratio, map(itemgetter(3), g.edges)))
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
    while True:
        while prune:
            v = prune.pop()
            if alive[v]:
                alive[v] = False
                for u, _, _ in adjacency[v]:
                    if alive[u]:
                        degree[u] -= 1
                        if degree[u] == 1:
                            prune.append(u)
        live = [v for v in live if alive[v]]
        if not live:
            return fvs
        v = max(live, key=degree.__getitem__)  # max keeps the first of ties: the lowest id
        fvs.append(v)
        prune.append(v)  # removed first, as prune is empty


def _shortest_paths(adjacency: List[List[Tuple[int, int, int]]], source: int, done):
    """Single-source shortest paths on the unoriented graph of ``adjacency``
    (see ``_reduce``; weights are integers >= 0) without the ``done`` vertices.

    Labels are ``(distance, path)`` where path is the edge bitmask of the
    path. Distinct edge sets give distinct masks, so the optimum per vertex
    is unique and the chosen paths form one consistent shortest-path tree
    per source. Neither label component decreases along a path, so plain
    label-setting Dijkstra applies. A relaxation compares distances first
    and builds the new path mask only when its distance beats or ties the
    old one: the mask can decide nothing else.

    Returns (dist, path) by vertex; one not reached has dist None, path -1.
    """
    n = len(adjacency)
    dist = [None] * n
    path = [-1] * n
    dist[source] = path[source] = 0
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
    """``(adjacency, parts, forced, table)``: the kernel of ``g`` on the
    integer ``weights`` by the rules of the module docstring, laid out per
    vertex as a list of ``(neighbor, weight, 1 << kernel edge id)``, one per
    incident kernel edge; the reference of each kernel edge by kernel edge
    id; the forced cycles as ``(integer weight, reference)`` pairs; and the
    table that the references below 0 name."""
    # Per vertex, neighbor -> slot of the one edge between them (None once
    # the vertex is gone); slot i, edge i's at first, holds (integer weight,
    # highest original edge id, reference). Of two parallel edges the
    # lighter keeps the slot; the heavier's forced cycle is closed before
    # the graph next changes. Lighter means less in (weight, original-edge
    # mask). Two edges compared here hold disjoint sets of original edges,
    # so the larger mask is the one that holds the highest id: (weight,
    # highest id) breaks every tie as the masks would.
    nbr = [{} for _ in range(g.vertex_count)]
    slots = [(w, i, i) for i, w in enumerate(weights)]
    heavier, forced, table = [], [], []
    for eid, u, v, _ in g.edges:
        k = nbr[u].setdefault(v, eid)
        if k == eid:
            nbr[v][u] = eid
        else:
            nbr[u][v] = nbr[v][u] = min(k, eid, key=slots.__getitem__)
            heavier.append((u, v, slots[max(k, eid, key=slots.__getitem__)]))
    for u, v, (w, _, r) in heavier:
        d, path = _detour(nbr, slots, table, u, v)
        table.append((r, path))
        forced.append((w + d, -len(table)))  # ~ the index of that entry
    stack = [v for v, row in enumerate(nbr) if len(row) <= 2]
    while stack:
        row = nbr[v := stack.pop()]
        if row is None or len(row) > 2:
            continue
        nbr[v] = None
        for u in row:
            del nbr[u][v]
        if len(row) == 2:
            (a, ka), (b, kb) = row.items()
            (wa, ha, ra), (wb, hb, rb) = slots[ka], slots[kb]
            table.append((ra, rb))
            edge = (wa + wb, ha if ha > hb else hb, -len(table))
            k = nbr[a].get(b)
            if k is None:
                nbr[a][b] = nbr[b][a] = ka
                slots[ka] = edge
            else:
                if edge < slots[k]:
                    slots[k], edge = edge, slots[k]
                d, path = _detour(nbr, slots, table, a, b)
                table.append((edge[2], path))
                forced.append((edge[0] + d, -len(table)))
        # A neighbor's entry goes on when its degree falls to 2 or less, so
        # it lies above any stale entry of its own and is popped first.
        for u in row:
            if len(nbr[u]) <= 2:
                stack.append(u)
    live = [v for v, row in enumerate(nbr) if row is not None]
    index = {v: i for i, v in enumerate(live)}
    adjacency, parts = [[] for _ in live], []
    for v in live:
        for u, k in nbr[v].items():
            if u > v:
                (w, _, r), bit = slots[k], 1 << len(parts)
                parts.append(r)
                adjacency[index[v]].append((index[u], w, bit))
                adjacency[index[u]].append((index[v], w, bit))
    return adjacency, parts, forced, table


def _detour(nbr, slots, table, u, v):
    """``(d, reference)`` of a shortest u-v path of ``_reduce``'s graph
    without its u-v edge k, if one is lighter than k; else k's own. The
    Dijkstra from u settles only distances below the weight of k, and keeps
    each vertex's last relaxation, so the path is read back from v into a
    new ``table`` entry. Each improvement is strictly lighter, so no two
    heap entries tie."""
    k = nbr[u][v]
    bound = slots[k][0]
    dist, via = {u: 0}, {}
    heap = [(0, u)]
    while heap:
        d, x = heappop(heap)
        if x == v:
            path = []
            while x != u:
                x, j = via[x]
                path.append(slots[j][2])
            table.append(tuple(path))
            return d, -len(table)
        if d == dist[x]:
            for y, j in nbr[x].items():
                nd = d + slots[j][0]
                if nd < dist.get(y, bound) and j != k:
                    dist[y] = nd
                    via[y] = x, j
                    heappush(heap, (nd, y))
    return bound, slots[k][2]


def _candidate_cycles(adjacency: List[List[Tuple[int, int, int]]]) -> Dict[int, int]:
    """All simple candidate cycles ``P(z,x) + e + P(y,z)`` over the roots z of
    a feedback vertex set of ``adjacency`` (see ``_reduce``), each root's
    without the roots before it, as mask -> integer weight. DisconnectedGraph
    if the first root misses a vertex."""
    arcs = [(x, y, w, bit) for x, row in enumerate(adjacency) for y, w, bit in row if x < y]
    candidates, gone = {}, [False] * len(adjacency)
    for z in _feedback_vertex_set(adjacency):
        dist, path = _shortest_paths(adjacency, z, gone[:])
        if None in dist and not any(gone):
            raise DisconnectedGraph("graph is not connected (unoriented)")
        gone[z] = True
        for x, y, w, bit in arcs:
            p_zx, p_zy = path[x], path[y]
            if (p_zx | p_zy) & bit or p_zx & p_zy:  # path -1, not reached, has every bit
                continue
            # Two edge-disjoint root paths of one tree meet only at the root,
            # so with e they form a simple cycle.
            candidates[p_zx | p_zy | bit] = dist[x] + dist[y] + w
    return candidates


def horton_basis(g: WeightedDigraph) -> CycleBasis:
    """Exact minimum-weight cycle basis of a connected graph with weights >= 0.

    Acyclic graphs (cycle rank 0) reduce to nothing and yield an empty
    basis rather than an error, so straight-line control-flow subgraphs
    stay total. The reduction gives nu, connectivity and ``cycle_rank``'s
    errors (see the module docstring), and omega is the sum of the members'
    integer weights: no cycle is expanded until ``cycles`` is read.
    """
    # Label-setting Dijkstra is unsound on negative weights.
    weights, scale = _require_nonnegative(g)
    adjacency, parts, members, table = _reduce(g, weights)
    rank = len(parts) - len(adjacency) + 1 if adjacency else 0
    if len(members) + rank != g.edge_count - g.vertex_count + 1:
        raise (DisconnectedGraph("graph is not connected (unoriented)") if g.vertex_count
               else EmptyGraph("graph has no vertices"))
    if adjacency:
        candidates = _candidate_cycles(adjacency)
        ordered = sorted(zip(candidates.values(), candidates))
        chosen = _greedy_independent(map(itemgetter(1), ordered), rank)
        if len(chosen) < rank:
            # Cannot happen for a connected graph: the candidate set contains a
            # minimum basis. Guard against silent nonsense anyway.
            raise AssertionError("candidate cycles did not span the cycle space")
        # Every candidate is a simple cycle with its integer weight by
        # construction, so the chosen ones keep their kernel masks.
        members += [(candidates[m], m) for m in chosen]
    total = Fraction(sum(map(itemgetter(0), members)), scale)
    return CycleBasis(tuple(members), tuple(parts), tuple(table), scale, total, Provenance.EXACT)


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
    members = tuple((depth[x] + depth[y] - 2 * depth_of[path[x] & path[y]] + weights[eid],
                     path[x] ^ path[y] | 1 << eid)
                    for eid, x, y, _ in g.edges if eid not in tree)
    total = Fraction(sum(w for w, _ in members), scale)
    return CycleBasis(members, range(g.edge_count), (), scale, total, Provenance.TREE_BOUND)


def enumerate_simple_cycles(g: WeightedDigraph, limit: int = 10_000):
    """Every unoriented simple cycle of ``g`` (including 2-cycles between
    parallel edges), as Cycle objects. Raises TooLarge past ``limit``.

    Cycles are kept as edge-id lists while the search runs and validated
    as Cycle objects only once it finishes within ``limit``."""
    found = {}
    n = g.vertex_count
    adjacency = _adjacency(n, g.edges)
    for start in range(n):
        # Enumerate cycles whose smallest vertex is `start`; interior
        # vertices are all > start, so each cycle appears for one start only
        # (twice, once per direction; the dict collapses that).
        stack = [(start, [], {start})]
        while stack:
            v, path_edges, path_vertices = stack.pop()
            for u, eid in adjacency[v]:
                if eid in path_edges:
                    continue
                if u == start:
                    if path_edges:
                        mask = _mask(path_edges) | 1 << eid
                        if mask not in found:
                            found[mask] = path_edges + [eid]
                            if len(found) > limit:
                                raise TooLarge(
                                    f"more than {limit} simple cycles; oracle refused"
                                )
                    continue
                if u < start or u in path_vertices:
                    continue
                stack.append((u, path_edges + [eid], path_vertices | {u}))
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
    members = tuple((int(cycles[m].weight * scale), m) for m in chosen)
    return CycleBasis(members, range(g.edge_count), (), scale, total, Provenance.ORACLE)
