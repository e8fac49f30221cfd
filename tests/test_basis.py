import math
import random
import tracemalloc
from fractions import Fraction

import networkx as nx
import pytest

import basis_reference
from crosscc import basis
from crosscc.basis import (
    Cycle,
    Provenance,
    _candidate_cycles,
    _edge_ids,
    _expand,
    _feedback_vertex_set,
    _greedy_independent,
    _reduce,
    _require_nonnegative,
    _shortest_paths,
    enumerate_simple_cycles,
    horton_basis,
    oracle_min_basis,
    tree_bound,
)
from crosscc.cfg import lower
from crosscc.dot import parse_dot
from crosscc.errors import DisconnectedGraph, EmptyGraph, NegativeWeight, TooLarge
from crosscc.graph import (
    Edge,
    SpanningTree,
    WeightedDigraph,
    cycle_rank,
    spanning_tree,
)
from crosscc.metric import cross_complexity
from crosscc.minilang import parse

from conftest import (
    CORPUS_WEIGHTS,
    FAN_TREE_1,
    FAN_TREE_2,
    FAN_TREE_3,
    FIXTURES,
    negative_weight_pentagon,
    random_connected_graph,
    random_spanning_tree,
    random_weighted_multigraph,
    weight_of,
    weighted_dot_cfg,
    weighted_fan,
)


def triangle():
    return WeightedDigraph(3, [(0, 1), (1, 2), (2, 0)])


def k4():
    return WeightedDigraph(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def ifelse_cfg():
    # s->a, s->b, a->r, b->r plus the zero-weight closing arc r->s.
    return WeightedDigraph(
        4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (3, 0, 0)])


def edge_ids(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def scale_of(g):
    """The factor ``_require_nonnegative`` multiplies every weight by."""
    return math.lcm(*(e.weight.denominator for e in g.edges))


def adjacency_of(g):
    """``g`` unreduced, laid out as ``_reduce`` lays out a kernel: per vertex,
    ``(neighbor, weight, 1 << edge id)`` for every incident edge in ascending
    edge id, on the integer weights ``horton_basis`` uses."""
    weights = _require_nonnegative(g)[0]
    adjacency = [[] for _ in range(g.vertex_count)]
    for eid, source, target, _ in g.edges:
        adjacency[source].append((target, weights[eid], 1 << eid))
        adjacency[target].append((source, weights[eid], 1 << eid))
    return adjacency


def shortest_paths(g, source):
    """``_shortest_paths`` from ``source`` on the adjacency of the integer
    weights ``horton_basis`` uses (the weighted fan's are already integers,
    so its scale is 1), with no vertex left out."""
    return _shortest_paths(adjacency_of(g), source, [False] * g.vertex_count)


def all_pairs(g):
    """``(dist, path)`` per source."""
    return [shortest_paths(g, s) for s in range(g.vertex_count)]


class TestAllPairsShortestPaths:
    """All-pairs distances and path masks, read from one ``_shortest_paths``
    call per source."""

    def test_fan_b_to_d(self):
        # All simple b-d walks weigh 6 (b-a-d), 9 (b-c-d), 10, 11, 11, 15.
        g = weighted_fan()
        dist, path = shortest_paths(g, 1)
        assert dist[3] == 6
        assert path[3] == 0b101

    def test_unit_path_graph(self):
        g = WeightedDigraph(5, [(i, i + 1, 1) for i in range(4)])
        dist, _ = shortest_paths(g, 0)
        assert dist[4] == 4

    def test_diagonal_zero_and_symmetry(self):
        pairs = all_pairs(weighted_fan())
        for x in range(5):
            assert pairs[x][0][x] == 0
            assert pairs[x][1][x] == 0
            for y in range(5):
                assert pairs[x][0][y] == pairs[y][0][x]
                # The tie-break makes the optimum unique, so both ends agree.
                assert pairs[x][1][y] == pairs[y][1][x]

    def test_paths_achieve_distances(self):
        g = weighted_fan()
        for dist, path in all_pairs(g):
            for y in range(5):
                assert weight_of(g, edge_ids(path[y])) == dist[y]

    def test_done_vertices_are_left_out(self):
        # From b without the hub a, the fan is the path b-c-d-e: a is not
        # reached (distance None, path -1), and d is 9 away, not 6 via a.
        adjacency = adjacency_of(weighted_fan())
        dist, path = _shortest_paths(adjacency, 1, [True] + [False] * 4)
        assert dist == [None, 0, 2, 9, 15]
        assert path == [-1, 0, 1 << 4, 1 << 4 | 1 << 5, 1 << 4 | 1 << 5 | 1 << 6]
        rim = [[arc for arc in row if arc[0]] if v else [] for v, row in enumerate(adjacency)]
        assert _shortest_paths(rim, 1, [False] * 5) == (dist, path)

    def test_negative_weight_rejected(self):
        # Checked once per graph, before any shortest path runs.
        with pytest.raises(NegativeWeight, match="edge 1 has weight -1$"):
            _require_nonnegative(negative_weight_pentagon())  # the first one is named
        g = WeightedDigraph(2, [(0, 1, "1/2"), (1, 0, "-1/2")])
        with pytest.raises(NegativeWeight, match="edge 1 has weight -1/2"):
            _require_nonnegative(g)  # however small


def fixture_graphs():
    """The graph of every fixture: each lowered .mini function, each .dot."""
    graphs = []
    for path in sorted(FIXTURES.glob("*.mini")):
        program = parse(path.read_text(encoding="utf-8"), path.name)
        graphs.extend(lower(fn).graph for fn in program.functions)
    for path in sorted(FIXTURES.glob("*.dot")):
        graphs.append(parse_dot(path.read_text(encoding="utf-8")).graph)
    return graphs


class TestCandidateCycles:
    """Every candidate is a simple cycle whose weight is its edges' weight,
    which ``_candidate_cycles`` relies on instead of walking each one."""

    @staticmethod
    def check(g):
        scale = scale_of(g)
        for mask, weight in _candidate_cycles(adjacency_of(g)).items():
            ids = edge_ids(mask)
            assert Cycle.from_edges(g, ids).edge_ids == ids
            assert type(weight) is int
            assert weight_of(g, ids) * scale == weight

    def test_random_graphs(self):
        rng = random.Random(0xCA11D)
        for _ in range(200):
            self.check(random_connected_graph(rng))
        # Rational weights (scale above 1) and parallel arcs.
        rng = random.Random(0xF1A7)
        for _ in range(100):
            self.check(random_weighted_multigraph(rng))

    def test_fixture_graphs(self):
        graphs = fixture_graphs()
        assert len(graphs) > 10
        for g in graphs:
            self.check(g)


def reduced(g):
    """``_reduce`` on the integer weights ``horton_basis`` uses, with its
    references expanded: the kernel adjacency, the original-edge mask of
    each kernel edge, and the forced cycles as ``(original-edge mask,
    integer weight)`` pairs."""
    adjacency, parts, forced, table = _reduce(g, _require_nonnegative(g)[0])
    originals = [sum(1 << i for i in _expand(1 << k, parts, table)) for k in range(len(parts))]
    return adjacency, originals, [(sum(1 << i for i in _expand(r, (), table)), w)
                                  for w, r in forced]


def kernel_graph(adjacency):
    """The kernel ``adjacency`` of ``_reduce`` as a graph on its integer
    weights, kernel edge i as edge i."""
    arcs = sorted((bit, x, y, w) for x, row in enumerate(adjacency)
                  for y, w, bit in row if x < y)
    return WeightedDigraph(len(adjacency), [(x, y, w) for _, x, y, w in arcs])


def reference_corpus():
    """The graphs ``TestCandidateCycles`` checks: 200 unit-weight random
    graphs, 100 weighted multigraphs, and every fixture graph."""
    rng = random.Random(0xCA11D)
    graphs = [random_connected_graph(rng) for _ in range(200)]
    rng = random.Random(0xF1A7)
    graphs += [random_weighted_multigraph(rng) for _ in range(100)]
    return graphs + fixture_graphs()


class TestReferenceDijkstra:
    """The Dijkstra on a prebuilt adjacency, which builds a path mask only
    when a label can win, against the one that built a mask and a tuple on
    every relaxation (``basis_reference``)."""

    def test_same_labels_from_every_root(self):
        for g in reference_corpus():
            weights = _require_nonnegative(g)[0]
            adjacency = adjacency_of(g)
            for s in range(g.vertex_count):
                assert _shortest_paths(adjacency, s, [False] * g.vertex_count) == \
                    basis_reference._shortest_paths(g, weights, s)

    def test_same_roots_and_basis(self):
        # The reference runs on the kernel that _reduce leaves, built as a
        # graph; its cycles as original edges, with the forced cycles, in
        # (weight, mask) order, must be the basis.
        for g in reference_corpus():
            scale = _require_nonnegative(g)[1]
            adjacency, originals, forced = reduced(g)
            kernel = kernel_graph(adjacency)
            assert _feedback_vertex_set(adjacency) == basis_reference._feedback_vertex_set(kernel)
            cycles = basis_reference.horton_cycles(kernel) if adjacency else []
            expected = forced + [(sum(originals[i] for i in c.edge_ids), c.weight)
                                 for c in cycles]
            expected.sort(key=lambda c: (c[1], c[0]))
            assert list(horton_basis(g).cycles) == \
                [Cycle(frozenset(_edge_ids(m)), Fraction(w, scale)) for m, w in expected]

    def test_oracle_cycles_are_the_checked_ones(self):
        # The oracle's members keep their original-edge masks; the cycles it
        # builds from them are the ones Cycle.from_edges checked and summed.
        for g in reference_corpus():
            basis = oracle_min_basis(g)
            assert list(basis.cycles) == [Cycle.from_edges(g, c.edge_ids) for c in basis.cycles]
            assert basis.total_weight == sum((c.weight for c in basis.cycles), Fraction(0))


def is_forest_without(g, removed):
    """True iff deleting ``removed`` leaves no (unoriented) cycle, parallel
    arcs included: union-find over the remaining edges never closes a loop."""
    removed = set(removed)
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in g.edges:
        if e.source in removed or e.target in removed:
            continue
        ru, rv = find(e.source), find(e.target)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


class TestFeedbackVertexSet:
    def test_parallel_arcs_keep_a_root(self):
        g = WeightedDigraph(3, [(0, 1), (1, 2), (2, 1)])
        assert _feedback_vertex_set(adjacency_of(g)) == [1]

    def test_acyclic_graph_needs_no_root(self):
        assert _feedback_vertex_set(adjacency_of(WeightedDigraph(4, [(0, 1), (1, 2), (1, 3)]))) == []

    def test_highest_degree_then_lowest_id(self):
        # K4: every degree is 3, so vertex 0 goes first; the rest is a
        # triangle of degree 2, so vertex 1 goes next.
        assert _feedback_vertex_set(adjacency_of(k4())) == [0, 1]


class TestHortonBasis:
    def test_fan_minimum_is_36(self):
        basis = horton_basis(weighted_fan())
        assert basis.total_weight == 36
        assert sorted(c.weight for c in basis.cycles) == [6, 15, 15]
        assert basis.provenance is Provenance.EXACT

    def test_triangle(self):
        basis = horton_basis(triangle())
        assert basis.total_weight == 3
        assert len(basis.members) == 1

    def test_ifelse_cfg_pair(self):
        # Unique basis: the two entry-to-exit lobes, each closed by the
        # zero-weight arc, so 2 + 2 = 4.
        g = ifelse_cfg()
        basis = horton_basis(g)
        assert cycle_rank(g) == 2
        assert basis.total_weight == 4
        assert sorted(c.weight for c in basis.cycles) == [2, 2]
        assert {c.edge_ids for c in basis.cycles} == {
            frozenset({0, 2, 4}), frozenset({1, 3, 4})}

    def test_acyclic_graph_empty_basis(self):
        g = WeightedDigraph(4, [(0, 1), (1, 2), (2, 3)])
        basis = horton_basis(g)
        assert basis.cycles == ()
        assert basis.total_weight == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            horton_basis(negative_weight_pentagon())

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            horton_basis(WeightedDigraph(3, [(0, 1)]))

    def test_basis_is_independent_and_full_rank(self):
        g = weighted_fan()
        masks = [sum(1 << i for i in c.edge_ids) for c in horton_basis(g).cycles]
        assert _greedy_independent(masks, len(masks)) == masks
        assert len(masks) == cycle_rank(g)

    def test_cycle_weights_recompute(self):
        g = weighted_fan()
        for c in horton_basis(g).cycles:
            assert c.weight == weight_of(g, c.edge_ids)

    def test_deterministic(self):
        g = weighted_fan()
        b1 = horton_basis(g)
        b2 = horton_basis(g)
        assert [c.edge_ids for c in b1.cycles] == [c.edge_ids for c in b2.cycles]


def disjoint_union(*graphs, isolated=0):
    """The graphs side by side, vertices renumbered in order, plus
    ``isolated`` vertices without edges."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(s + offset, t + offset, w) for _, s, t, w in g.edges]
        offset += g.vertex_count
    return WeightedDigraph(offset + isolated, edges)


class TestConnectivity:
    """``horton_basis`` reads connectivity off its reduction and the first
    root's Dijkstra, and raises what ``cycle_rank`` raises, after
    ``NegativeWeight``."""

    NOT_CONNECTED = r"^graph is not connected \(unoriented\)$"

    def test_two_triangles_reduce_away_and_are_rejected(self):
        g = disjoint_union(triangle(), triangle())
        assert _reduce(g, _require_nonnegative(g)[0])[0] == []
        with pytest.raises(DisconnectedGraph, match=self.NOT_CONNECTED):
            horton_basis(g)

    def test_two_kernels_are_rejected(self):
        # Each K4 is a kernel of its own, so the counts agree with one
        # connected graph and only the first root's Dijkstra can tell.
        g = disjoint_union(k4(), k4())
        assert len(_reduce(g, _require_nonnegative(g)[0])[0]) == 8
        with pytest.raises(DisconnectedGraph, match=self.NOT_CONNECTED):
            horton_basis(g)

    def test_isolated_vertex_is_rejected(self):
        with pytest.raises(DisconnectedGraph, match=self.NOT_CONNECTED):
            horton_basis(disjoint_union(k4(), isolated=1))

    def test_no_vertex_is_an_empty_graph(self):
        with pytest.raises(EmptyGraph, match="^graph has no vertices$"):
            horton_basis(WeightedDigraph(0, []))

    def test_negative_weight_comes_first(self):
        with pytest.raises(NegativeWeight):
            horton_basis(disjoint_union(negative_weight_pentagon(), k4()))

    def test_raises_exactly_where_cycle_rank_raises(self):
        # One to three random multigraphs side by side, sometimes an isolated
        # vertex, and up to one random arc per part, which may or may not
        # join them.
        rng = random.Random(0xC0111EC7)
        disconnected = 0
        for _ in range(300):
            parts = [random_weighted_multigraph(rng, max_vertices=6, max_nu=3)
                     for _ in range(rng.randint(1, 3))]
            g = disjoint_union(*parts, isolated=int(rng.random() < 0.2))
            links = [(*rng.sample(range(g.vertex_count), 2), rng.choice(CORPUS_WEIGHTS))
                     for _ in range(rng.randint(0, len(parts)))]
            g = WeightedDigraph(g.vertex_count, [e[1:] for e in g.edges] + links)
            try:
                cycle_rank(g)
            except DisconnectedGraph:
                disconnected += 1
                with pytest.raises(DisconnectedGraph, match=self.NOT_CONNECTED):
                    horton_basis(g)
            else:
                assert horton_basis(g).total_weight == oracle_min_basis(g).total_weight
        assert 50 < disconnected < 250


def if_chain(n):
    """The CFG of one function of ``n`` sequential ``if (c) { x; }`` and a
    ``return``."""
    text = "fn f(c) {\n" + "  if (c) { x; }\n" * n + "  return x;\n}\n"
    return lower(parse(text, "chain.mini").functions[0])


class TestReduction:
    """``horton_basis`` runs the candidates on the kernel that the prune,
    series and parallel rules of ``_reduce`` leave, plus the forced cycles."""

    def test_parallel_edge_closes_through_the_shortest_other_path(self):
        # K4 with a second, heavier 0-1 edge b. omega(G - b) = 13, and b's
        # forced cycle is b plus 0-2-1 (7 + 2), not b plus edge 0 (7 + 5).
        g = WeightedDigraph(
            4, [(0, 1, 5), (0, 1, 7), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert reduced(g)[2] == [(0b10110, 9)]
        assert horton_basis(g).total_weight == oracle_min_basis(g).total_weight == 22

    def test_multigraphs_with_a_forced_cycle_match_the_oracle(self):
        rng = random.Random(0x9A7A11E1)
        reduced = 0
        while reduced < 300:
            g = random_weighted_multigraph(rng)
            if _reduce(g, _require_nonnegative(g)[0])[2]:
                reduced += 1
                assert horton_basis(g).total_weight == oracle_min_basis(g).total_weight

    def test_if_chain_reduces_away(self):
        # omega = 4n + 1: each if's body closes a triangle of weight 3, and
        # the shortest entry-to-exit path, closed by the zero-weight arc,
        # weighs n + 1. The reduction leaves no kernel, so 2000 ifs are fast.
        for n in range(1, 7):
            cc = cross_complexity(if_chain(n))
            assert cc.omega_min == oracle_min_basis(if_chain(n).graph).total_weight == 4 * n + 1
        cfg = if_chain(2000)
        assert _reduce(cfg.graph, _require_nonnegative(cfg.graph)[0])[0] == []
        cc = cross_complexity(cfg)
        assert (cc.nu, cc.omega_min) == (2001, 8001)

    @pytest.mark.slow
    def test_deep_chains_stay_flat(self):
        # Each if merges into, and closes its forced cycle on, what the ifs
        # before it left: 20 000 references deep. The table keeps them flat,
        # so ==, repr and cycles recurse nowhere.
        graph = if_chain(20000).graph
        basis = horton_basis(graph)
        assert basis == horton_basis(graph)
        assert repr(basis).startswith("CycleBasis(members=(")
        cycles = basis.cycles
        assert len(cycles) == 20001
        assert sum((c.weight for c in cycles), Fraction(0)) == basis.total_weight == 80001
        for c in random.Random(20000).sample(cycles[:-1], 50) + [cycles[-1]]:
            assert Cycle.from_edges(graph, c.edge_ids) == c  # the last is the longest

    @pytest.mark.slow
    def test_long_function_allocates_little(self):
        # An original-edge mask per merged edge and forced cycle, each as wide
        # as its highest edge id, peaked at 26-27 MB here; the references
        # peak at about 4 MB.
        graph = if_chain(5000).graph
        tracemalloc.start()
        try:
            horton_basis(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    @pytest.fixture
    def pushes(self, monkeypatch):
        """The number of heap pushes in ``basis`` from here on: a Dijkstra
        that relaxes an edge pushes at least once."""
        count = [0]
        push = basis.heappush

        def counted(heap, item):
            count[0] += 1
            push(heap, item)

        monkeypatch.setattr(basis, "heappush", counted)
        return count

    def test_if_chain_closes_every_forced_cycle_without_a_dijkstra(self, pushes):
        # At the first end of every parallel pair, no edge is lighter than
        # the pair's lighter edge, so no other path between its ends can be:
        # the bounded search from that end relaxes nothing.
        assert len(horton_basis(if_chain(2000).graph).members) == 2001
        assert pushes[0] == 0

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0)])
    def test_detour_through_a_lighter_arc_at_u(self, pushes, pair):
        # The parallel pair s-a weighs 2 and 3, and the zero-weight closing
        # arc r -> s with a -> r (1) is a lighter s-a path. So the forced
        # cycle of the 3 is closed by s-r-a (3 + 1), not by the 2 (3 + 2),
        # and omega is 4 + 3, where stopping at the 2 would give 5 + 3.
        u, v = pair
        g = WeightedDigraph(3, [(u, v, 2), (u, v, 3), (1, 2, 1), (2, 0, 0)])
        assert reduced(g)[2][0] == (0b1110, 4)
        assert pushes[0] > 0
        assert horton_basis(g).total_weight == oracle_min_basis(g).total_weight == 7


class TestTreeBound:
    def test_fan_tree_bounds(self):
        g = weighted_fan()
        for ids, expected in [(FAN_TREE_1, 36), (FAN_TREE_2, 45), (FAN_TREE_3, 36)]:
            t = SpanningTree.from_edge_ids(g, 0, ids)
            bound = tree_bound(g, t)
            assert bound.total_weight == expected
            assert bound.provenance is Provenance.TREE_BOUND
            assert len(bound.members) == cycle_rank(g)

    def test_cycles_are_built_on_first_read(self):
        # In member order for the tree bound, in (weight, mask) order for
        # the exact basis.
        g = weighted_fan()
        for basis in (tree_bound(g, spanning_tree(g, 0)), horton_basis(g)):
            assert len(basis.members) == cycle_rank(g)
            members = [(sum(1 << i for i in _expand(f, basis.parts, basis.table)),
                        Fraction(w, basis.scale)) for w, f in basis.members]
            if basis.provenance is Provenance.EXACT:
                members.sort(key=lambda m: (m[1], m[0]))
            assert [(sum(1 << i for i in c.edge_ids), c.weight) for c in basis.cycles] == members

    def test_acyclic_graph_empty(self):
        g = WeightedDigraph(3, [(0, 1), (1, 2)])
        bound = tree_bound(g, spanning_tree(g, 0))
        assert bound.cycles == ()
        assert bound.total_weight == 0

    def test_bound_dominates_exact_on_fan(self):
        g = weighted_fan()
        exact = horton_basis(g).total_weight
        for ids in (FAN_TREE_1, FAN_TREE_2, FAN_TREE_3):
            t = SpanningTree.from_edge_ids(g, 0, ids)
            assert tree_bound(g, t).total_weight >= exact

    def test_weights_are_exact_on_the_weighted_corpus(self):
        # The graphs of TestWeightedCorpus (rational and zero weights,
        # parallel arcs), each with a random spanning tree of its own.
        graphs, trees = random.Random(0x5CA1ED), random.Random(0x7EE)
        for _ in range(1000):
            g = random_weighted_multigraph(graphs)
            bound = tree_bound(g, random_spanning_tree(g, trees))
            for c in bound.cycles:
                assert type(c.weight) is Fraction
                assert c.weight == weight_of(g, c.edge_ids)
            assert type(bound.total_weight) is Fraction
            assert bound.total_weight == sum((c.weight for c in bound.cycles), Fraction(0))

    def test_foreign_tree_rejected(self):
        g1, g2 = weighted_fan(), weighted_fan()
        t = spanning_tree(g1, 0)
        with pytest.raises(ValueError):
            tree_bound(g2, t)


def test_edge_objects_with_float_weights_become_fractions():
    g = WeightedDigraph(2, [Edge(0, 0, 1, 0.5), Edge(1, 1, 0, 1)])
    assert all(type(e.weight) is Fraction for e in g.edges)
    for basis in (horton_basis(g), tree_bound(g, spanning_tree(g, 0))):
        assert basis.total_weight == Fraction(3, 2)
        assert type(basis.total_weight) is Fraction


@pytest.mark.parametrize("ids", [[], [0], [3, 5], [0, 1, 2, 63, 64, 200], [1000]])
def test_edge_ids_are_the_set_bits_in_order(ids):
    assert _edge_ids(sum(1 << i for i in ids)) == ids


class TestOracle:
    def test_fan(self):
        assert oracle_min_basis(weighted_fan()).total_weight == 36

    def test_triangle(self):
        assert oracle_min_basis(triangle()).total_weight == 3

    def test_k4_three_triangles(self):
        g = k4()
        assert len(enumerate_simple_cycles(g)) == 7  # four triangles, three squares
        basis = oracle_min_basis(g)
        assert cycle_rank(g) == 3
        assert basis.total_weight == 9
        assert all(c.weight == 3 for c in basis.cycles)

    def test_parallel_arcs_two_cycle(self):
        g = WeightedDigraph(2, [(0, 1), (1, 0)])
        cycles = enumerate_simple_cycles(g)
        assert len(cycles) == 1
        assert cycles[0].edge_ids == {0, 1}

    def test_guard_refuses_huge_input(self):
        g = k4()
        with pytest.raises(TooLarge):
            enumerate_simple_cycles(g, limit=3)


class TestWeightedCorpus:
    """Rational and zero weights and parallel arcs: the cases of the integer
    scaling and of 2-cycles that the unit-weight corpus never reaches."""

    def test_exact_matches_oracle_and_roots_meet_every_cycle(self):
        rng = random.Random(0x5CA1ED)
        for _ in range(1000):
            g = random_weighted_multigraph(rng)
            exact = horton_basis(g).total_weight
            assert isinstance(exact, Fraction)
            assert exact == oracle_min_basis(g).total_weight
            assert is_forest_without(g, _feedback_vertex_set(adjacency_of(g)))
        for g in fixture_graphs():
            assert is_forest_without(g, _feedback_vertex_set(adjacency_of(g)))

    def test_chosen_cycles_pass_the_cycle_check(self):
        # horton_basis takes each chosen cycle, forced or from the kernel,
        # straight from its mask and integer weight; Cycle.from_edges walks
        # it and sums its weights. The cycles are independent, nu of them.
        rng = random.Random(0x5CA1ED)
        graphs = [random_weighted_multigraph(rng) for _ in range(1000)]
        rng = random.Random(0xB16)
        graphs += [lower(parse(nested_mini_function(rng, d), "big.mini").functions[0]).graph
                   for d in (10, 25, 40, 60)]
        for g in graphs + reference_corpus():
            basis = horton_basis(g)
            for c in basis.cycles:
                assert type(c.weight) is Fraction
                assert c == Cycle.from_edges(g, c.edge_ids)
            masks = [sum(1 << i for i in c.edge_ids) for c in basis.cycles]
            assert _greedy_independent(masks, len(masks)) == masks
            assert len(basis.members) == cycle_rank(g)
            assert type(basis.total_weight) is Fraction
            assert basis.total_weight == sum((c.weight for c in basis.cycles), Fraction(0))


class TestCorpusProperties:
    """Seeded random corpus shared with the acceptance suite: the exact
    algorithm must agree with brute force, and every tree bound dominates."""

    def test_exact_matches_oracle_on_200_graphs(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(200):
            g = random_connected_graph(rng)
            assert horton_basis(g).total_weight == oracle_min_basis(g).total_weight

    def test_tree_bounds_dominate_and_floor_holds(self):
        rng = random.Random(0xBA5EBA11)
        for _ in range(60):
            g = random_connected_graph(rng)
            nu = cycle_rank(g)
            exact = horton_basis(g).total_weight
            assert exact >= nu
            if nu >= 1:
                assert exact >= 2 * nu  # simple unit-weight graphs: cycles weigh >= 3
            for _ in range(3):
                t = random_spanning_tree(g, rng)
                assert tree_bound(g, t).total_weight >= exact


def nested_mini_function(rng, decisions, jumps=False):
    """MiniLang text of one function: a random nest of if, if/else, while
    and for, ``decisions`` of them in all. With ``jumps``, every while body
    ends in an if with a break and an if with a continue, two decisions
    more each."""
    lines = []
    exits = ("  if (x == y) { break; }", "  y = 3;", "  if (y < x) { continue; }", "  y = 4;")
    heads = {"if": ("if (a < b) {", ()),
             "ifelse": ("if (x != 0) {", ("} else {", "  y = 2;")),
             "while": ("while (i < n) {", exits if jumps else ()),
             "for": ("for (j = 0; j < n; j = j + 1) {", ())}

    def block(budget, pad):
        while budget > 0:
            head, tail = heads[rng.choice(sorted(heads))]
            inner = rng.randint(0, min(budget - 1, 6))
            lines.extend([pad + "x = f(x);", pad + head])
            block(inner, pad + "  ")
            lines.append(pad + "  i = i + 1;")
            lines.extend(pad + t for t in tail)
            lines.append(pad + "}")
            budget -= inner + 1

    block(decisions, "  ")
    return "fn big(n) {\n" + "\n".join(lines) + "\n  return x;\n}\n"


def networkx_min_basis(g):
    """(cycle count, total weight) of ``networkx.minimum_cycle_basis``.

    Each arc becomes a path through a vertex of its own, so parallel arcs
    survive in networkx's simple graph, and the induced subgraph of a
    returned cycle's vertices is exactly that cycle. Integer-scaled weights
    keep networkx off ``Fraction`` arithmetic, which is many times slower.
    """
    scale = scale_of(g)
    h = nx.Graph()
    for e in g.edges:
        h.add_edge(e.source, ("arc", e.id), weight=int(e.weight * scale))
        h.add_edge(("arc", e.id), e.target, weight=0)
    cycles = nx.minimum_cycle_basis(h, weight="weight")
    total = sum(w for c in cycles for _, _, w in h.subgraph(c).edges(data="weight"))
    return len(cycles), Fraction(total, scale)


@pytest.mark.slow
@pytest.mark.parametrize("graph", [
    lambda: parse_dot(weighted_dot_cfg(random.Random(48))).graph,
    lambda: lower(parse(nested_mini_function(random.Random(70), 25), "big.mini")
                  .functions[0]).graph,
    lambda: lower(parse(nested_mini_function(random.Random(70), 15, jumps=True), "big.mini")
                  .functions[0]).graph,
], ids=["weighted-dot", "mini-function", "mini-function-with-jumps"])
def test_networkx_agrees_above_the_oracle_size(graph):
    g = graph()
    with pytest.raises(TooLarge):
        oracle_min_basis(g)
    basis = horton_basis(g)
    assert networkx_min_basis(g) == (len(basis.members), basis.total_weight)
