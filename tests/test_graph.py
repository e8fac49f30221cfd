import random
from fractions import Fraction

import pytest

import basis_reference
from crosscc.basis import _greedy_independent, tree_bound
from crosscc.cfg import lower
from crosscc.dot import parse_dot
from crosscc.errors import (
    DisconnectedGraph,
    EmptyGraph,
    NotACycle,
    NotASpanningTree,
    UnknownEdge,
)
from crosscc.graph import (
    ONE,
    Cycle,
    Edge,
    SpanningTree,
    WeightedDigraph,
    cycle_rank,
    spanning_tree,
)

from crosscc.minilang import parse

from conftest import (
    FIXTURES,
    negative_weight_pentagon,
    random_connected_graph,
    random_spanning_tree,
    random_weighted_multigraph,
    weighted_fan,
)


def diamond():
    # 0-1, 1-2, 2-3, 3-0 outer square plus the 0-2 chord: two triangles.
    return WeightedDigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


def total_weight(g: WeightedDigraph) -> Fraction:
    return g.weight_of(range(g.edge_count))


def mask(edge_ids) -> int:
    return sum(1 << i for i in edge_ids)


def rank(masks) -> int:
    masks = list(masks)
    return len(_greedy_independent(masks, len(masks)))


class TestEdge:
    def test_equal_only_to_an_edge(self):
        fields = (0, 0, 1, Fraction(1, 2))
        e = Edge(*fields)
        assert e == Edge(*fields) and not e != Edge(*fields)
        assert e == Edge(id=0, source=0, target=1, weight=Fraction(1, 2))
        assert hash(e) == hash(Edge(*fields)) == hash(fields)
        assert e != fields and fields != e
        assert not e == fields and not fields == e
        assert e != Edge(1, 0, 1, Fraction(1, 2))

    def test_fields_cannot_be_assigned(self):
        e = Edge(0, 0, 1, ONE)
        for name in ("id", "source", "target", "weight"):
            with pytest.raises(AttributeError):
                setattr(e, name, 2)
        assert e == Edge(0, 0, 1, ONE)

    def test_graph_accepts_edges_and_tuples(self):
        from_edges = WeightedDigraph(3, [
            Edge(0, 0, 1, Fraction(1, 2)), Edge(1, 1, 2, 1), Edge(2, 2, 0, 0.75)])
        from_tuples = WeightedDigraph(3, [(0, 1, "1/2"), (1, 2), (2, 0, "3/4")])
        assert from_edges.edges == from_tuples.edges
        for e in from_edges.edges + from_tuples.edges:
            assert type(e) is Edge and type(e.weight) is Fraction
        with pytest.raises(ValueError):
            WeightedDigraph(2, [Edge(1, 0, 1, ONE)])

    @pytest.mark.parametrize("vertex_count, edges, message", [
        (-1, [], "vertex_count must be >= 0"),
        (2, [(0, 1), (1, 1)], "loop edge 1 at vertex 1 not allowed"),
        (2, [(0, 1), (1, 2)], "edge 1 endpoint out of range"),
    ])
    def test_graph_rejects_bad_counts_and_endpoints(self, vertex_count, edges, message):
        with pytest.raises(ValueError, match=message):
            WeightedDigraph(vertex_count, edges)


class TestGraphWeight:
    def test_mixed_sign_weights_sum_exactly(self):
        g = negative_weight_pentagon()
        assert total_weight(g) == Fraction(-1, 2)

    def test_empty_graph(self):
        assert total_weight(WeightedDigraph(3, [])) == 0

    def test_unit_weights_count_edges(self):
        g = WeightedDigraph(10, [(i, i + 1, 1) for i in range(9)])
        assert total_weight(g) == 9


class TestSpanningTree:
    def test_explicit_tree_injection_weight(self):
        # Tree {a-b, a-c, c-d, c-e} of the mixed-sign graph weighs 10.
        g = negative_weight_pentagon()
        t = SpanningTree.from_edge_ids(g, 0, [0, 2, 4, 5])
        assert g.weight_of(t.tree_edges) == 10

    def test_single_vertex_graph_empty_tree(self):
        t = spanning_tree(WeightedDigraph(1, []), 0)
        assert t.tree_edges == frozenset()

    def test_tree_of_a_path_is_the_path(self):
        g = WeightedDigraph(3, [(0, 1), (1, 2)])
        t = spanning_tree(g, 0)
        assert t.tree_edges == {0, 1}

    def test_bfs_is_deterministic_and_prefers_low_edge_ids(self):
        g = weighted_fan()
        t1 = spanning_tree(g, 0)
        t2 = spanning_tree(g, 0)
        assert t1.tree_edges == t2.tree_edges == {0, 1, 2, 3}

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.mini"))
                             + sorted(FIXTURES.glob("*.dot")), ids=lambda p: p.name)
    def test_graph_and_its_copy_get_the_same_bfs_tree(self, path):
        # The BFS tree from vertex 0 is a pure function of the graph: a
        # graph and an edge-for-edge copy of it get the same tree.
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".dot":
            graphs = [parse_dot(text).graph]
        else:
            graphs = [lower(fn).graph for fn in parse(text).functions]
        for g in graphs:
            tree = spanning_tree(g, 0)
            copy = spanning_tree(WeightedDigraph(g.vertex_count, g.edges), 0)
            assert (tree.tree_edges, tree.parent) == (copy.tree_edges, copy.parent)

    def test_disconnected_raises(self):
        g = WeightedDigraph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraph):
            spanning_tree(g, 0)

    @pytest.mark.parametrize("build", [
        lambda g, root: spanning_tree(g, root),
        lambda g, root: SpanningTree.from_edge_ids(g, root, range(g.edge_count)),
    ], ids=["bfs", "explicit"])
    def test_empty_graph_and_root_out_of_range_rejected(self, build):
        with pytest.raises(EmptyGraph):
            build(WeightedDigraph(0, []), 0)
        for root in (-1, 2):
            with pytest.raises(ValueError, match=f"root {root} out of range"):
                build(WeightedDigraph(2, [(0, 1)]), root)

    def test_bad_explicit_tree_rejected(self):
        g = weighted_fan()
        with pytest.raises(NotASpanningTree):
            SpanningTree.from_edge_ids(g, 0, [0, 1, 4])      # too few
        with pytest.raises(NotASpanningTree):
            SpanningTree.from_edge_ids(g, 0, [0, 1, 4, 5])   # contains cycle a,b,c

    def test_tree_plus_complement_is_graph_weight(self):
        g = weighted_fan()
        t = spanning_tree(g, 0)
        complement = g.weight_of(e.id for e in g.edges if e.id not in t.tree_edges)
        assert g.weight_of(t.tree_edges) + complement == total_weight(g)


def fundamental_cycles(t: SpanningTree):
    """Each chord of ``t`` with its fundamental cycle, as the tree bound
    builds them."""
    return dict(zip([e.id for e in t.host.edges if e.id not in t.tree_edges],
                    tree_bound(t.host, t).cycles))


class TestFundamentalCycle:
    def test_chord_closes_triangle(self):
        # Directed pentagon a->b, b->c, a->c, a->d, c->d, c->e, d->e with
        # tree {a->b, a->c, c->d, c->e}; chord b->c closes triangle a,b,c.
        g = WeightedDigraph(
            5, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (2, 4), (3, 4)])
        t = SpanningTree.from_edge_ids(g, 0, [0, 2, 4, 5])
        cyc = fundamental_cycles(t)[1]
        assert cyc.edge_ids == {0, 1, 2}

    def test_second_chord(self):
        g = WeightedDigraph(
            5, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (2, 4), (3, 4)])
        t = SpanningTree.from_edge_ids(g, 0, [0, 2, 4, 5])
        cyc = fundamental_cycles(t)[3]
        assert cyc.edge_ids == {2, 3, 4}  # a-c, a-d, c-d

    def test_parallel_arc_gives_two_edge_cycle(self):
        g = WeightedDigraph(2, [(0, 1), (1, 0)])
        t = SpanningTree.from_edge_ids(g, 0, [0])
        cyc = fundamental_cycles(t)[1]
        assert cyc.edge_ids == {0, 1}
        assert cyc.weight == 2

    def test_contains_only_chord_plus_tree_edges(self):
        g = weighted_fan()
        t = spanning_tree(g, 0)
        for eid, cyc in fundamental_cycles(t).items():
            assert eid in cyc.edge_ids
            assert cyc.edge_ids - {eid} <= t.tree_edges

    def test_fundamental_system_has_full_rank(self):
        g = weighted_fan()
        t = spanning_tree(g, 0)
        masks = [mask(c.edge_ids) for c in tree_bound(g, t).cycles]
        assert rank(masks) == cycle_rank(g) == len(masks)

    def test_ring_sum_of_fundamentals_stays_in_span(self):
        g = weighted_fan()
        t = spanning_tree(g, 0)
        cycles = tree_bound(g, t).cycles
        masks = [mask(c.edge_ids) for c in cycles]
        combined = mask(cycles[0].edge_ids ^ cycles[1].edge_ids)
        assert rank(masks + [combined]) == rank(masks)


def distinct_weights(g: WeightedDigraph) -> WeightedDigraph:
    """``g`` with all weights distinct: edge i weighs (i + 1) / (i + 2)."""
    return WeightedDigraph(g.vertex_count, [
        (e.source, e.target, Fraction(e.id + 1, e.id + 2)) for e in g.edges])


def trees_to_check():
    """Random graphs with random spanning trees, rational and zero weights
    and parallel arcs among them; every fixture graph with its BFS tree and,
    for a DOT fixture, its marked tree; and the same fixture graphs and
    trees again with all weights distinct."""
    rng = random.Random(6)
    for _ in range(150):
        g = random_connected_graph(rng)
        yield g, random_spanning_tree(g, rng)
        g = random_weighted_multigraph(rng)
        yield g, random_spanning_tree(g, rng)
    graphs = []
    for path in sorted(FIXTURES.glob("*.mini")):
        for fn in parse(path.read_text(encoding="utf-8"), path.name).functions:
            g = lower(fn).graph
            graphs.append(g)
            yield g, spanning_tree(g, 0)
    for path in sorted(FIXTURES.glob("*.dot")):
        doc = parse_dot(path.read_text(encoding="utf-8"))
        graphs.append(doc.graph)
        yield doc.graph, spanning_tree(doc.graph, 0)
        if doc.marked_tree() is not None:
            yield doc.graph, doc.marked_tree()
            g = distinct_weights(doc.graph)
            yield g, SpanningTree.from_edge_ids(g, 0, doc.marked_tree().tree_edges)
    for g in map(distinct_weights, graphs):
        yield g, spanning_tree(g, 0)


def test_fundamental_cycles_pass_the_cycle_check():
    # The root-path masks build each cycle without re-checking it;
    # Cycle.from_edges raises NotACycle if a mask is not one simple cycle.
    for g, t in trees_to_check():
        for eid, c in fundamental_cycles(t).items():
            assert c == Cycle.from_edges(g, c.edge_ids)
            assert c.edge_ids - {eid} <= t.tree_edges


def test_fundamental_cycles_match_the_climb():
    # Against the two-sided climb of the parent map that the root-path
    # masks replaced (basis_reference): the same edge-id set and Fraction
    # weight for every chord, in chord order, and the same total.
    for g, t in trees_to_check():
        cycles, total = basis_reference.tree_bound(g, t)
        bound = tree_bound(g, t)
        assert bound.cycles == cycles
        assert all(type(c.weight) is Fraction for c in bound.cycles)
        assert bound.total_weight == total


class TestRingSum:
    def test_triangles_sharing_an_edge_make_the_square(self):
        g = diamond()
        t1 = Cycle.from_edges(g, [0, 1, 4])   # 0-1, 1-2, 0-2
        t2 = Cycle.from_edges(g, [2, 3, 4])   # 2-3, 3-0, 0-2
        assert t1.edge_ids ^ t2.edge_ids == {0, 1, 2, 3}
        Cycle.from_edges(g, t1.edge_ids ^ t2.edge_ids)  # still a cycle


class TestIncidenceVectors:
    def test_unknown_edge(self):
        # Cycle edge ids, and so the bitmasks built from them, are range-checked.
        g = WeightedDigraph(2, [(0, 1)])
        with pytest.raises(UnknownEdge):
            Cycle.from_edges(g, [0, 7])


class TestGf2Rank:
    """Rank by ``_greedy_independent``; a string column lists edges 0, 1, ... left to right."""

    def test_worked_seven_by_three_matrix(self):
        # Columns as printed: rows are edges e1..e7, one column per cycle.
        columns = ["1110000", "0001110", "0010101"]
        assert rank(int(c[::-1], 2) for c in columns) == 3

    def test_duplicate_column(self):
        v = int("1010"[::-1], 2)
        assert rank([v, v]) == 1

    def test_unit_vectors(self):
        assert rank(1 << i for i in range(4)) == 4

    def test_dependent_triple(self):
        a = int("1100"[::-1], 2)
        b = int("0110"[::-1], 2)
        assert rank([a, b, a ^ b]) == 2

    def test_empty(self):
        assert rank([]) == 0


class TestCycleRank:
    def test_pentagon(self):
        assert cycle_rank(negative_weight_pentagon()) == 3

    def test_tree_is_zero(self):
        g = WeightedDigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert cycle_rank(g) == 0

    def test_single_cycle(self):
        n = 6
        g = WeightedDigraph(n, [(i, (i + 1) % n) for i in range(n)])
        assert cycle_rank(g) == 1

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            cycle_rank(WeightedDigraph(4, [(0, 1), (2, 3)]))


class TestCycleValidation:
    def test_rejects_empty_set(self):
        with pytest.raises(NotACycle, match="empty edge set"):
            Cycle.from_edges(diamond(), [])

    def test_rejects_path(self):
        g = WeightedDigraph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotACycle):
            Cycle.from_edges(g, [0, 1])

    def test_rejects_disjoint_union(self):
        g = WeightedDigraph(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(NotACycle):
            Cycle.from_edges(g, [0, 1, 2, 3, 4, 5])

    def test_weight_is_cached_sum(self):
        g = weighted_fan()
        cyc = Cycle.from_edges(g, [0, 1, 4])
        assert cyc.weight == g.weight_of([0, 1, 4]) == 6
