import re
from fractions import Fraction

import pytest

from crosscc import graph
from crosscc.basis import Provenance
from crosscc.cfg import lower
from crosscc.cli import main
from crosscc.dot import parse_dot
from crosscc.errors import ZeroNu
from crosscc.graph import SpanningTree, WeightedDigraph
from crosscc.metric import CrossComplexity, Region, classify_region, cross_complexity
from crosscc.minilang import parse

from conftest import FAN_TREE_1, FAN_TREE_2, FIXTURES, fixture_text, weighted_fan


def bubble_sort_cfg():
    """Nested-loop sorting CFG: s,a,b,c,d,e,r with the early-exit arcs."""
    arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (5, 1), (4, 2), (3, 2), (2, 5)]
    edges = [(u, v, 1) for u, v in arcs] + [(6, 0, 0)]
    g = WeightedDigraph(7, edges)
    return g


BUBBLE_TREE = (0, 1, 2, 3, 4, 8)


def cc_of(source: str, **kw) -> CrossComplexity:
    return cross_complexity(lower(parse(source).functions[0]), **kw)


class TestCrossComplexity:
    def test_ifelse_exact(self):
        cc = cc_of("fn f() { if (c) { x; } else { y; } }")
        assert (cc.nu, cc.omega_min) == (2, 4)
        assert cc.provenance is Provenance.EXACT

    def test_straight_line(self):
        cc = cc_of("fn f() { x; }")
        assert (cc.nu, cc.omega_min) == (1, 1)
        assert cc.region is Region.TRIVIAL_BAND

    def test_bubble_sort_tree_bound_with_drawn_tree(self):
        # The published pair for this graph is (4, 12); recomputing the
        # fundamental system of the drawn tree confirms 12 exactly.
        g = bubble_sort_cfg()
        tree = SpanningTree.from_edge_ids(g, 0, BUBBLE_TREE)
        cc = cross_complexity(g, mode=Provenance.TREE_BOUND, tree=tree)
        assert (cc.nu, cc.omega_min) == (4, 12)
        assert cc.provenance is Provenance.TREE_BOUND

    def test_bubble_sort_exact_is_lower(self):
        cc = cross_complexity(bubble_sort_cfg(), mode=Provenance.EXACT)
        assert (cc.nu, cc.omega_min) == (4, 11)

    def test_exact_never_exceeds_tree_bound(self):
        for src in (fixture_text("atomic_if.mini"),
                    fixture_text("atomic_while.mini"),
                    fixture_text("listing1.mini")):
            for fn in parse(src).functions:
                cfg = lower(fn)
                exact = cross_complexity(cfg, mode=Provenance.EXACT)
                bound = cross_complexity(cfg, mode=Provenance.TREE_BOUND)
                assert exact.omega_min <= bound.omega_min
                assert exact.nu == bound.nu

    def test_plain_graph_subject(self):
        g = weighted_fan()
        cc = cross_complexity(g)
        assert (cc.nu, cc.omega_min) == (3, 36)
        t2 = SpanningTree.from_edge_ids(g, 0, FAN_TREE_2)
        cc = cross_complexity(g, mode=Provenance.TREE_BOUND, tree=t2)
        assert (cc.nu, cc.omega_min) == (3, 45)
        t1 = SpanningTree.from_edge_ids(g, 0, FAN_TREE_1)
        cc = cross_complexity(g, mode=Provenance.TREE_BOUND, tree=t1)
        assert (cc.nu, cc.omega_min) == (3, 36)

    def test_acyclic_plain_graph_rejected(self):
        with pytest.raises(ZeroNu):
            cross_complexity(WeightedDigraph(3, [(0, 1), (1, 2)]))

    def test_oracle_is_not_a_mode(self):
        with pytest.raises(ValueError):
            cross_complexity(weighted_fan(), mode=Provenance.ORACLE)

    def test_region_never_infeasible_for_real_graphs(self):
        for src in ("fn f() { x; }", "fn f() { while (c) { x; } }",
                    fixture_text("listing1.mini")):
            for fn in parse(src).functions:
                cc = cross_complexity(lower(fn))
                assert cc.region is not Region.INFEASIBLE


class TestOneSearchPerUnit:
    """nu is the size of the basis, so a unit runs no breadth-first search
    for the cycle rank: the tree bound runs the one its tree needs, and the
    exact basis none, as its reduction gives nu and connectivity."""

    @pytest.fixture
    def roots(self, monkeypatch):
        """The root of each ``graph._bfs_parents`` call from here on."""
        calls = []
        bfs = graph._bfs_parents

        def counted(g, root, allowed=None):
            calls.append(root)
            return bfs(g, root, allowed)

        monkeypatch.setattr(graph, "_bfs_parents", counted)
        return calls

    @pytest.mark.parametrize("mode", [Provenance.EXACT, Provenance.TREE_BOUND])
    def test_lowered_function(self, roots, mode):
        searches = {Provenance.EXACT: 0, Provenance.TREE_BOUND: 1}[mode]
        for fn in parse(fixture_text("listing1.mini")).functions:
            cfg = lower(fn)
            roots.clear()
            cross_complexity(cfg, mode)
            assert len(roots) == searches

    def test_dot_cfg_whose_start_is_not_vertex_0(self, roots):
        cfg = parse_dot('digraph g { start = "s"; exit = "r"; a -> r; s -> a; s -> r; }').to_cfg()
        assert cfg.start == 2
        roots.clear()
        cross_complexity(cfg, Provenance.TREE_BOUND)
        assert roots == [2]

    def test_marked_tree(self, roots):
        doc = parse_dot(fixture_text("weighted_fan_t1.dot"))
        roots.clear()
        cc = cross_complexity(doc.graph, Provenance.TREE_BOUND, tree=doc.marked_tree())
        assert len(roots) == 1
        assert (cc.nu, cc.omega_min) == (3, 36)

    def test_dump_cfg_runs_none(self, roots, capsys):
        # Lowering has proved each graph connected, so mcc is #E - #V + 1.
        assert main(["dump-cfg", str(FIXTURES / "listing1.mini")]) == 0
        assert roots == []
        mccs = re.findall(r"  mcc=(\d+)$", capsys.readouterr().out, re.M)
        assert [int(m) for m in mccs] == [
            cross_complexity(lower(fn)).nu
            for fn in parse(fixture_text("listing1.mini")).functions]


class TestIncidenceListsPerUnit:
    """A graph builds its incidence lists on their first read, which the
    exact basis never makes: a unit builds none in exact mode, and the one
    its tree's search reads in tree-bound mode."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The vertex count of each ``graph._build_incidence`` call from here on."""
        calls = []
        build = graph._build_incidence

        def counted(vertex_count, edges):
            calls.append(vertex_count)
            return build(vertex_count, edges)

        monkeypatch.setattr(graph, "_build_incidence", counted)
        return calls

    def units(self):
        """Every control-flow graph of the fixtures, lowered or read."""
        cfgs = [lower(fn) for path in sorted(FIXTURES.glob("*.mini"))
                for fn in parse(path.read_text(encoding="utf-8")).functions]
        docs = [parse_dot(path.read_text(encoding="utf-8"))
                for path in sorted(FIXTURES.glob("*.dot"))]
        return cfgs + [doc.to_cfg() for doc in docs if doc.is_cfg()]

    @pytest.mark.parametrize("mode", [Provenance.EXACT, Provenance.TREE_BOUND])
    def test_fixture_units(self, builds, mode):
        units = self.units()
        assert len(units) >= 10 and builds == []
        for cfg in units:
            cross_complexity(cfg, mode)
            cross_complexity(cfg, mode)  # the second run finds the lists built
        assert len(builds) == {Provenance.EXACT: 0, Provenance.TREE_BOUND: len(units)}[mode]

    @pytest.mark.parametrize("mode", ["exact", "treebound"])
    def test_analyze(self, builds, mode, capsys):
        paths = [str(p) for p in sorted(FIXTURES.glob("*.mini"))]
        assert main(["analyze", *paths, "--mode", mode, "--format", "csv"]) == 0
        units = len(capsys.readouterr().out.strip().splitlines()) - 1
        assert len(builds) == {"exact": 0, "treebound": units}[mode]

    def test_incident_lists(self, builds):
        # Immutable, in ascending edge id, and built once per graph.
        units = self.units()
        for cfg in units:
            g = cfg.graph
            for v in range(g.vertex_count):
                assert g.incident(v) == tuple(e for e in g.edges if v in (e.source, e.target))
                assert g.incident(v) is g.incident(v)
        assert builds == [cfg.graph.vertex_count for cfg in units]


class TestClassifyRegion:
    def test_omega_below_nu_is_infeasible(self):
        assert classify_region(3, 2) is Region.INFEASIBLE

    def test_paper_style_program_point(self):
        assert classify_region(4, 12) is Region.NON_TRIVIAL

    def test_diagonal_point_sits_in_band(self):
        assert classify_region(1, 1) is Region.TRIVIAL_BAND

    def test_band_boundary_is_inclusive_above(self):
        assert classify_region(3, 6) is Region.NON_TRIVIAL
        assert classify_region(3, Fraction(59, 10)) is Region.TRIVIAL_BAND

    def test_slope_is_configurable(self):
        assert classify_region(3, 7, slope=3) is Region.TRIVIAL_BAND
        assert classify_region(3, 9, slope=3) is Region.NON_TRIVIAL


class TestIndicator:
    def test_ratio_values(self):
        # omega/nu for the pairs (4, 12), (4, 15) and (1, 1).
        tree = SpanningTree.from_edge_ids(bubble_sort_cfg(), 0, BUBBLE_TREE)
        bubble = cross_complexity(tree.host, mode=Provenance.TREE_BOUND, tree=tree)
        assert bubble.indicator == 3
        assert cc_of(fixture_text("listing1.mini")).indicator == Fraction(15, 4)
        assert cc_of("fn f() { x; }").indicator == 1

    def test_zero_nu_rejected(self):
        with pytest.raises(ZeroNu):
            cross_complexity(WeightedDigraph(3, [(0, 1), (1, 2)]),
                             mode=Provenance.TREE_BOUND)

    def test_published_ordering(self):
        pairs = [(4, 12), (6, 24), (10, 47)]
        ratios = [Fraction(om, nu) for nu, om in pairs]
        assert ratios == sorted(ratios)
        assert [float(r) for r in ratios] == [3.0, 4.0, 4.7]

    def test_recomputed_ordering_agrees(self):
        # The recomputed tree bounds (12, 24, 51) keep the same ranking as
        # the published pairs.
        recomputed = [Fraction(12, 4), Fraction(24, 6), Fraction(51, 10)]
        assert recomputed == sorted(recomputed)

    def test_scale_free_through_dot_ingestion(self):
        # Scaling every weight by k scales omega by exactly k, nu unmoved.
        from crosscc.dot import dump_dot, parse_dot
        g1 = parse_dot(fixture_text("weighted_fan.dot")).graph
        scaled_doc = dump_dot(WeightedDigraph(
            5, [(e.source, e.target, e.weight * 3) for e in g1.edges]))
        scaled = parse_dot(scaled_doc).graph
        a = cross_complexity(g1)
        b = cross_complexity(scaled)
        assert b.nu == a.nu
        assert b.omega_min == 3 * a.omega_min
        assert b.indicator == 3 * a.indicator
