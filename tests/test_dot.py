from fractions import Fraction

import pytest

from crosscc.basis import horton_basis, tree_bound
from crosscc.cfg import lower
from crosscc.dot import dump_cfg_dot, dump_dot, parse_dot
from crosscc.errors import (
    DotSyntaxError,
    MissingStartExit,
    NegativeWeight,
    UnreachableCode,
)
from crosscc.graph import WeightedDigraph, cycle_rank, spanning_tree
from crosscc.minilang import parse

from conftest import fixture_text


class TestParse:
    def test_weighted_fan_fixture(self):
        doc = parse_dot(fixture_text("weighted_fan.dot"))
        assert doc.graph.vertex_count == 5
        assert doc.graph.edge_count == 7
        assert doc.graph.weight_of(range(7)) == 28
        assert not doc.is_cfg()
        assert doc.virtual_arc is None

    def test_ids_follow_declaration_order(self):
        doc = parse_dot('digraph g { b -> c; a -> b [weight=1/2]; }')
        assert doc.node_names == ("b", "c", "a")
        assert doc.graph.edge(1).weight == Fraction(1, 2)

    def test_arrows_without_spaces(self):
        doc = parse_dot("digraph g { a->b; b->a [weight=2]; }")
        assert doc.graph.edge_count == 2
        assert doc.node_names == ("a", "b")
        assert doc.graph.edge(1).weight == 2

    def test_negative_number_is_still_one_word(self):
        # The whole '-3/2' reaches the weight check, which rejects it.
        with pytest.raises(DotSyntaxError, match="negative weight '-3/2'"):
            parse_dot("digraph g { a -> b [weight=-3/2]; b -> a; }")

    def test_empty_body(self):
        doc = parse_dot("digraph g { }")
        assert doc.graph.vertex_count == 0
        assert doc.graph.edge_count == 0

    def test_duplicate_arc_kept_with_distinct_ids(self):
        doc = parse_dot("digraph g { a -> b; a -> b; b -> a; }")
        assert doc.graph.edge_count == 3
        assert doc.duplicate_arcs == (("a", "b"),)

    def test_virtual_arc_appended_last_with_zero_weight(self):
        doc = parse_dot(fixture_text("ifelse_cfg.dot"))
        assert doc.is_cfg()
        assert doc.virtual_arc == doc.graph.edge_count - 1
        varc = doc.graph.edge(doc.virtual_arc)
        assert (varc.source, varc.target) == (doc.exit, doc.start)
        assert varc.weight == 0

    def test_addvirtual_false_leaves_graph_open(self):
        doc = parse_dot('digraph g { start="a"; exit="b"; addvirtual=false; a -> b; }')
        assert doc.virtual_arc is None
        assert not doc.is_cfg()  # analyzable only as a plain graph
        with pytest.raises(MissingStartExit):
            doc.to_cfg()

    def test_missing_start_exit(self):
        doc = parse_dot("digraph g { a -> b; }")
        with pytest.raises(MissingStartExit):
            doc.to_cfg()

    def test_cfg_needs_every_node_on_a_start_exit_path(self):
        for body in ("s -> r; x -> s; x -> r;",    # x unreachable from start
                     "s -> r; s -> y;"):           # y cannot reach exit
            doc = parse_dot(f"digraph g {{ start=s; exit=r; {body} }}")
            with pytest.raises(UnreachableCode):
                doc.to_cfg()

    def test_unknown_start_vertex(self):
        with pytest.raises(DotSyntaxError):
            parse_dot('digraph g { start="zz"; exit="b"; a -> b; }')

    def test_syntax_errors(self):
        for bad in ("graph g { }", "digraph g { a -> ; }", "digraph g { a -> b",
                    "digraph g { a -> b [weight]; }"):
            with pytest.raises(DotSyntaxError):
                parse_dot(bad)

    def test_self_loop_rejected(self):
        with pytest.raises(DotSyntaxError):
            parse_dot("digraph g { a -> a; }")

    def test_unparseable_weight_is_a_syntax_error(self):
        for bad_weight in ("abc", "1/0", ""):
            with pytest.raises(DotSyntaxError):
                parse_dot(f'digraph g {{ a -> b [weight="{bad_weight}"]; }}')

    def test_start_equal_exit_rejected(self):
        with pytest.raises(DotSyntaxError):
            parse_dot('digraph g { start="a"; exit="a"; a -> b; b -> a; }')

    def test_negative_weight_is_a_parse_error_and_both_modes_reject(self):
        with pytest.raises(DotSyntaxError, match="<input>:1: negative weight '-1'"):
            parse_dot("digraph g { a -> b [weight=-1]; b -> a; }")
        # Library callers who build the graph themselves meet the same check
        # in either mode.
        g = WeightedDigraph(2, [(0, 1, -1), (1, 0)])
        with pytest.raises(NegativeWeight):
            horton_basis(g)
        with pytest.raises(NegativeWeight):
            tree_bound(g, spanning_tree(g, 0))


class TestTreeMarks:
    def test_marked_tree_drives_bound(self):
        doc = parse_dot(fixture_text("weighted_fan_t2.dot"))
        t = doc.marked_tree()
        assert t is not None
        assert tree_bound(doc.graph, t).total_weight == 45

    def test_unmarked_fixture_has_no_tree(self):
        assert parse_dot(fixture_text("weighted_fan.dot")).marked_tree() is None

    def test_bubble_tree_matches_drawing(self):
        doc = parse_dot(fixture_text("bubble_sort.dot"))
        t = doc.marked_tree()
        assert tree_bound(doc.graph, t).total_weight == 12
        assert cycle_rank(doc.graph) == 4


class TestRoundTrip:
    def test_plain_graph_round_trips(self):
        doc = parse_dot(fixture_text("weighted_fan.dot"))
        text = dump_dot(doc.graph, name=doc.name, node_names=doc.node_names)
        again = parse_dot(text)
        assert again.node_names == doc.node_names
        assert [(e.source, e.target, e.weight) for e in again.graph.edges] == \
               [(e.source, e.target, e.weight) for e in doc.graph.edges]

    def test_isolated_vertex_survives(self):
        doc = parse_dot("digraph g { a -> b; lonely; }")
        again = parse_dot(dump_dot(doc.graph, node_names=doc.node_names))
        assert again.graph.vertex_count == 3

    def test_cfg_dump_reparses_to_same_ids(self):
        cfg = lower(parse(fixture_text("listing1.mini")).functions[0])
        text = dump_cfg_dot(cfg)
        doc = parse_dot(text)
        assert doc.is_cfg()
        assert doc.virtual_arc == cfg.virtual_arc
        assert [(e.source, e.target, e.weight) for e in doc.graph.edges] == \
               [(e.source, e.target, e.weight) for e in cfg.graph.edges]
        assert horton_basis(doc.graph).total_weight == \
               horton_basis(cfg.graph).total_weight

    def test_fractional_weights_round_trip(self):
        doc = parse_dot('digraph g { a -> b [weight=1/2]; b -> a [weight=0.25]; }')
        again = parse_dot(dump_dot(doc.graph, node_names=doc.node_names))
        assert again.graph.edge(0).weight == Fraction(1, 2)
        assert again.graph.edge(1).weight == Fraction(1, 4)
