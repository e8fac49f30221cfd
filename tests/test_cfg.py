import pytest

import cfg_reference

from crosscc.basis import horton_basis
from crosscc.cfg import ControlFlowGraph, check_reachability, lower
from crosscc.errors import UnreachableCode, UnresolvedLabel
from crosscc.graph import WeightedDigraph, cycle_rank
from crosscc.minilang import Block, Break, Continue, Function, Switch, SwitchCase, parse

from conftest import fixture_text


def lower_source(source: str):
    return lower(parse(source).functions[0])


def lower_all(source: str):
    return [lower(fn) for fn in parse(source).functions]


def arc_pairs(cfg):
    return [(e.source, e.target) for e in cfg.graph.edges]


class TestAtomicShapes:
    """The four one-construct functions land on the minimal shapes:
    (2V,1E), (3V,3E), (4V,4E), (3V,3E) before the closing arc."""

    def test_sequence(self):
        cfg = lower_source(fixture_text("atomic_seq.mini"))
        assert cfg.graph.vertex_count == 2
        assert cfg.graph.edge_count - 1 == 1
        assert arc_pairs(cfg) == [(0, 1), (1, 0)]
        assert cfg.graph.edge(cfg.virtual_arc).weight == 0

    def test_if(self):
        cfg = lower_source(fixture_text("atomic_if.mini"))
        assert cfg.graph.vertex_count == 3
        assert cfg.graph.edge_count - 1 == 3

    def test_ifelse(self):
        cfg = lower_source(fixture_text("atomic_ifelse.mini"))
        assert cfg.graph.vertex_count == 4
        assert cfg.graph.edge_count - 1 == 4

    def test_while(self):
        cfg = lower_source(fixture_text("atomic_while.mini"))
        assert cfg.graph.vertex_count == 3
        assert cfg.graph.edge_count - 1 == 3
        # condition -> body, body -> condition, body -> exit, exit -> start
        assert arc_pairs(cfg) == [(0, 1), (1, 0), (1, 2), (2, 0)]


class TestStraightLineCollapse:
    def test_run_of_statements_is_one_node(self):
        cfg = lower_source("fn f() { a; b; c; d; }")
        assert cfg.graph.vertex_count == 2
        assert cfg.node_labels[0] == "a; b; c; d"

    def test_collapse_into_branch_node(self):
        cfg = lower_source("fn f() { setup; if (c) { x; } }")
        assert cfg.graph.vertex_count == 3
        assert cfg.node_labels[0] == "setup; if (c)"

    def test_loop_condition_never_merges(self):
        cfg = lower_source("fn f() { setup; while (c) { x; } }")
        assert cfg.graph.vertex_count == 4  # setup | while | body | exit


class TestMcc:
    def test_straight_line_is_one(self):
        assert cycle_rank(lower_source("fn f() { x; }").graph) == 1

    def test_listing_functions_both_four(self):
        cfgs = lower_all(fixture_text("listing1.mini"))
        assert [cycle_rank(c.graph) for c in cfgs] == [4, 4]

    def test_equals_cycle_rank_and_edge_formula(self):
        for src in ("fn f() { x; }",
                    "fn f() { if (a) { if (b) { x; } } }",
                    "fn f() { while (a) { if (b) { break; } } }",
                    "fn f() { for (i; c; s) { x; } y; }"):
            cfg = lower_source(src)
            real_arcs = cfg.graph.edge_count - 1
            assert cycle_rank(cfg.graph) == real_arcs - cfg.graph.vertex_count + 2


class TestControlShapes:
    def test_break_leaves_loop(self):
        cfg = lower_source("fn f() { while (c) { if (d) { break; } x; } }")
        assert cycle_rank(cfg.graph) == 3

    def test_continue_at_body_top_is_not_a_self_arc(self):
        # The continue straight back to the condition takes an empty hop
        # node rather than an illegal self-arc, and the loop exit falls
        # back to the condition's false arc.
        cfg = lower_source("fn f() { while (c) { continue; } x; }")
        assert all(e.source != e.target for e in cfg.graph.edges)
        assert cycle_rank(cfg.graph) == 2

    def test_body_that_always_returns_keeps_the_loop_branch(self):
        cfg = lower_source("fn f() { while (c) { return x; } }")
        assert cycle_rank(cfg.graph) == 2
        exits = [e for e in cfg.graph.edges if e.target == cfg.exit]
        assert len(exits) == 2  # the return and the condition's false arc

    def test_labeled_continue_from_inner_loop(self):
        cfg = lower_source(
            "fn f() { OUT: while (a) { while (b) { if (c) { continue OUT; } } x; } }")
        assert cycle_rank(cfg.graph) == 4

    def test_switch_cascade_counts_each_alternative(self):
        cfg = lower_source(
            "fn f() { switch (x) { case 1: { a; } case 2: { b; } } done; }")
        # two tests, two bodies, join, exit
        assert cycle_rank(cfg.graph) == 3

    def test_switch_with_default_all_returning(self):
        cfg = lower_source('fn g(n) { switch (n) { case 1: { return "a"; } '
                           'default: { return "b"; } } }')
        assert cycle_rank(cfg.graph) == 3

    def test_multiple_returns_share_exit(self):
        cfg = lower_source("fn f() { if (c) { return one; } return two; }")
        exits = [e for e in cfg.graph.edges if e.target == cfg.exit]
        assert len(exits) == 2

    def test_for_step_joins_body_exit(self):
        cfg = lower_source("fn f() { for (i = 0; i < n; i = i + 1) { x; } }")
        assert any(label == "x; i = i + 1" for label in cfg.node_labels)

    @pytest.mark.xfail(strict=True, reason="continue in a for loop skips the step; "
                                           "see DISCREPANCIES.md")
    def test_continue_in_for_reaches_the_condition_through_the_step(self):
        cfg = lower_source(
            "fn f(n) { for (i = 0; i < n; i = i + 1) { if (c) { continue; } x; } }")
        labels = cfg.node_labels
        cond = labels.index("for (i < n)")
        into_cond = {labels[e.source] for e in cfg.graph.edges if e.target == cond}
        # Besides the init, every arc into the condition leaves a node that
        # ends in the step: the continue path too.
        assert all(label == "i = 0" or label.endswith("i = i + 1") for label in into_cond)

    def test_empty_function_is_sequence_shape(self):
        cfg = lower_source("fn f() { }")
        assert cfg.graph.vertex_count == 2
        assert cfg.graph.edge_count - 1 == 1


class TestDiagnostics:
    def test_statement_after_return(self):
        with pytest.raises(UnreachableCode) as err:
            lower_source("fn f() { return; x; }")
        assert err.value.line == 1

    def test_code_after_exhaustive_branches(self):
        with pytest.raises(UnreachableCode):
            lower_source("fn f() { if (c) { return a; } else { return b; } x; }")

    @pytest.mark.parametrize("jump, in_switch", [(Break(None, 1, 9), False),
                                                 (Continue(None, 1, 9), True),
                                                 (Break("L", 1, 9), True)])
    def test_hand_built_jump_without_a_target(self, jump, in_switch):
        # The parser rejects these jumps; only a hand-built AST reaches lower.
        body = Block((jump,))
        if in_switch:
            body = Block((Switch("k", (SwitchCase("1", body, 1, 5),), None, 1, 3),))
        for lower_fn in (lower, cfg_reference.lower):
            with pytest.raises(UnresolvedLabel) as err:
                lower_fn(Function("f", "", body, 1, 1))
            assert (err.value.line, err.value.col) == (1, 9)

    def test_spinning_loop_inside_branch_still_reaches_exit(self):
        cfg = lower_source("fn f() { if (a) { while (c) { continue; } } y; }")
        assert cycle_rank(cfg.graph) == 3


class TestDeterminismAndReachability:
    def test_identical_source_identical_graph(self):
        src = fixture_text("listing1.mini")
        a = lower_all(src)
        b = lower_all(src)
        for x, y in zip(a, b):
            assert arc_pairs(x) == arc_pairs(y)
            assert x.node_labels == y.node_labels

    def test_every_vertex_on_start_exit_path(self):
        for name in ("atomic_seq.mini", "atomic_if.mini", "atomic_ifelse.mini",
                     "atomic_while.mini", "listing1.mini"):
            for cfg in lower_all(fixture_text(name)):
                g = cfg.graph
                fwd = {cfg.start}
                stack = [cfg.start]
                while stack:
                    v = stack.pop()
                    for e in g.edges:
                        if e.id != cfg.virtual_arc and e.source == v and e.target not in fwd:
                            fwd.add(e.target)
                            stack.append(e.target)
                back = {cfg.exit}
                stack = [cfg.exit]
                while stack:
                    v = stack.pop()
                    for e in g.edges:
                        if e.id != cfg.virtual_arc and e.target == v and e.source not in back:
                            back.add(e.source)
                            stack.append(e.source)
                assert fwd == back == set(range(g.vertex_count))

    def test_exact_omega_of_listing_functions_differ(self):
        cfgs = lower_all(fixture_text("listing1.mini"))
        weights = [horton_basis(c.graph).total_weight for c in cfgs]
        assert weights[0] != weights[1]


def hand_built(arcs, virtual_arc):
    """A control-flow graph from start s = 0 to exit r = 1 of the vertices
    s, r, a, b, whose arc ``virtual_arc`` is the one left out."""
    return ControlFlowGraph(graph=WeightedDigraph(4, arcs), start=0, exit=1,
                            virtual_arc=virtual_arc, node_labels=("s", "r", "a", "b"))


class TestCheckReachability:
    """The check on graphs neither frontend makes."""

    @pytest.mark.parametrize("arcs", [
        [(0, 1), (2, 1), (0, 3)],   # a is not reached from s, b does not reach r
        [(0, 1), (0, 2), (3, 1)],   # a does not reach r, b is not reached from s
        [(0, 1), (0, 2), (0, 3)],   # s reaches all, neither a nor b reaches r
        [(0, 1), (2, 1), (3, 1)],   # all reach r, neither a nor b is reached from s
    ])
    def test_of_two_nodes_off_every_path_the_lower_id_is_named(self, arcs):
        cfg = hand_built(arcs + [(1, 0)], len(arcs))
        with pytest.raises(UnreachableCode) as err:
            check_reachability(cfg, [(1, 1), (9, 1), (3, 5), (2, 7)], "t.mini")
        assert err.value.message == "node 'a' lies on no start-to-exit path"
        assert (err.value.line, err.value.col, err.value.filename) == (3, 5, "t.mini")

    def test_the_left_out_arc_need_not_be_last(self):
        arcs = [(0, 2), (2, 3), (3, 1), (1, 0)]
        check_reachability(hand_built(arcs, 3))
        for virtual_arc in (0, 1, 2):  # each is the only way through a and b
            with pytest.raises(UnreachableCode):
                check_reachability(hand_built(arcs, virtual_arc))
        # Only that arc is left out, not its parallel copy.
        check_reachability(hand_built([(0, 2), (0, 2), (2, 3), (3, 1), (1, 0)], 0))
        check_reachability(hand_built([(0, 2), (0, 2), (2, 3), (3, 1), (1, 0)], 1))
