import importlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosscc.basis import horton_basis, tree_bound
from crosscc.cfg import lower
from crosscc.cli import main
import dot_reference as reference
from crosscc.dot import _Reader, dump_cfg_dot, dump_dot, parse_dot
from crosscc.errors import (
    CrossCCError,
    DotSyntaxError,
    MissingStartExit,
    NegativeWeight,
    UnreachableCode,
)
from crosscc.graph import Edge, WeightedDigraph, cycle_rank, spanning_tree
from crosscc.minilang import parse

from conftest import (
    BENCH,
    FIXTURES,
    assert_checked,
    fixture_text,
    random_connected_graph,
    random_weighted_multigraph,
    weight_of,
    weighted_dot_cfg,
)


class TestParse:
    def test_weighted_fan_fixture(self):
        doc = parse_dot(fixture_text("weighted_fan.dot"))
        assert doc.graph.vertex_count == 5
        assert doc.graph.edge_count == 7
        assert weight_of(doc.graph, range(7)) == 28
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
        # Fraction would expand the exponent of 1e100000000 in full, for minutes;
        # 1e4300 has one digit more than dump_dot could write back.
        for bad_weight in ("abc", "1/0", "", "1e100000000", "1e-4301",
                           "1e4300", "99e4299", "1e-4300"):
            with pytest.raises(DotSyntaxError):
                parse_dot(f'digraph g {{ a -> b [weight="{bad_weight}"]; }}')

    def test_the_longest_weights_read_are_written_back(self):
        for weight in ("1e4299", "9.99e4299", "1e-4299"):
            doc = parse_dot(f"digraph g {{ a -> b [weight={weight}]; }}")
            again = parse_dot(dump_dot(doc.graph, node_names=doc.node_names))
            assert again.graph.edges == doc.graph.edges

    def test_a_library_graph_takes_only_weights_dump_dot_writes_back(self):
        for weight in (10**4299, Fraction(1, 10**4299), Fraction(10**4299 - 1, 10**4299)):
            g = WeightedDigraph(2, [(0, 1, weight)])
            assert parse_dot(dump_dot(g)).graph.edges == g.edges
        for spec in ((0, 1, 10**4300), (0, 1, Fraction(1, 10**4300)), (0, 1, -10**4300),
                     Edge(0, 0, 1, Fraction(10**4300 + 1, 3))):
            with pytest.raises(ValueError, match="^edge 0 weight has more than 4300 digits$"):
                WeightedDigraph(2, [spec])

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

    @pytest.mark.parametrize("name", ['a"b', "a\\", "my graph", 'x"y'])
    def test_names_with_quotes_backslashes_and_spaces_round_trip(self, name):
        g = WeightedDigraph(2, [(0, 1), (1, 0)])
        doc = parse_dot(dump_dot(g, name=name, node_names=(name, "b"), start=0, exit=1))
        assert (doc.name, doc.node_names, doc.start, doc.exit) == (name, (name, "b"), 0, 1)

    def test_fractional_weights_round_trip(self):
        doc = parse_dot('digraph g { a -> b [weight=1/2]; b -> a [weight=0.25]; }')
        again = parse_dot(dump_dot(doc.graph, node_names=doc.node_names))
        assert again.graph.edge(0).weight == Fraction(1, 2)
        assert again.graph.edge(1).weight == Fraction(1, 4)


def error_at(text):
    """The diagnostic ``parse_dot`` gives for ``text``, as (line, message)."""
    with pytest.raises(DotSyntaxError) as err:
        parse_dot(text, "f.dot")
    return err.value.line, err.value.message


class TestLines:
    def test_line_ends_inside_a_string_count(self):
        text = 'digraph g {\n  a -> b [label="x\ny\nz"];\n  c -> c;\n}'
        with pytest.raises(DotSyntaxError, match="^f.dot:5: self-loop on 'c' not allowed$"):
            parse_dot(text, "f.dot")

    def test_unterminated_quote_after_a_multiline_string(self):
        # The lexical error wins over the syntax error before it.
        text = 'digraph g {\n  a -> b [label="x\ny"];\n  a -> -> "d;\n}\n'
        assert error_at(text) == (4, "unexpected character '\"'")

    def test_end_of_input_after_a_trailing_comment(self):
        # The scanner must not search ahead into the comment's words.
        assert error_at("digraph g {\n  a -> b; // c -> d }") == (2, "missing closing '}'")
        assert error_at("digraph g {\n  a -> b [weight=1 // ]") == (2, "missing closing ']'")
        doc = parse_dot("digraph g { a -> b; } // c -> d")
        assert doc.node_names == ("a", "b")


class TestNames:
    @pytest.mark.parametrize("text, line, message", [
        ("digraph g {\n a -> , ;\n}", 2, "expected a target node, got ','"),
        ("digraph g {\n a -> -> b;\n}", 2, "expected a target node, got '->'"),
        ("digraph g {\n ] ;\n}", 2, "expected a node or attribute name, got ']'"),
        ("digraph g {\n = ;\n}", 2, "expected a node or attribute name, got '='"),
        ("digraph g {\n a = ;\n}", 2, "expected an attribute value, got ';'"),
        ("digraph -> {\n}", 1, "expected a graph name, got '->'"),
        ("digraph g {\n a [x=1] -> b;\n}", 2, "expected a node or attribute name, got '->'"),
        ("digraph g {\n a [=1];\n}", 2, "expected an attribute name, got '='"),
        ("digraph g {\n a -> b [weight=];\n}", 2, "expected an attribute value, got ']'"),
        ("digraph g {\n a ->\n", 3, "expected a target node, got 'end of input'"),
    ])
    def test_punctuation_where_a_name_belongs(self, text, line, message):
        assert error_at(text) == (line, message)

    def test_quoted_punctuation_and_empty_names(self):
        doc = parse_dot('digraph "->" { "=" = "]"; a -> "{"; a -> ""; "" -> "{"; '
                        '"[" [";"=","]; }')
        assert doc.name == "->"
        assert doc.node_names == ("a", "{", "", "[")
        assert [(e.source, e.target) for e in doc.graph.edges] == [(0, 1), (0, 2), (2, 1)]

    def test_node_named_brace_round_trips(self):
        g = WeightedDigraph(3, [(0, 1, "1/2"), (1, 2), (2, 0)])
        text = dump_dot(g, node_names=("{", "}", ";"))
        doc = parse_dot(text)
        assert doc.node_names == ("{", "}", ";")
        assert [(e.source, e.target, e.weight) for e in doc.graph.edges] == \
               [(e.source, e.target, e.weight) for e in g.edges]


def read_tokens(text, filename=None):
    """The document as the token step reads it from offset 0, whole."""
    return _Reader(text, filename).read_tokens(0)


class Unread(Exception):
    """The statement matches left part of a document to the token step."""


class MatchReader(_Reader):
    """The reader with its token step refused."""

    def read_tokens(self, pos):
        raise Unread(pos)


def read_matches(text, filename=None):
    """The document as the statement matches alone read it."""
    return MatchReader(text, filename).read()


class TestWeights:
    def test_equal_weights_in_every_spelling(self):
        doc = parse_dot('digraph g { a -> b [weight=1/2]; b -> c [weight=0.5]; '
                        'c -> d [weight="1/2"]; d -> a [weight=2/4]; a -> c [weight=1/2]; }')
        weights = [e.weight for e in doc.graph.edges]
        assert all(type(w) is Fraction and w == Fraction(1, 2) for w in weights)
        assert [(w.numerator, w.denominator) for w in weights] == [(1, 2)] * 5
        # One Fraction per distinct weight text: '1/2' and '"1/2"' are one text.
        assert weights[0] is weights[2] is weights[4]

    def test_distinct_texts_keep_distinct_values(self):
        texts = ["1", "10", "1/2", "1/20", "0.5", "0.05", "01", "1.0"]
        body = " ".join(f"v{i} -> v{i + 1} [weight={w}];" for i, w in enumerate(texts))
        doc = parse_dot(f"digraph g {{ {body} }}")
        assert [e.weight for e in doc.graph.edges] == [Fraction(w) for w in texts]

    def test_no_weight_shared_across_parses(self):
        text = "digraph g { a -> b [weight=1/2]; b -> a [weight=1/2]; }"
        first, second = parse_dot(text), parse_dot(text)
        assert first.graph.edge(0).weight is first.graph.edge(1).weight
        assert first.graph.edge(0).weight is not second.graph.edge(0).weight
        assert second.graph.edge(0).weight == Fraction(1, 2)

    @pytest.mark.parametrize("read", [read_tokens, read_matches],
                             ids=["tokens", "statements"])
    def test_one_fraction_per_weight_text_in_each_reader(self, read):
        text = ('digraph g { a -> b [weight=1/2]; b -> c [weight=0.5]; c -> a [weight="1/2"]; '
                'a -> c [weight=1/2, tree=true]; }')
        first, second = read(text), read(text)
        weights = [e.weight for e in first.graph.edges]
        assert weights == [Fraction(1, 2)] * 4
        # '1/2' and '"1/2"' are one text, '0.5' another; no document shares one.
        assert weights[0] is weights[2] is weights[3] is not weights[1]
        assert set(map(id, weights)).isdisjoint(id(e.weight) for e in second.graph.edges)

    def test_bad_and_negative_weight_report_their_arc_in_every_parse(self):
        for bad, message in (("x/2", "bad weight 'x/2'"),
                             ("-1/2", "negative weight '-1/2'")):
            text = (f"digraph g {{\n  a -> b [weight=1/2];\n  b -> c [weight=1/2];\n"
                    f"  c -> a [weight={bad}];\n}}")
            for _ in range(2):
                assert error_at(text) == (4, message)


# The reference parser, kept verbatim, against this one. They differ on
# purpose in two ways only: line ends inside quoted strings now count, and a
# name is now a word or a quoted string and nothing else.

_NAME_ERROR = re.compile(
    r"expected (a graph name|a node or attribute name|a target node|"
    r"an attribute name|an attribute value), got "
    r"('->'|'\{'|'\}'|'\['|'\]'|';'|'='|','|'end of input')")


def outcome(parse, text):
    """What ``parse`` makes of ``text``: a diagnostic, or the document,
    whose graph must also pass the public constructor's checks."""
    try:
        doc = parse(text, "f.dot")
    except CrossCCError as err:
        return type(err).__name__, err.message, err.line
    assert_checked(doc.graph)
    return (doc.name, doc.node_names, doc.start, doc.exit, doc.virtual_arc,
            doc.tree_edge_ids, doc.duplicate_arcs,
            tuple((e.id, e.source, e.target, e.weight) for e in doc.graph.edges))


def reference_matches(text):
    """The reference scanner's matches, white space included, up to where it fails."""
    pos = 0
    while pos < len(text) and (m := reference._TOKEN_RE.match(text, pos)):
        yield m
        pos = m.end()


def reference_lines(text):
    """(line the reference gave, true line) for each token of the reference
    scanner, the position where it fails and end of input included. The
    reference counted only the line ends in whitespace."""
    pairs, ws_line, line = [], 1, 1
    for m in reference_matches(text):
        newlines = m.group(0).count("\n")
        if m.lastgroup == "ws":
            ws_line += newlines
        else:
            pairs.append((ws_line, line))
        line += newlines
    pairs.append((ws_line, line))
    return pairs


def quoted_punctuation_target(text):
    """True when an arc's target is a quoted string the reference refused
    as a name: empty or punctuation."""
    tokens = [m.group(0) for m in reference_matches(text) if m.lastgroup != "ws"]
    return any(a == "->" and b.startswith('"') and reference._unquote(b) in "{}[];="
               for a, b in zip(tokens, tokens[1:]))


def assert_same_or_fixed(text):
    old, new = outcome(reference.parse_dot, text), outcome(parse_dot, text)
    if old == new:
        return
    if new[0] == "DotSyntaxError" and _NAME_ERROR.fullmatch(new[1]):
        return  # punctuation or end of input where a name belongs
    if old[:2] == ("DotSyntaxError", "arc needs a target node") \
            and quoted_punctuation_target(text):
        return  # a quoted punctuation or empty target is a name now
    # Otherwise only the line may differ, and only by line ends in strings.
    assert old[:2] == new[:2] and old[0] == "DotSyntaxError", (old, new)
    assert (old[2], new[2]) in reference_lines(text), (old, new)


DOT_PIECES = ["digraph", "g", "{", "}", "->", "-", ">", "[", "]", ";", "=", ",", " ",
              "\n", "\t", "//", "// c -> d\n", "/", '"', '"x"', '"a\nb"', '""', '"{"',
              '";"', '"->"', '"\\""', '"\\\\"', "\\", "weight", "tree", "true", "start",
              "exit", "addvirtual", "false", "1/2", "0.5", "2/4", "-1", "1/0", "a", "b",
              "c", "a->b", "é"]
DOT_TEXT = st.tuples(
    st.sampled_from(["", "digraph ", "digraph g {", "digraph g {\n"]),
    st.lists(st.one_of(st.sampled_from(DOT_PIECES), st.characters()), max_size=60),
).map(lambda parts: parts[0] + "".join(parts[1]))
STATEMENTS = ["a -> b;", "b -> c [weight=1/2];", "c -> a [weight=0.5, tree=true];",
              "b -> a [weight=\"2/4\"];", "start = a;", "exit = c;", 'exit = "b";',
              "addvirtual = false;", "lonely;", "d [x=1];", "a -> a;", "a -> b [weight=-1];",
              '"q\nr" -> a;', '"{" -> a;', 'a -> "{";', 'a -> "";', "a -> ;", "a -> , ;",
              "] ;", "= ;", "a = ;", "a [x=1] -> b;", "// c\n", "\n", '"\n', "}", "{"]


class TestReferenceParser:
    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.dot")), ids=lambda p: p.name)
    def test_fixtures_parse_the_same(self, path):
        text = path.read_text(encoding="utf-8")
        assert outcome(parse_dot, text) == outcome(reference.parse_dot, text)

    def test_dumped_random_graphs_parse_the_same(self):
        rng = random.Random(0xD07)
        graphs = [random_connected_graph(rng) for _ in range(200)]
        graphs += [random_weighted_multigraph(rng) for _ in range(100)]
        for i, g in enumerate(graphs):
            names = tuple(f"n{v}" for v in range(g.vertex_count))
            start, exit_, varc = (None, None, None) if i % 2 else (0, g.vertex_count - 1, None)
            if i % 4 == 2:  # a control-flow graph whose closing arc comes back
                varc = g.edge_count
                g = WeightedDigraph(g.vertex_count,
                                    [(e.source, e.target, e.weight) for e in g.edges]
                                    + [(exit_, start, 0)])
            text = dump_dot(g, name=f"g{i}", node_names=names, start=start, exit=exit_,
                            virtual_arc=varc, node_comments=names)
            new = outcome(parse_dot, text)
            assert new == outcome(reference.parse_dot, text)
            _, node_names, *_, edges = new
            assert [(node_names[s], node_names[t], w) for _, s, t, w in edges] == \
                   [(names[e.source], names[e.target], e.weight) for e in g.edges]

    @settings(max_examples=400, deadline=None)
    @given(DOT_TEXT)
    @example('digraph g {\n a -> b [label="x\ny\nz"];\n c -> c;\n}')
    @example('digraph g { "a\nb" -> c; }\n"')
    @example("digraph g { a -> b; } // c d")
    def test_generated_text(self, text):
        assert_same_or_fixed(text)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["digraph g {", "digraph {", 'digraph "x\ny" {', "digraph",
                            "digraph g {\n"]),
           st.lists(st.sampled_from(STATEMENTS), max_size=12).map(" ".join),
           st.sampled_from(["}", "}\n", "", "} x", "}\n// end", '}"']))
    def test_generated_statements(self, head, body, tail):
        assert_same_or_fixed(f"{head} {body} {tail}")


# The statement matches against the token step: ``parse_dot``, which reads
# statements by match up to the first one no match reads, reads every text as
# the token step alone does from offset 0.

def assert_reader_agrees(text):
    """``parse_dot`` reads ``text`` as the token step does from offset 0.
    True when the statement matches read all of it."""
    assert outcome(parse_dot, text) == outcome(read_tokens, text)
    try:
        outcome(read_matches, text)
    except Unread:
        return False
    return True


READER_STATEMENTS = STATEMENTS + [
    "a -> b [tree=true];", "b -> c [weight=1/2, tree=true];", "c -> a [tree=1 weight=2];",
    "a -> c [tree=false];", "b -> a [tree=TRUE];", 'a -> b [tree="true"];',
    'a -> b [weight="1/2"];', 'c -> b [weight="x"];', 'b -> c [weight=""];',
    'a -> b [weight="-1"];', "a -> b [weight=1, weight=3/2];", "a -> b [weight=1,];",
    "a -> b [ ];", "a->b[weight=2];", "a -> b [weight=1 ,tree=true ] ;", "a -> b [label=x];",
    'a -> b [label="x"];', "a -> b [weightx=2];", "a -> b [weight//c\n=2];",
    "a // c\n -> b;", "a -> // c\n b;", "a -> b // c\n [weight=2];", "a -> b [ // c\n weight=2];",
    "a -> b [weight= // c\n 2];", "a -> b [weight=2 // c\n ];", "a -> b // c\n ;",
    "a = // c\n b;", "a // c\n = b;", "a = b // c\n ;", "a//c\n -> b;", '"a" -> "b";',
    '"a\\"b" -> c;', '"s" = "a";', 'start = "a";', 'exit = "b";', 'start = "b";',
    "addvirtual = true;", "digraph;", "digraph -> a;", "weight = 3;", "tree;", "a -> b -> c;",
    "a;;", "a - > b;", "a -x b;", "é -> a;", "a -> b [tree//c\n=true];"]
# Statements the statement matches read, so that a document of them and one
# other statement goes to the token step at that one, if at all.
READABLE = ["a -> b;", "b -> c [weight=1/2];", "c -> a [weight=0.5, tree=true];",
            'b -> a [weight="2/4"];', "a -> c [tree=false];", "b -> a [tree=TRUE];",
            "a -> b [weight=1, weight=3/2];", 'start = "a";', "exit = c;",
            "addvirtual = false;", "lonely;", '"q\nr" -> a;', "// c\n",
            "a -> // c\n b;", '"a" -> "b";']


class TestStatementReader:
    @settings(max_examples=400, deadline=None)
    @given(DOT_TEXT)
    @example("digraph g { a -> b; // c\n}")
    @example("digraph g { a -> b; // c }")
    def test_generated_text(self, text):
        assert_reader_agrees(text)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(["digraph g {", "digraph {", 'digraph "x\ny" {', "digraph",
                            "digraph g {\n", "// c\ndigraph g {", "digraph // c\n g {",
                            "digraph g // c\n {", "digraph//c\n g {", '"digraph" g {',
                            "digraph g { digraph h {"]),
           st.lists(st.sampled_from(READER_STATEMENTS), max_size=12).map(" ".join),
           st.sampled_from(["}", "}\n", "", "} x", "}\n// end", '}"', "} }", "};"]))
    @example("digraph g {", "a -> b [weight=1/2, tree=true]; b -> a;", "}")
    def test_generated_statements(self, head, body, tail):
        assert_reader_agrees(f"{head} {body} {tail}")

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(READABLE), max_size=8),
           st.sampled_from(READER_STATEMENTS), st.integers(0, 8))
    @example([], "a -> b // c\n [weight=2];", 0)
    @example(["a -> b;"], "a // c\n -> b;", 1)
    @example([], "a -> b [weight//c\n=2];", 0)
    @example([], "a -> b [tree//c\n=true];", 0)
    @example([], "b -> a [tree=TRUE];", 0)
    def test_one_statement_among_readable_ones(self, body, other, at):
        body.insert(at, other)
        assert_reader_agrees("digraph g {\n  " + "\n  ".join(body) + "\n}\n")

    def test_dumped_random_graphs(self):
        # The documents of TestReferenceParser's test of dumped random graphs.
        rng = random.Random(0xD07)
        graphs = [random_connected_graph(rng) for _ in range(200)]
        graphs += [random_weighted_multigraph(rng) for _ in range(100)]
        for i, g in enumerate(graphs):
            names = tuple(f"n{v}" for v in range(g.vertex_count))
            start, exit_ = (None, None) if i % 2 else (0, g.vertex_count - 1)
            varc = g.edge_count if i % 4 == 2 else None
            if varc is not None:
                g = WeightedDigraph(g.vertex_count,
                                    [(e.source, e.target, e.weight) for e in g.edges]
                                    + [(exit_, start, 0)])
            text = dump_dot(g, name=f"g{i}", node_names=names, start=start, exit=exit_,
                            virtual_arc=varc, node_comments=names)
            assert assert_reader_agrees(text)


class TestSwitchToTokens:
    """From the first statement no match reads, or that a check rejects, the
    token step reads the rest, from that statement's offset on, into the
    same tables."""

    @staticmethod
    def spy(monkeypatch):
        """The offsets the token step starts from, and those it scans a
        token from, as ``parse_dot`` runs."""
        starts, scanned = [], []
        read_tokens, next_token = _Reader.read_tokens, _Reader._next

        def start(reader, pos):
            starts.append(pos)
            return read_tokens(reader, pos)

        def scan(reader):
            scanned.append(reader._end)
            next_token(reader)
        monkeypatch.setattr(_Reader, "read_tokens", start)
        monkeypatch.setattr(_Reader, "_next", scan)
        return starts, scanned

    def test_a_document_is_read_once(self, monkeypatch):
        starts, scanned = self.spy(monkeypatch)
        matched = "digraph g {\n  start = a;\n  a -> b [weight=1/2];\n  b -> c;"
        text = matched + "\n  c -> a [label=x];\n  exit = c;\n}\n"
        doc = parse_dot(text)
        assert starts == [len(matched)]
        assert min(scanned) == len(matched)  # no token before it is scanned
        assert (doc.node_names, doc.start, doc.exit, doc.virtual_arc) == (("a", "b", "c"), 0, 2, 3)

    def test_vertices_weights_and_duplicates_carry_across(self, monkeypatch):
        starts, _ = self.spy(monkeypatch)
        text = ('digraph g {\n  a -> b [weight=1/2];\n  "c" -> a;\n  d [x=1];\n'
                '  b -> c [weight=1/2];\n  a -> b;\n  c -> "a";\n}\n')
        doc = parse_dot(text)
        assert starts == [text.index("\n  d [x=1]")]
        assert doc.node_names == ("a", "b", "c", "d")
        assert [(e.source, e.target) for e in doc.graph.edges] == \
               [(0, 1), (2, 0), (1, 2), (0, 1), (2, 0)]
        assert doc.duplicate_arcs == (("a", "b"), ("c", "a"))
        # One Fraction per weight text, on both sides of the switch.
        assert doc.graph.edge(0).weight is doc.graph.edge(2).weight
        assert outcome(parse_dot, text) == outcome(read_tokens, text)

    @pytest.mark.parametrize("unread, line, message", [
        ("a [x=1] -> b;", 3, "expected a node or attribute name, got '->'"),
        ("c -> c;", 3, "self-loop on 'c' not allowed"),
        ("c -> d [weight=x];", 3, "bad weight 'x'"),
        ("} x", 3, "trailing input after closing '}'"),
    ])
    def test_a_lone_quote_after_the_switch_wins(self, monkeypatch, unread, line, message):
        starts, _ = self.spy(monkeypatch)
        text = f'digraph g {{\n  a -> b;\n  {unread}\n  e -> f;\n  g "\n}}\n'
        assert error_at(text) == (5, "unexpected character '\"'")
        assert starts == [text.index("\n  " + unread)]
        assert error_at(text.replace('"', "")) == (line, message)


class TestTrustedEdges:
    """The reader hands its edges to the graph unchecked. ``outcome``
    checks them on every document it reads: the fixtures and the generated
    texts above, in each step. These add the fixtures in the token step
    and the weighted control-flow graphs that ``test_basis`` checks against
    networkx, with parallel arcs and rational weights."""

    @pytest.mark.parametrize("read", [read_tokens, read_matches],
                             ids=["tokens", "statements"])
    def test_weighted_cfgs(self, read):
        rng = random.Random(48)
        for nodes in (6, 12, 48, 96):
            text = weighted_dot_cfg(rng, nodes, extra=nodes * 9 // 16, parallel=nodes // 12)
            assert outcome(read, text) == outcome(reference.parse_dot, text)

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.dot")), ids=lambda p: p.name)
    def test_fixtures_in_the_token_parser(self, path):
        text = path.read_text(encoding="utf-8")
        assert outcome(read_tokens, text) == outcome(reference.parse_dot, text)


def test_real_documents_take_the_statement_path(monkeypatch, tmp_path):
    # The fixtures, the documents dump-cfg writes and those the benchmark
    # generates never reach the token step, so an edit of the statement
    # pattern that sends them there fails here, not only in the benchmark.
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.dot"))]
    for path in sorted(FIXTURES.glob("*.mini")):
        out = tmp_path / f"{path.stem}.dot"
        assert main(["dump-cfg", str(path), "-o", str(out)]) == 0
        # One document per function, each after its "// file:function" line.
        texts += re.split(r"(?m)^(?=// )", out.read_text(encoding="utf-8"))[1:]
    monkeypatch.syspath_prepend(str(BENCH))
    gen = importlib.import_module("gen")
    rng = random.Random(25)
    for nodes in (6, 12, 48, 96):
        texts += [gen.dot_cfg(rng, f"g{i:02d}", nodes, extra_arcs=nodes * 9 // 16,
                              parallel=nodes // 12)[0] for i in range(5)]
    assert len(texts) == 8 + 6 + 20
    for text in texts:
        read_matches(text)  # raises Unread where the token step would read
