import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import minilang_reference
from crosscc.cfg import lower
from crosscc.dot import dump_cfg_dot
from crosscc.errors import (
    DuplicateFunction,
    MiniLangSyntaxError,
    UnresolvedLabel,
)
from crosscc.minilang import (
    Break,
    Continue,
    ExprStmt,
    For,
    If,
    Return,
    Switch,
    While,
    parse,
)

from conftest import fixture_text


class TestBasics:
    def test_single_return(self):
        prog = parse("fn f() { return; }")
        (fn,) = prog.functions
        assert fn.name == "f"
        (stmt,) = fn.body
        assert isinstance(stmt, Return) and stmt.value is None

    def test_return_value_is_raw_text(self):
        prog = parse("fn f() { return total + 1; }")
        (stmt,) = prog.functions[0].body
        assert stmt.value == "total + 1"

    def test_empty_then_block(self):
        prog = parse("fn f() { if (c) { } }")
        (stmt,) = prog.functions[0].body
        assert isinstance(stmt, If)
        assert stmt.then == ()
        assert stmt.orelse is None

    def test_else_if_chain_nests(self):
        prog = parse("fn f() { if (a) { x; } else if (b) { y; } else { z; } }")
        (outer,) = prog.functions[0].body
        (inner,) = outer.orelse
        assert isinstance(inner, If)
        assert inner.orelse is not None

    def test_expression_statements_keep_source_text(self):
        prog = parse('fn f() { total = total + i; call(a, "s;x"); }')
        s1, s2 = prog.functions[0].body
        assert s1.text == "total = total + i"
        assert s2.text == 'call(a, "s;x")'

    def test_comments_are_skipped(self):
        prog = parse("// leading\nfn f() { /* inner */ x; }")
        assert len(prog.functions) == 1

    def test_multiple_functions(self):
        prog = parse("fn a() { x; } fn b() { y; }")
        assert [fn.name for fn in prog.functions] == ["a", "b"]


class TestNodes:
    def test_equal_nodes_hash_equal(self):
        a = If("c", (Break("L", 2, 3),), None, 1, 10)
        b = If("c", (Break("L", 2, 3),), None, 1, 10)
        assert a == b and hash(a) == hash(b)
        assert a != If("c", (), None, 1, 10)

    def test_equality_needs_the_same_class(self):
        assert Break(None, 1, 2) != Continue(None, 1, 2)
        assert Break(None, 1, 2) == Break(None, 1, 2)

    def test_repr_names_every_field(self):
        # The form pytest prints when two trees differ.
        assert repr(If("c", (), None, 1, 10)) == \
            "If(cond='c', then=(), orelse=None, line=1, col=10)"


class TestListingFixture:
    def test_sum_of_primes_shape(self):
        prog = parse(fixture_text("listing1.mini"))
        fn = prog.functions[0]
        assert fn.name == "sumOfPrimes"
        outer = fn.body[1]
        assert isinstance(outer, For) and outer.label == "OUT"
        inner = outer.body[0]
        assert isinstance(inner, For)
        branch = inner.body[0]
        assert isinstance(branch, If)
        (jump,) = branch.then
        assert isinstance(jump, Continue) and jump.label == "OUT"

    def test_get_words_shape(self):
        prog = parse(fixture_text("listing1.mini"))
        fn = prog.functions[1]
        (sw,) = fn.body
        assert isinstance(sw, Switch)
        assert [c.label for c in sw.cases] == ["1", "2"]
        assert sw.default is not None


class TestLabels:
    """The tree keeps loop labels only: a loop carries the label nearest to
    it, and a label on any other statement leaves no trace."""

    @pytest.mark.parametrize("parser", [parse, minilang_reference.parse])
    @pytest.mark.parametrize("source, label", [
        ("fn f() { a: b: while (c) { x; } }", "b"),
        ("fn f() { a: é: while (c) { x; } }", "é"),  # read on the token path
    ])
    def test_a_loop_takes_the_nearest_label(self, parser, source, label):
        (loop,) = parser(source).functions[0].body
        assert isinstance(loop, While) and loop.label == label
        assert loop.body == (ExprStmt("x", 1, 28),)

    @pytest.mark.parametrize("parser", [parse, minilang_reference.parse])
    def test_only_the_nearest_label_is_a_target(self, parser):
        with pytest.raises(UnresolvedLabel):
            parser("fn f() { a: b: while (c) { break a; } }")

    @pytest.mark.parametrize("parser", [parse, minilang_reference.parse])
    @pytest.mark.parametrize("source, stmt", [
        ("fn f() { L: x; }", ExprStmt("x", 1, 13)),
        ("fn f() { L: if (c) { } }", If("c", (), None, 1, 13)),
    ])
    def test_a_label_on_another_statement_leaves_no_trace(self, parser, source, stmt):
        assert parser(source).functions[0].body == (stmt,)

    def test_a_label_on_another_statement_lowers_as_none(self):
        assert dump_cfg_dot(lower(parse("fn f() { L: x; }").functions[0])) == \
            dump_cfg_dot(lower(parse("fn f() { x; }").functions[0]))


class TestDiagnostics:
    def test_syntax_error_carries_position(self):
        with pytest.raises(MiniLangSyntaxError) as err:
            parse("fn f() {\n  if c) { }\n}")
        assert err.value.line == 2

    def test_missing_brace(self):
        with pytest.raises(MiniLangSyntaxError):
            parse("fn f() { x; ")

    def test_statement_cut_by_end_of_file_names_its_stop(self):
        with pytest.raises(MiniLangSyntaxError) as err:
            parse("fn f() { x", "t.mini")
        assert str(err.value) == "t.mini:1:11: expected ';' before end of file"

    def test_bare_block_is_refused_where_it_opens(self):
        for parser in (parse, minilang_reference.parse):
            with pytest.raises(MiniLangSyntaxError) as err:
                parser("fn f() { { x; } }", "t.mini")
            assert str(err.value) == ("t.mini:1:10: bare blocks are not statements; "
                                      "braces follow a control keyword")

    def test_duplicate_function(self):
        with pytest.raises(DuplicateFunction):
            parse("fn f() { x; } fn f() { y; }")

    def test_unresolved_continue_label(self):
        with pytest.raises(UnresolvedLabel):
            parse("fn f() { while (c) { continue NOPE; } }")

    def test_label_on_non_loop_cannot_be_broken(self):
        with pytest.raises(UnresolvedLabel):
            parse("fn f() { L: x; while (c) { break L; } }")

    def test_break_outside_loop_or_switch(self):
        with pytest.raises(UnresolvedLabel):
            parse("fn f() { break; }")

    def test_continue_outside_loop(self):
        with pytest.raises(UnresolvedLabel):
            parse("fn f() { switch (x) { case 1: { continue; } } }")

    def test_break_inside_switch_is_fine(self):
        parse("fn f() { switch (x) { case 1: { break; } } }")

    def test_unterminated_string(self):
        with pytest.raises(MiniLangSyntaxError):
            parse('fn f() { return "oops; }')

    def test_empty_switch_rejected(self):
        with pytest.raises(MiniLangSyntaxError):
            parse("fn f() { switch (x) { } }")

    @pytest.mark.parametrize("source, message", [
        ("fn f() { while (a[) { x; } }", "1:29: expected ')' before end of file"),
        ("fn f() { if (a]) { x; } }", "1:15: unbalanced ']'"),
        ("fn f() { x = (a[); }", "1:21: expected ';' before end of file"),
        ("fn f() { if (a", "1:15: expected ')' before end of file"),
        ("fn f(a", "1:7: expected ')' before end of file"),
        ("fn f() { for (a; b; c", "1:22: expected ')' before end of file"),
    ])
    def test_heads_and_statements_follow_one_bracket_rule(self, source, message):
        with pytest.raises(MiniLangSyntaxError) as err:
            parse(source, "t.mini")
        assert str(err.value) == f"t.mini:{message}"


# A head's text T at the offset of a ``for`` step's, so the two readings can
# be compared position for position: each prefix is 17 characters, and each
# suffix closes the head with a body that parses. The ``for`` statement's
# suffix is padded to the head's length, so the end of the file is at one
# offset too.
HEAD_FORMS = {
    "if": ("fn f() { if     (", ") { } }", lambda fn: fn.body[0].cond),
    "while": ("fn f() { while  (", ") { } }", lambda fn: fn.body[0].cond),
    "switch": ("fn f() { switch (", ") { default: { } } }",
               lambda fn: fn.body[0].scrutinee),
    "fn": ("fn e() { }  fn f(", ") { }  ", lambda fn: fn.params),
}
STEP_PREFIX = "fn f() { for (;; "
# Brackets, strings, comments, ``?:``, braces and non-ASCII text; the only
# letters are ``a``, ``b`` and ``é``, so no piece run spells a keyword.
HEAD_PIECES = ["(", ")", "[", "]", "{", "}", '"', '")"', '"\\"', "/*", "*/", "/* ) */",
               "// )\n", "//", ";", ":", "?", " ? b : ", "?:", "a", "b", " ", "\n",
               "é", "²", "½", ","]
HEAD_TEXT = st.lists(st.sampled_from(HEAD_PIECES), max_size=12).map("".join)


def head_reading(source, head_of):
    """The head text that ``head_of`` takes from the parsed program's last
    function, or the diagnostic as ``(message, line, col)``."""
    try:
        program = parse(source, "t.mini")
    except MiniLangSyntaxError as err:
        return str(err), err.line, err.col
    return head_of(program.functions[-1]) or None


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(HEAD_FORMS)), HEAD_TEXT)
@example("if", "]]}:a")
@example("while", "(")
@example("switch", "a]")
@example("fn", "a[")
@example("if", "a[")
@example("fn", "(")
def test_a_head_reads_its_text_as_a_for_step_does(kind, text):
    # A switch or function body is not a loop body: a ``{`` in the text that
    # opens the body early would be read by two grammars.
    assume(kind in ("if", "while") or "{" not in text)
    prefix, suffix, head_of = HEAD_FORMS[kind]
    step_suffix = ") { }" + " " * (len(suffix) - 7) + " }"
    step = head_reading(STEP_PREFIX + text + step_suffix, lambda fn: fn.body[0].step)
    assert head_reading(prefix + text + suffix, head_of) == step
