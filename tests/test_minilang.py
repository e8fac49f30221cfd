import pytest

import minilang_reference
from crosscc.errors import (
    DuplicateFunction,
    MiniLangSyntaxError,
    UnresolvedLabel,
)
from crosscc.minilang import (
    Block,
    Break,
    Continue,
    For,
    If,
    Labeled,
    Return,
    Switch,
    parse,
)

from conftest import fixture_text


class TestBasics:
    def test_single_return(self):
        prog = parse("fn f() { return; }")
        (fn,) = prog.functions
        assert fn.name == "f"
        (stmt,) = fn.body.stmts
        assert isinstance(stmt, Return) and stmt.value is None

    def test_return_value_is_raw_text(self):
        prog = parse("fn f() { return total + 1; }")
        (stmt,) = prog.functions[0].body.stmts
        assert stmt.value == "total + 1"

    def test_empty_then_block(self):
        prog = parse("fn f() { if (c) { } }")
        (stmt,) = prog.functions[0].body.stmts
        assert isinstance(stmt, If)
        assert stmt.then.stmts == ()
        assert stmt.orelse is None

    def test_else_if_chain_nests(self):
        prog = parse("fn f() { if (a) { x; } else if (b) { y; } else { z; } }")
        (outer,) = prog.functions[0].body.stmts
        (inner,) = outer.orelse.stmts
        assert isinstance(inner, If)
        assert inner.orelse is not None

    def test_expression_statements_keep_source_text(self):
        prog = parse('fn f() { total = total + i; call(a, "s;x"); }')
        s1, s2 = prog.functions[0].body.stmts
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
        a = If("c", Block((Break("L", 2, 3),)), None, 1, 10)
        b = If("c", Block((Break("L", 2, 3),)), None, 1, 10)
        assert a == b and hash(a) == hash(b)
        assert a != If("c", Block(()), None, 1, 10)

    def test_equality_needs_the_same_class(self):
        assert Break(None, 1, 2) != Continue(None, 1, 2)
        assert Break(None, 1, 2) == Break(None, 1, 2)

    def test_repr_names_every_field(self):
        # The form pytest prints when two trees differ.
        assert repr(If("c", Block(()), None, 1, 10)) == \
            "If(cond='c', then=Block(stmts=()), orelse=None, line=1, col=10)"


class TestListingFixture:
    def test_sum_of_primes_shape(self):
        prog = parse(fixture_text("listing1.mini"))
        fn = prog.functions[0]
        assert fn.name == "sumOfPrimes"
        labeled = fn.body.stmts[1]
        assert isinstance(labeled, Labeled) and labeled.label == "OUT"
        outer = labeled.stmt
        assert isinstance(outer, For)
        inner = outer.body.stmts[0]
        assert isinstance(inner, For)
        branch = inner.body.stmts[0]
        assert isinstance(branch, If)
        (jump,) = branch.then.stmts
        assert isinstance(jump, Continue) and jump.label == "OUT"

    def test_get_words_shape(self):
        prog = parse(fixture_text("listing1.mini"))
        fn = prog.functions[1]
        (sw,) = fn.body.stmts
        assert isinstance(sw, Switch)
        assert [c.label for c in sw.cases] == ["1", "2"]
        assert sw.default is not None


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
