"""The MiniLang scanner and parser against their predecessors, the
positions they report, and arbitrary text through both frontends.

``minilang_reference._tokenize`` is the scanner ``crosscc.minilang`` used
before its one-pattern scanner; the two must give the same token stream,
the same ``line:col`` for every token, and the same diagnostics.
``minilang_reference.parse`` is the parser that read that scanner's full
token list before the parser scanned on demand and skipped expression
text; the two must give the same ``Program`` or the same diagnostic. The
programs compared include nested ones up to 200 levels deep, which the
recursive reference still parses, files of many functions, and generated
functions with a few random edits. ``minilang.parse`` reads a statement
by one lexeme match when it can and by tokens otherwise, so each
comparison holds whichever path took each statement; generated
well-formed files must need no tokens.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minilang_reference as reference
from crosscc import minilang
from crosscc.cli import main
from crosscc.dot import parse_dot
from crosscc.errors import CrossCCError, MiniLangSyntaxError

from conftest import FIXTURES
from test_programs import functions

# Non-ASCII letters and digits (``²`` and ``①`` are str.isdigit but not
# regex \d; ``½`` is numeric but neither), escapes, line ends, comment
# delimiters, ``?:`` pieces, keywords and braces.
PIECES = ["é", "²", "①", "٣", "½", "_", "9", "0", ".", "\r", "\t", "\n", " ",
          '"', "\\", "/*", "*/", "//", "/", "*", "x", "a1", "\x0b",
          "{", "}", "(", ")", "[", "]", ";", ":", ",", "=", "?", " ? b : ", "?:",
          *sorted(minilang.KEYWORDS)]
SCANNER_TEXT = st.lists(st.one_of(st.sampled_from(PIECES), st.characters()),
                        max_size=80).map("".join)


def error_of(err):
    return type(err).__name__, str(err), err.line, err.col


def scan(tokenize, source):
    """Every token as (kind, text, start, end, line, col), or the error."""
    try:
        tokens = tokenize(source, "t.mini")
    except MiniLangSyntaxError as err:
        return error_of(err)
    if tokenize is reference._tokenize:
        return [(t.kind, t.text, t.start, t.end, t.line, t.col) for t in tokens]
    starts = minilang._line_starts(source)
    return [(*t, *minilang._position(starts, t.start)) for t in tokens]


def parse_outcome(parse, source):
    try:
        return parse(source, "t.mini")
    except CrossCCError as err:
        return error_of(err)


def assert_scanners_agree(source):
    assert scan(minilang._tokenize, source) == scan(reference._tokenize, source)
    assert parse_outcome(minilang.parse, source) == parse_outcome(reference.parse, source)


@settings(max_examples=400, deadline=None)
@given(SCANNER_TEXT)
@example("fn ²x() { y = ①.5_a; z = ½b; }")
@example('fn f() { s = "a\\"b\\\\"; /* c\n */ t; }')
@example('"tail\\')
@example("x /*/ y")
@example("fn f() { x = (a]; }")
@example("fn f() { if ((a] ) { x; } while (a[)]) { y; } }")
@example("fn f() { x = (a[b(c)]); y = [(a[b(c)])]; z = (a(b(c(d)))e); }")
@example("fn f() { if (g(a[b(c)])) { x; } while ((a(b(c)))) { y; } }")
@example('fn f() { x = g(";", \':\', ")" /* ; : ) */, a // ; : )\n); y = ":)"; }')
@example('fn f() { for (i = ";"; i < ")" /* ; */; i = i + 1 // )\n) { x; } }')
@example("fn f() { x //L: y;\n z; }")
@example("fn f() { x /* a */ y */ : z; }")
@example('fn f() { if x { y; } }\nfn g() { s = "never closed; }')
@example("fn f() { x; }\nfn f() { y; }\nfn g() { /* never closed")
@example('fn f() { break; }\nfn g() { "never closed }')
# Which unresolved jump is reported: a default body ranks after every case
# body of its switch, nested switches too; only a loop's innermost label
# is a target; the first function wins; any other error wins over all.
@example("fn f() { switch (k) { default: { continue; } case 1: { break L; } } }")
@example("fn f() { switch (k) { case 1: { x; } default: { switch (j) { default: "
         "{ continue; } case 2: { break M; } } } case 3: { continue N; } } }")
@example("fn f() { L: switch (k) { case 1: { break L; } } }")
@example("fn f() { a: b: while (c) { break a; } }")
@example("fn f() { continue; }\nfn g() { break; }")
@example("fn f() { break; }\nfn g() { if x { y; } }")
@example("fn f() { break; }\nfn g() { x; }\nfn g() { y; }")
@example("fn f() { if (a) { break; } else if (b) { y; } else if c { z; } else { w; } }")
@example("fn f() { return \x0b; }")
@example("fn f() { x; \x0b /* ; */ \xa0 ; }")
@example("fn f() { switch (k) { case \x0b: { } } }")
# Shapes a statement's lexeme must leave to the token path or read as it does:
# a keyword that starts text, a comment between a label and its ``:``, a
# ``{`` that starts a ``for`` condition, a blank-like character after a
# jump target, and a second ``default``.
@example("fn f() { while (c) { if continue; } }")
@example("fn f() { L0/* ; */: while (a) { x; } }")
@example("fn f() { L0/* ; */: while (a) { break L0; } }")
@example("fn f() { for (i = 0; {i < n; i = i + 1) { x; } }")
@example("fn f() { L: while (c) { break L\x0b; } }")
@example("fn f() { switch (k) { default: { } case 1: { } default: { x; } } }")
# A keyword as a jump target, a ``:`` in a parameter list, a ``for`` body
# without its ``{``, and a statement other than an ``if`` after ``else``.
@example("fn f() { while (c) { break if; } }")
@example("fn f(: { x; }")
@example("fn f() { for (;;) x; }")
@example("fn f() { if (c) { x; } else while (d) { y; } }")
# ``for`` heads that the lexemes leave to the token path: a ``:`` in the
# condition, a step whose groups nest three deep, and a part led by a
# keyword, an ``else`` or a ``}``; then a jump to a label that is not ASCII.
@example("fn f() { for (i = 0; c ? i < n : 0; i = i + 1) { x; } }")
@example("fn f() { for (i = 0; i < n; f(g(h(i)))) { x; } }")
@example("fn f() { for (; break; case) { x; } }")
@example("fn f() { for (; else; i) { x; } }")
@example("fn f() { for (i = 0; } ; i) { x; } }")
@example("fn f() { é: while (c) { if (d) { break é; } continue é; } }")
# ``?:`` in text: a case label ends at its first ``:``, so this label is
# ``a ? b`` and ``c`` stands where its body's ``{`` should; nested ``?:``
# both ways; a ``?`` without a ``:``; a label before a ``?:``; groups
# inside one.
@example("fn f() { switch (k) { case a ? b : c: { x; } } }")
@example("fn f() { x = a ? b ? c : d : e; y = a ? b : c ? d : e; }")
@example("fn f() { x = a ? b; }")
@example("fn f() { lbl: x ? a : b; }")
@example("fn f() { x = c ? f(g(y)) : 0; }")
def test_scanners_agree_on_generated_text(source):
    assert_scanners_agree(source)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["fn f() {", "fn g(a, b) {", "}", "if (c) {",
                                 "} else {", "while (i < n) {", "x = 1;",
                                 "return y;", "break;", "L: for (;;) {",
                                 "switch (k) { case 1: {", "default: {",
                                 "/* c\n */", "// c\n", '"s\n"', "\r\n", "²",
                                 "?", " ? b : ", "?:"]),
                max_size=30).map(" ".join))
def test_scanners_agree_on_statement_soup(source):
    assert_scanners_agree(source)


# Well-formed functions with 1 to 3 edits, each an insert of one of these
# pieces or a delete of 1 to 4 characters, at a drawn offset.
MUTATION_PIECES = [*sorted(minilang.KEYWORDS), "{", "}", "(", ")", ";", ":", " ",
                   "/* ; */", "// :\n", "/*", "\x0b", "L0", "L1:", "é", "?", " ? b : ", "?:"]
EDIT = st.tuples(st.integers(0, 10**4),
                 st.one_of(st.sampled_from(MUTATION_PIECES), st.integers(1, 4)))


def edited(source, edits):
    for at, edit in edits:
        at %= len(source) + 1
        if isinstance(edit, str):
            source = source[:at] + edit + source[at:]
        else:
            source = source[:at] + source[at + edit:]
    return source


@settings(max_examples=300, deadline=None)
@given(functions(), st.lists(EDIT, min_size=1, max_size=3))
def test_parsers_agree_on_mutated_functions(program, edits):
    source = edited(program[0], edits)
    assert parse_outcome(minilang.parse, source) == parse_outcome(reference.parse, source)


# Expression text where the delimiters sit in strings, comments and
# groups of every depth, matched or not; sometimes a file that ends in an
# unterminated string or comment, which must beat any syntax error before it.
EXPRESSION_PIECES = ["a", " ", "(", ")", "[", "]", ";", ":", '";"', '")"', "/* ; ) */",
                     "// ; )\n", "/", "*", "\n", "?", " ? b : ", "?:"]
STATEMENT = st.tuples(st.sampled_from(["x = ", "return ", "case ", "if (", "for (", "L: ",
                                       "while ((", "s["]),
                      st.lists(st.sampled_from(EXPRESSION_PIECES), max_size=14).map("".join))


@settings(max_examples=300, deadline=None)
@given(st.lists(STATEMENT, max_size=5), st.sampled_from(["", "", '"', "/*"]))
def test_parsers_agree_on_expression_soup(statements, tail):
    body = " ".join(f"{head}{text};" for head, text in statements)
    assert_scanners_agree(f"fn f(a) {{ {body} }}{tail}")
    assert_scanners_agree(f"fn f(a) {{ switch (k) {{ {body} : {{ }} }} }}{tail}")


# Nested programs: each level holds a statement and opens one compound
# statement, closed after the levels inside it. A short pattern of openers
# repeats to the drawn depth. A bad program has one statement that makes
# the file fail: an unreachable statement, a jump without a target, an
# unclosed group, an odd quote, or an ``if`` without parentheses.
OPENERS = [("if (a[i]) {", "}"), ("if (c) { x = 1; } else {", "}"),
           ("if (c) { x = 1; } else if (f(d)) {", "}"), ("while ((c)) {", "}"),
           ("for (i = 0; i < n; i = i + 1) {", "}"), ("L: while (c) {", "}"),
           ("switch (k) { case 1: {", "} }"),
           ("switch (k) { case 1: { x = 1; } default: {", "} }")]
GOOD_STATEMENTS = ["x = 1;", 'y = g(a, ";");', "/* c */ z = (a[b(c)]);", "w;"]
BAD_STATEMENTS = ["return; x = 1;", "continue Z;", "x = (;", 'x = "open;', "if x { }"]


@st.composite
def nested_functions(draw, bad=False, max_depth=200):
    """``fn f(a) { ... }`` nested up to ``max_depth`` levels deep, and
    whether it is good."""
    openers = draw(st.lists(st.sampled_from(OPENERS), min_size=1, max_size=4))
    depth = draw(st.integers(0, max_depth))
    statements = draw(st.lists(st.sampled_from(GOOD_STATEMENTS), min_size=1, max_size=3))
    stmts = [statements[i % len(statements)] for i in range(depth + 1)]
    if bad:
        stmts[draw(st.integers(0, depth))] = draw(st.sampled_from(BAD_STATEMENTS))
    head = " ".join(f"{stmts[i]} {openers[i % len(openers)][0]}" for i in range(depth))
    tail = " ".join(openers[i % len(openers)][1] for i in reversed(range(depth)))
    return f"fn f(a) {{ {head} {stmts[depth]} {tail} }}", not bad


def flat(outcome):
    """A parse outcome as a flat list in preorder, each node as its class
    name and each tuple as its length, walked with an explicit stack:
    ``==`` on a deep AST would exhaust the recursion limit."""
    out, stack = [], [outcome]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            out.append(len(item))
            stack.extend(reversed(item))
        elif isinstance(item, minilang._Node):
            out.append(type(item).__name__)
            stack.extend(getattr(item, name) for name in reversed(item.__slots__))
        else:
            out.append(item)
    return out


def assert_parsers_agree_flat(source):
    assert flat(parse_outcome(minilang.parse, source)) == flat(
        parse_outcome(reference.parse, source))


def deepest(opener, closer, depth=200):
    return f"fn f(a) {{ {f'x = 1; {opener} ' * depth} x = 1; {f'{closer} ' * depth}}}", True


@settings(max_examples=60, deadline=None)
@given(st.one_of(nested_functions(), nested_functions(bad=True)), st.integers(0, 10**5))
@example(deepest(*OPENERS[2]), 10**5)
@example(deepest(*OPENERS[5]), 10**5)
@example(deepest(*OPENERS[7]), 4000)
def test_parsers_agree_on_deep_programs(program, cut):
    source, _ = program
    assert_parsers_agree_flat(source)
    assert_parsers_agree_flat(source[:cut % (len(source) + 1)])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(nested_functions(max_depth=6), nested_functions(True, 6)),
                min_size=1, max_size=60), st.integers(0, 60))
def test_parsers_agree_on_long_files(programs, duplicate):
    # f0, f1, ...; one name repeats when ``duplicate`` falls in range.
    names = [f"f{i}" for i in range(len(programs))]
    if 0 < duplicate < len(names):
        names[duplicate] = names[0]
    assert_parsers_agree_flat("\n".join(source.replace("fn f(", f"fn {name}(", 1)
                                         for (source, _), name in zip(programs, names)))


def parse_by_lexemes(source, filename):
    """``minilang.parse`` with the token path switched off: a statement
    that its lexeme does not read whole raises AssertionError."""
    with mock.patch.object(minilang, "_token_at", side_effect=AssertionError("token path")):
        return minilang.parse(source, filename)


@settings(max_examples=200, deadline=None)
@given(st.one_of(functions(), nested_functions(max_depth=20)))
def test_lexemes_read_well_formed_functions(program):
    source = program[0]
    expected = reference.parse(source, "t.mini")
    # Text whose groups nest three deep is beyond _TEXT: the token path
    # reads that statement.
    if "(a[b(c)])" in source:
        assert minilang.parse(source, "t.mini") == expected
    else:
        assert parse_by_lexemes(source, "t.mini") == expected


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.mini")), ids=lambda p: p.name)
def test_lexemes_read_the_fixtures(path):
    source = path.read_text(encoding="utf-8")
    assert parse_by_lexemes(source, path.name) == reference.parse(source, path.name)


def test_token_path_reads_only_the_statements_it_needs():
    # A ``:`` outside brackets ends a lexeme's text, so the ``if`` head and
    # the ``return`` are statements on the token path (the function head
    # is too, in parse_function); the bodies, the loop and ``y;`` are not.
    source = ("fn f(a: int) {\n  if (a ? b : c) { x; }\n"
              "  while (c) { return a ? b : c; }\n  y;\n}\n")
    with mock.patch.object(minilang._Parser, "parse_stmt_tokens", autospec=True,
                           side_effect=minilang._Parser.parse_stmt_tokens) as tokens:
        program = minilang.parse(source, "t.mini")
    assert program == reference.parse(source, "t.mini")
    assert tokens.call_count == 2


@settings(max_examples=20, deadline=None)
@given(st.lists(st.one_of(nested_functions(max_depth=60), nested_functions(True, 60)),
                min_size=1, max_size=6), st.sampled_from(["exact", "treebound"]))
def test_batch_keeps_every_good_files_record(programs, mode):
    # A bad file costs only its own record, and sets exit code 1.
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, (source, _) in enumerate(programs):
            paths.append(Path(tmp) / f"u{i}.mini")
            paths[-1].write_text(source, encoding="utf-8")
        report = Path(tmp) / "report.json"
        code = main(["analyze", "--mode", mode, *map(str, paths), "-o", str(report)])
        records = json.loads(report.read_text(encoding="utf-8"))["records"]
    assert [r["source"] for r in records] == [
        f"{path}:f" for path, (_, good) in zip(paths, programs) if good]
    assert code == (0 if all(good for _, good in programs) else 1)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.mini")), ids=lambda p: p.name)
def test_token_streams_identical_on_fixtures(path):
    source = path.read_text(encoding="utf-8")
    tokens = scan(minilang._tokenize, source)
    assert isinstance(tokens, list) and len(tokens) > 1
    assert tokens == scan(reference._tokenize, source)


@pytest.mark.parametrize("digit", ["²", "①", "٣"])
def test_unicode_digits_start_a_number(digit):
    kinds = [(t.kind, t.text) for t in minilang._tokenize(f"{digit}a.b_c", "t")]
    assert kinds == [("number", f"{digit}a.b"), ("ident", "_c"), ("eof", "")]


def test_numeric_non_digit_is_punctuation():
    kinds = [(t.kind, t.text) for t in minilang._tokenize("½x é1", "t")]
    assert kinds == [("punct", "½"), ("ident", "x"), ("ident", "é1"), ("eof", "")]


class TestPositions:
    def test_unterminated_block_comment_reports_its_opening(self):
        with pytest.raises(MiniLangSyntaxError) as err:
            minilang.parse("fn f() {\n  x; /* never\n  closed }\n", "t.mini")
        assert error_of(err.value) == (
            "MiniLangSyntaxError", "t.mini:2:6: unterminated block comment", 2, 6)

    def test_unterminated_string_reports_its_opening_quote(self):
        with pytest.raises(MiniLangSyntaxError) as err:
            minilang.parse('fn f() {\n  s = "abc\n  def;\n}\n', "t.mini")
        assert error_of(err.value) == (
            "MiniLangSyntaxError", "t.mini:2:7: unterminated string literal", 2, 7)

    def test_statement_after_multiline_block_comment(self):
        fn, = minilang.parse("fn f() {\n  /* a\n  b */ x;\n  y;\n}").functions
        assert [(s.text, s.line, s.col) for s in fn.body] == [
            ("x", 3, 8), ("y", 4, 3)]

    def test_statement_after_multiline_string(self):
        fn, = minilang.parse('fn f() {\n  s = "a\nb"; z;\n  y;\n}').functions
        assert [(s.line, s.col) for s in fn.body] == [(2, 3), (3, 5), (4, 3)]

    def test_carriage_return_counts_as_a_column(self):
        source = "fn f() {\r\n  x;\r\n  if (c) {\r y; }\r\n}\r\n"
        fn, = minilang.parse(source).functions
        x, branch = fn.body
        assert (x.line, x.col) == (2, 3)
        assert (branch.line, branch.col) == (3, 3)
        (y,) = branch.then
        assert (y.line, y.col) == (3, 13)
        assert_scanners_agree(source)

    def test_end_of_file_error_is_placed_after_the_last_character(self):
        with pytest.raises(MiniLangSyntaxError) as err:
            minilang.parse("fn f() {\r\n  x;\r\n", "t.mini")
        assert (err.value.line, err.value.col) == (3, 1)


# Arbitrary text through both frontends: any outcome but a CrossCCError is
# a traceback for the user. Deep nesting has tests of its own above and in
# test_cli.py.
FRONTEND_WORDS = ["fn", "if", "while", "switch", "case", "digraph", "->", "start",
                  "exit", "weight", "tree", "addvirtual", "=", "true", "false",
                  "1/2", "-1", '"', "{", "}", "(", ")", "[", "]", ";", ":", ",",
                  "//", "/*", "*/", "\n", " ", "a", "b"]
ARBITRARY_TEXT = st.one_of(
    st.text(max_size=200),
    st.lists(st.one_of(st.sampled_from(FRONTEND_WORDS), st.characters()),
             max_size=60).map("".join).filter(lambda s: len(s) <= 200))


@pytest.mark.parametrize("frontend", [minilang.parse, parse_dot], ids=["minilang", "dot"])
@settings(max_examples=300, deadline=None)
@given(text=ARBITRARY_TEXT)
@example(text="digraph g { start = a; exit = b; a -> b; }")
@example(text="fn f() { while (c) { if (d) { x; } } }")
def test_arbitrary_text_gives_a_result_or_a_crosscc_error(frontend, text):
    try:
        frontend(text)
    except CrossCCError:
        pass
