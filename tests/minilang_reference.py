"""Reference oracles for ``test_scanner.py``, kept verbatim from earlier
versions of ``crosscc.minilang``. Nothing under ``src/`` imports this module.

* ``_tokenize``: the character-by-character scanner that the one-pattern
  scanner replaced.
* ``parse``: the parser that read a full token list from ``_tokenize``
  before the parser learned to scan on demand and skip expression text.
  It builds the same AST classes as ``crosscc.minilang``.
"""

from dataclasses import dataclass
from typing import Tuple

from crosscc.errors import DuplicateFunction, MiniLangSyntaxError, UnresolvedLabel
from crosscc.minilang import (
    KEYWORDS,
    Block,
    Break,
    Continue,
    ExprStmt,
    For,
    Function,
    If,
    Labeled,
    Program,
    Return,
    Switch,
    SwitchCase,
    While,
    _line_starts,
    _position,
)


@dataclass(frozen=True)
class Token:
    kind: str  # ident | keyword | number | string | punct | eof
    text: str
    line: int
    col: int
    start: int
    end: int


def _tokenize(source: str, filename: str):
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def bump(count):
        nonlocal i, line, col
        for _ in range(count):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            bump(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                bump(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            bump(2)
            while i < n and not source.startswith("*/", i):
                bump(1)
            if i >= n:
                raise MiniLangSyntaxError("unterminated block comment",
                                          start_line, start_col, filename)
            bump(2)
            continue
        start = i
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            while i < n and (source[i].isalnum() or source[i] == "_"):
                bump(1)
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, start_line, start_col, start, i))
            continue
        if ch.isdigit():
            while i < n and (source[i].isalnum() or source[i] == "."):
                bump(1)
            tokens.append(Token("number", source[start:i], start_line, start_col, start, i))
            continue
        if ch == '"':
            bump(1)
            while i < n and source[i] != '"':
                if source[i] == "\\" and i + 1 < n:
                    bump(2)
                else:
                    bump(1)
            if i >= n:
                raise MiniLangSyntaxError("unterminated string literal",
                                          start_line, start_col, filename)
            bump(1)
            tokens.append(Token("string", source[start:i], start_line, start_col, start, i))
            continue
        # Any other single character is punctuation; expression text is
        # recovered by raw source slices, so operator granularity is moot.
        bump(1)
        tokens.append(Token("punct", ch, start_line, start_col, start, i))
    tokens.append(Token("eof", "", line, col, n, n))
    return tokens


# --- Parser ------------------------------------------------------------

class _Parser:
    def __init__(self, source: str, filename: str):
        self.source = source
        self.filename = filename
        self.tokens = _tokenize(source, filename)
        self.line_starts = _line_starts(source)
        self.pos = 0

    def peek(self, offset=0) -> Token:
        # The eof token is last and next() never passes it; offset 1 is
        # only asked for behind an identifier.
        return self.tokens[self.pos + offset]

    def at(self, tok: Token) -> Tuple[int, int]:
        """The ``(line, col)`` of a token's first character."""
        return _position(self.line_starts, tok.start)

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise MiniLangSyntaxError(message, *self.at(tok), self.filename)

    def expect(self, text) -> Token:
        tok = self.peek()
        if tok.text != text:
            got = tok.text or "end of file"
            self.error(f"expected {text!r}, got {got!r}")
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.error(f"expected identifier, got {tok.text!r}")
        return self.next()

    def capture_parenthesized(self) -> str:
        """Consume ``( ... )`` with balanced nesting; return the inner text."""
        self.expect("(")
        start = self.peek()
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                self.error("unbalanced parenthesis")
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                if depth == 0:
                    self.next()
                    return self.source[start.start:tok.start].strip()
                depth -= 1
            self.next()

    def capture_until(self, *stops: str) -> str:
        """Consume tokens (paren-balanced) up to one of the stop puncts, exclusive."""
        start = self.peek()
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                self.error(f"expected {' or '.join(map(repr, stops))} before end of file")
            if depth == 0 and tok.text in stops:
                return self.source[start.start:tok.start].strip()
            if tok.text in "([":
                depth += 1
            elif tok.text in ")]":
                if depth == 0:
                    self.error(f"unbalanced {tok.text!r}")
                depth -= 1
            self.next()

    # Grammar ----------------------------------------------------------

    def parse_program(self) -> Program:
        functions = []
        names = {}
        while self.peek().kind != "eof":
            fn = self.parse_function()
            if fn.name in names:
                raise DuplicateFunction(
                    f"function {fn.name!r} already defined at line {names[fn.name]}",
                    fn.line, fn.col, self.filename)
            names[fn.name] = fn.line
            functions.append(fn)
        program = Program(functions=tuple(functions), filename=self.filename)
        for fn in program.functions:
            _check_labels(fn, self.filename)
        return program

    def parse_function(self) -> Function:
        tok = self.peek()
        if tok.text != "fn":
            self.error(f"expected 'fn', got {tok.text!r}")
        self.next()
        name = self.expect_ident()
        params = self.capture_parenthesized()
        body = self.parse_block()
        return Function(name.text, params, body, *self.at(tok))

    def parse_block(self) -> Block:
        self.expect("{")
        stmts = []
        while self.peek().text != "}":
            if self.peek().kind == "eof":
                self.error("expected '}' before end of file")
            stmts.append(self.parse_stmt())
        self.expect("}")
        return Block(stmts=tuple(stmts))

    def parse_stmt(self):
        tok = self.peek()
        if tok.text == "if":
            return self.parse_if()
        if tok.text == "while":
            return self.parse_while()
        if tok.text == "for":
            return self.parse_for()
        if tok.text == "switch":
            return self.parse_switch()
        if tok.text == "break":
            self.next()
            label = self.next().text if self.peek().kind == "ident" else None
            self.expect(";")
            return Break(label, *self.at(tok))
        if tok.text == "continue":
            self.next()
            label = self.next().text if self.peek().kind == "ident" else None
            self.expect(";")
            return Continue(label, *self.at(tok))
        if tok.text == "return":
            self.next()
            value = None
            if self.peek().text != ";":
                value = self.capture_until(";")
            self.expect(";")
            return Return(value, *self.at(tok))
        if tok.kind == "keyword":
            self.error(f"unexpected keyword {tok.text!r}")
        if tok.kind == "ident" and self.peek(1).text == ":":
            self.next()
            self.expect(":")
            stmt = self.parse_stmt()
            return Labeled(tok.text, stmt, *self.at(tok))
        if tok.text == "{":
            self.error("bare blocks are not statements; braces follow a control keyword")
        text = self.capture_until(";")
        if not text:
            self.error("empty statement")
        self.expect(";")
        return ExprStmt(text, *self.at(tok))

    def parse_if(self) -> If:
        tok = self.expect("if")
        cond = self.capture_parenthesized()
        then = self.parse_block()
        orelse = None
        if self.peek().text == "else":
            self.next()
            if self.peek().text == "if":
                nested = self.parse_if()
                orelse = Block(stmts=(nested,))
            else:
                orelse = self.parse_block()
        return If(cond, then, orelse, *self.at(tok))

    def parse_while(self) -> While:
        tok = self.expect("while")
        cond = self.capture_parenthesized()
        body = self.parse_block()
        return While(cond, body, *self.at(tok))

    def parse_for(self) -> For:
        tok = self.expect("for")
        self.expect("(")
        init = self.capture_until(";") or None
        self.expect(";")
        cond = self.capture_until(";") or None
        self.expect(";")
        step = self.capture_until(")") or None
        self.expect(")")
        body = self.parse_block()
        return For(init, cond, step, body, *self.at(tok))

    def parse_switch(self) -> Switch:
        tok = self.expect("switch")
        scrutinee = self.capture_parenthesized()
        self.expect("{")
        cases = []
        default = None
        while self.peek().text != "}":
            branch = self.peek()
            if branch.text == "case":
                self.next()
                label = self.capture_until(":")
                if not label:
                    self.error("case needs a label expression")
                self.expect(":")
                body = self.parse_block()
                cases.append(SwitchCase(label, body, *self.at(branch)))
            elif branch.text == "default":
                self.next()
                self.expect(":")
                if default is not None:
                    self.error("duplicate default", branch)
                default = self.parse_block()
            else:
                self.error(f"expected 'case' or 'default', got {branch.text!r}")
        self.expect("}")
        if not cases and default is None:
            self.error("switch needs at least one case or a default", tok)
        return Switch(scrutinee, tuple(cases), default, *self.at(tok))


def _check_labels(fn: Function, filename: str) -> None:
    """Resolve break/continue targets.

    Unlabeled break needs an enclosing loop or switch, unlabeled continue an
    enclosing loop, and labeled forms must name an enclosing labeled loop.
    """

    def walk(stmt, labels, loop_depth, switch_depth):
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                walk(s, labels, loop_depth, switch_depth)
        elif isinstance(stmt, If):
            walk(stmt.then, labels, loop_depth, switch_depth)
            if stmt.orelse:
                walk(stmt.orelse, labels, loop_depth, switch_depth)
        elif isinstance(stmt, (While, For)):
            walk(stmt.body, labels, loop_depth + 1, switch_depth)
        elif isinstance(stmt, Switch):
            for case in stmt.cases:
                walk(case.body, labels, loop_depth, switch_depth + 1)
            if stmt.default:
                walk(stmt.default, labels, loop_depth, switch_depth + 1)
        elif isinstance(stmt, Labeled):
            inner_labels = labels
            if isinstance(stmt.stmt, (While, For)):
                inner_labels = {**labels, stmt.label: "loop"}
            walk(stmt.stmt, inner_labels, loop_depth, switch_depth)
        elif isinstance(stmt, Break):
            if stmt.label is not None:
                if labels.get(stmt.label) != "loop":
                    raise UnresolvedLabel(
                        f"break label {stmt.label!r} names no enclosing labeled loop",
                        stmt.line, stmt.col, filename)
            elif loop_depth == 0 and switch_depth == 0:
                raise UnresolvedLabel(
                    "break outside of loop or switch", stmt.line, stmt.col, filename)
        elif isinstance(stmt, Continue):
            if stmt.label is not None:
                if labels.get(stmt.label) != "loop":
                    raise UnresolvedLabel(
                        f"continue label {stmt.label!r} names no enclosing labeled loop",
                        stmt.line, stmt.col, filename)
            elif loop_depth == 0:
                raise UnresolvedLabel(
                    "continue outside of loop", stmt.line, stmt.col, filename)

    walk(fn.body, {}, 0, 0)


def parse(source: str, filename: str = "<input>") -> Program:
    """Parse MiniLang source into a Program, or raise a positioned diagnostic."""
    return _Parser(source, filename).parse_program()
