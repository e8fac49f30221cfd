"""MiniLang: the parsing frontend, an imperative language of nine statement keywords.

Functions look like ``fn name(args) { ... }``. Statements: if/else, while,
for, switch/case/default, break, continue, return, labels, and expression
statements. Expressions are opaque text; the analyzer never evaluates a
condition, it only needs the branching structure. Braces are mandatory
around every body, including case bodies.

The grammar in EBNF form ships in docs/minilang.md.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import partial
from types import GeneratorType
from typing import NamedTuple, Optional, Tuple

from .errors import DuplicateFunction, MiniLangSyntaxError, UnresolvedLabel

KEYWORDS = {
    "fn", "if", "else", "while", "for", "switch",
    "case", "default", "break", "continue", "return",
}


class Token(NamedTuple):
    kind: str  # ident | keyword | number | string | punct | eof
    text: str
    start: int
    end: int


# The lexical rules, each written once and shared by every pattern below:
# whitespace, a comment, a string literal. The repetitions are possessive
# (Python 3.11+): a match never gives back a comment or a string it has
# read, so a pattern that skips them cannot stop inside one.
_SPACE = r"[ \t\r\n]++"
_COMMENT = r"//[^\n]*+|/\*.*?\*/"
_STRING = r'"[^"\\]*+(?:\\.[^"\\]*+)*+"'
_BLANKS = rf"(?:{_SPACE}|{_COMMENT})*+"

# Word and number tails; the token pattern uses them after an ASCII start,
# _tokenize after a non-ASCII one, which str.isalpha/isdigit classify.
_IDENT_TAIL = r"\w*"
_NUMBER_TAIL = r"[^\W_]*(?:\.[^\W_]*)*"
_TOKEN = re.compile(rf"""
    {_BLANKS}                                    # skipped: whitespace, comments
    (?: (?P<ident>[A-Za-z_]{_IDENT_TAIL})
      | (?P<number>[0-9]{_NUMBER_TAIL})
      | (?P<string>{_STRING})
      | (?P<comment>/\*)                           # unterminated block comment
      | (?P<quote>")                               # unterminated string literal
      | (?P<eof>\Z)
      | (?P<punct>[\x00-\x7f])
      | (?P<other>.) )
""", re.VERBOSE | re.DOTALL)
# Token(...) wraps this call in a Python-level __new__; _token_at, run once
# per token, builds the same tuple without that extra frame.
_new_token = tuple.__new__
_TAILS = {"ident": re.compile(_IDENT_TAIL), "number": re.compile(_NUMBER_TAIL)}
_UNTERMINATED = {"comment": "unterminated block comment",
                 "quote": "unterminated string literal"}


def _line_starts(source: str):
    return [0, *(m.end() for m in re.finditer("\n", source))]


def _position(line_starts, offset: int) -> Tuple[int, int]:
    """1-based ``(line, col)`` of a source offset. Every character but
    ``\n`` is one column, ``\t`` and ``\r`` included."""
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def _token_at(source: str, pos: int, filename: str) -> Token:
    """The token at or after ``pos``, past any whitespace and comments."""
    m = _TOKEN.match(source, pos)
    kind = m.lastgroup
    start, end = m.span(kind)
    text = m.group(kind)
    if kind == "ident":
        if text in KEYWORDS:
            kind = "keyword"
    elif kind == "other":
        # A non-ASCII start: a letter starts an identifier, a digit (``²``
        # too) a number, and anything else is punctuation like every other
        # single character. Expression text is recovered by raw source
        # slices, so operator granularity is moot.
        kind = "ident" if text.isalpha() else "number" if text.isdigit() else "punct"
        if kind != "punct":
            end = _TAILS[kind].match(source, end).end()
            text = source[start:end]
    elif kind in _UNTERMINATED:
        raise MiniLangSyntaxError(_UNTERMINATED[kind],
                                  *_position(_line_starts(source), start), filename)
    return _new_token(Token, (kind, text, start, end))


def _tokenize(source: str, filename: str, pos: int = 0):
    """Every token from ``pos`` to the end, eof included."""
    tokens = []
    while True:
        tok = _token_at(source, pos, filename)
        tokens.append(tok)
        if tok.kind == "eof":
            return tokens
        pos = tok.end


# Expression text is opaque: only ``; : ( ) [ ]`` outside strings and
# comments delimit it. _TEXT reads it in one match: runs of other
# characters, whole strings and comments (a ``/`` that starts neither is
# text), and ``(...)``/``[...]`` groups, closed by their own kind of
# bracket, up to two levels deep. It stops before a delimiter, an
# unterminated string or comment, or a group it cannot close; the parser's
# token path takes over from there.
_OPAQUE = rf"{_STRING}|{_COMMENT}|/(?!\*)"


def _groups(inner: str) -> str:
    return rf"\((?:{inner})*+\)|\[(?:{inner})*+\]"


_NESTED = rf'[^()\[\]"/]++|{_OPAQUE}'
_GROUP = _groups(f"{_NESTED}|{_groups(_NESTED)}")
_TEXT = rf'(?:[^;:()\[\]"/]++|{_OPAQUE}|{_GROUP})*+'
# Whitespace and comments alone: what may stand between a label and its ``:``.
_SKIP_BLANKS = re.compile(_BLANKS, re.DOTALL)

_KEYWORD = "|".join(sorted(KEYWORDS))
# One lexeme, the parser's first try at each step: a ``}``, a ``{``, an
# ``else``, the end of the file, or a statement's opening up to its end. That
# opening is an optional keyword (``fn name(``, or a control keyword with
# its ``(``), then _TEXT, then ``;``, ``:`` or ``)``; after ``:`` or
# ``)``, the ``{`` of a body is taken along. Text that starts with another
# keyword matches nothing.
_LEXEME = re.compile(rf"""
    {_BLANKS}(?P<at>)
    (?: (?P<close>\}}) | (?P<open>\{{) | (?P<else>else\b) | (?P<eof>\Z)
      | (?: (?P<head>if|while|for|switch
                    |fn\b{_BLANKS}(?P<name>[A-Za-z_][A-Za-z0-9_]*+))\b{_BLANKS}\(
          | (?P<kw>return|break|continue|case|default)\b
          | (?!(?:{_KEYWORD})\b) )
        {_BLANKS}(?P<text>{_TEXT})
        (?P<end>;|[:)](?:{_BLANKS}\{{)?) )
""", re.VERBOSE | re.DOTALL)
_lexeme = _LEXEME.match


def _plain(m, last: str) -> bool:
    """Whether lexeme ``m`` is text led by no keyword, ending in ``last``."""
    return (m is not None and m.lastgroup == "end" and m["end"][-1] == last
            and m["head"] is None and m["kw"] is None)


# A label or a jump target, with the blanks after it: ASCII only, so that
# any other word is left to the token path.
_WORD = re.compile(rf"([A-Za-z_][A-Za-z0-9_]*+){_BLANKS}", re.DOTALL)


# --- AST ---------------------------------------------------------------

class _Node:
    """An AST node, built once and never changed. Its fields are its
    ``__slots__``, in constructor order. Nodes are equal when they are of
    one class and their fields are equal: a ``Break`` never equals a
    ``Continue``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._fields() == other._fields()

    def __hash__(self):
        return hash((self.__class__, self._fields()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__name__}({fields})"


class ExprStmt(_Node):
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text, self.line, self.col = text, line, col


class Block(_Node):
    __slots__ = ("stmts",)

    def __init__(self, stmts: tuple):
        self.stmts = stmts


class If(_Node):
    __slots__ = ("cond", "then", "orelse", "line", "col")

    def __init__(self, cond: str, then: Block, orelse: Optional[Block], line: int, col: int):
        self.cond, self.then, self.orelse, self.line, self.col = cond, then, orelse, line, col


class While(_Node):
    __slots__ = ("cond", "body", "line", "col")

    def __init__(self, cond: str, body: Block, line: int, col: int):
        self.cond, self.body, self.line, self.col = cond, body, line, col


class For(_Node):
    __slots__ = ("init", "cond", "step", "body", "line", "col")

    def __init__(self, init: Optional[str], cond: Optional[str], step: Optional[str],
                 body: Block, line: int, col: int):
        self.init, self.cond, self.step = init, cond, step
        self.body, self.line, self.col = body, line, col


class SwitchCase(_Node):
    __slots__ = ("label", "body", "line", "col")

    def __init__(self, label: str, body: Block, line: int, col: int):
        self.label, self.body, self.line, self.col = label, body, line, col


class Switch(_Node):
    __slots__ = ("scrutinee", "cases", "default", "line", "col")

    def __init__(self, scrutinee: str, cases: Tuple[SwitchCase, ...],
                 default: Optional[Block], line: int, col: int):
        self.scrutinee, self.cases, self.default = scrutinee, cases, default
        self.line, self.col = line, col


class Break(_Node):
    __slots__ = ("label", "line", "col")

    def __init__(self, label: Optional[str], line: int, col: int):
        self.label, self.line, self.col = label, line, col


class Continue(_Node):
    __slots__ = ("label", "line", "col")

    def __init__(self, label: Optional[str], line: int, col: int):
        self.label, self.line, self.col = label, line, col


class Return(_Node):
    __slots__ = ("value", "line", "col")

    def __init__(self, value: Optional[str], line: int, col: int):
        self.value, self.line, self.col = value, line, col


class Labeled(_Node):
    __slots__ = ("label", "stmt", "line", "col")

    def __init__(self, label: str, stmt: object, line: int, col: int):
        self.label, self.stmt, self.line, self.col = label, stmt, line, col


class Function(_Node):
    __slots__ = ("name", "params", "body", "line", "col")

    def __init__(self, name: str, params: str, body: Block, line: int, col: int):
        self.name, self.params, self.body, self.line, self.col = name, params, body, line, col


class Program(_Node):
    __slots__ = ("functions", "filename")

    def __init__(self, functions: Tuple[Function, ...], filename: str = "<input>"):
        self.functions, self.filename = functions, filename


# --- Parser ------------------------------------------------------------

def trampoline(gen):
    """Run ``gen``, which yields a generator where it would call a nested
    parse or lowering: that one runs to its end first, and its return value
    is sent back. Nesting grows this list, not the Python stack."""
    stack = [gen]
    value = None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


# Marks a switch on the parser's stack of jump targets; a loop stands there
# as its label, or None.
_SWITCH = object()
# The compound statements whose head is one parenthesized text.
_COMPOUND = ("if", "while", "switch")


class _Parser:
    """Recursive descent from a character offset, ``pos``. Each step is
    first one ``_LEXEME`` match: a ``}``, an ``else``, a simple statement or
    a compound statement's head. A statement or head that its match does
    not read whole (see docs/minilang.md) is read on the token path: ``scan``
    makes the token at ``pos`` the current one, ``tok``, and later tokens,
    expression text included, are scanned one by one on demand. The next
    statement is again one match. Every diagnostic comes from the token
    path. A compound statement's parse is a generator, run by
    ``trampoline``.

    A ``break``/``continue`` is checked as it is read against ``targets``,
    the enclosing loops and switches. A jump without a target waits in
    ``unresolved``; the first raises once the file has parsed, after any
    other error, with a ``default`` body ranked after its switch's cases.
    """

    def __init__(self, source: str, filename: str):
        self.source = source
        self.filename = filename
        self.line_starts = _line_starts(source)
        self.at = partial(_position, self.line_starts)  # (line, col) of an offset
        self.pos = 0
        self.tok = None
        self.targets = []
        self.unresolved = []

    # Token path -------------------------------------------------------

    def scan(self) -> Token:
        """Start the token path: the token at ``pos`` becomes ``tok``."""
        self.tok = _token_at(self.source, self.pos, self.filename)
        return self.tok

    def next(self) -> Token:
        tok = self.tok
        if tok.kind != "eof":
            self.tok = _token_at(self.source, tok.end, self.filename)
        return tok

    def open_body(self) -> None:
        """End the token path at a body's ``{``: ``pos`` moves past it."""
        self.expect("{")
        self.pos = self.tok.start

    def scan_rest(self) -> None:
        """Raise the first lexical error from the current token on, if any:
        a lexical error anywhere in a file is reported before a syntax error."""
        _tokenize(self.source, self.filename, self.tok.start)

    def error(self, message, offset=None):
        self.scan_rest()
        raise MiniLangSyntaxError(message, *self.at(self.tok.start if offset is None else offset),
                                  self.filename)

    def expect(self, text) -> Token:
        tok = self.tok
        if tok.text != text:
            got = tok.text or "end of file"
            self.error(f"expected {text!r}, got {got!r}")
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.tok
        if tok.kind != "ident":
            self.error(f"expected identifier, got {tok.text!r}")
        return self.next()

    def capture_parenthesized(self) -> str:
        """Consume ``( ... )`` with balanced nesting; return the inner text."""
        self.expect("(")
        start = self.tok.start
        depth = 0
        while True:
            tok = self.tok
            if tok.kind == "eof":
                self.error("unbalanced parenthesis")
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                if depth == 0:
                    self.next()
                    return self.source[start:tok.start].strip()
                depth -= 1
            self.next()

    def capture_until(self, stop: str, empty: Optional[str] = None) -> str:
        """Consume the text (paren-balanced) up to ``stop`` and ``stop``
        itself; return the text. Empty text is the error ``empty`` at
        ``stop``, when given."""
        start = self.tok.start
        depth = 0
        while True:
            tok = self.tok
            if tok.kind == "eof":
                self.error(f"expected {stop!r} before end of file")
            if depth == 0 and tok.text == stop:
                text = self.source[start:tok.start].strip()
                if empty and not text:
                    self.error(empty)
                self.next()
                return text
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
        while True:
            m = _lexeme(self.source, self.pos)
            if m is not None and m.lastgroup == "eof":
                break
            fn = trampoline(self.parse_function(m))
            if fn.name in names:
                self.scan()
                self.scan_rest()
                raise DuplicateFunction(
                    f"function {fn.name!r} already defined at line {names[fn.name]}",
                    fn.line, fn.col, self.filename)
            names[fn.name] = fn.line
            functions.append(fn)
        if self.unresolved:
            raise self.unresolved[0]
        return Program(functions=tuple(functions), filename=self.filename)

    def parse_function(self, m):
        end = m and m.lastgroup == "end" and m["end"]
        name = end and end[0] == ")" and end[-1] == "{" and m["name"]
        if name and name not in KEYWORDS:
            params, start = m["text"].strip(), m.start("at")
            self.pos = m.end()
        else:
            tok = self.scan()
            start = tok.start
            if tok.text != "fn":
                self.error(f"expected 'fn', got {tok.text!r}")
            self.next()
            name = self.expect_ident().text
            params = self.capture_parenthesized()
            self.open_body()
        body = yield from self.parse_block_body()
        return Function(name, params, body, *self.at(start))

    def parse_block_body(self):
        """The statements after a block's ``{``, and its ``}``."""
        stmts = []
        while True:
            m = _lexeme(self.source, self.pos)
            if m is not None:
                kind = m.lastgroup
                if kind == "close":
                    self.pos = m.end()
                    return Block(tuple(stmts))
                if kind == "eof":
                    self.scan()
                    self.error("expected '}' before end of file")
            stmt = self.parse_stmt(m)
            if stmt.__class__ is GeneratorType:
                stmt = yield stmt
            stmts.append(stmt)

    def parse_stmt(self, m, label: Optional[str] = None):
        """The statement at ``pos``, or a generator that parses it, from its
        lexeme ``m`` when that reads it whole; ``label`` is the one it
        carries, if any, which makes a loop a target of labeled jumps."""
        if m is not None and m.lastgroup == "end":
            head, kw, text, end = m.group("head", "kw", "text", "end")
            start = m.start("at")
            if head is not None:
                if head == "for":
                    # The condition and the step are one more lexeme each:
                    # plain text to ``;``, then to ``)`` and the body's ``{``.
                    cond = _lexeme(self.source, m.end()) if end == ";" else None
                    step = _lexeme(self.source, cond.end()) if _plain(cond, ";") else None
                    if _plain(step, "{") and step["end"][0] == ")":
                        self.pos = step.end()
                        texts = [t.strip() or None for t in (text, cond["text"], step["text"])]
                        return self.compound(head, texts, label, start)
                elif end[0] == ")" and end[-1] == "{" and head in _COMPOUND:
                    self.pos = m.end()
                    return self.compound(head, (text.strip(),), label, start)
            elif kw is None:
                if end == ";":
                    text = text.strip()
                    if text:
                        self.pos = m.end()
                        return ExprStmt(text, *self.at(start))
                elif end == ":" and (word := _WORD.fullmatch(text)):
                    self.pos = m.end()
                    return self.parse_labeled(word[1], start)
            elif end == ";":
                if kw == "return":
                    self.pos = m.end()
                    return Return(text.strip() if text else None, *self.at(start))
                if kw == "break" or kw == "continue":
                    word = _WORD.fullmatch(text)
                    if not text or word and word[1] not in KEYWORDS:
                        self.pos = m.end()
                        return self.jump(kw, word and word[1], start)
        return self.parse_stmt_tokens(label)

    def parse_stmt_tokens(self, label: Optional[str]):
        """``parse_stmt`` on the token path."""
        tok = self.scan()
        start = tok.start
        if tok.kind == "keyword":
            text = tok.text
            if text == "for" or text in _COMPOUND:
                self.next()
                if text == "for":
                    self.expect("(")
                    texts = [self.capture_until(stop) or None for stop in (";", ";", ")")]
                else:
                    texts = [self.capture_parenthesized()]
                self.open_body()
                return self.compound(text, texts, label, start)
            if text == "break" or text == "continue":
                self.next()
                target = self.next().text if self.tok.kind == "ident" else None
                self.expect(";")
                node = self.jump(text, target, start)
            elif text == "return":
                self.next()
                bare = self.tok.text == ";"
                value = self.capture_until(";")
                node = Return(None if bare else value, *self.at(start))
            else:
                self.error(f"unexpected keyword {text!r}")
        else:
            if tok.kind == "ident":
                colon = _SKIP_BLANKS.match(self.source, tok.end).end()
                if self.source.startswith(":", colon):
                    self.pos = colon + 1
                    return self.parse_labeled(tok.text, start)
            if tok.text == "{":
                self.error("bare blocks are not statements; braces follow a control keyword")
            node = ExprStmt(self.capture_until(";", "empty statement"), *self.at(start))
        self.pos = self.tok.start
        return node

    def parse_labeled(self, label: str, start: int):
        """The statement after ``label`` and its ``:``, which carries the
        label as its own; a chain of labels nests through the trampoline."""
        stmt = self.parse_stmt(_lexeme(self.source, self.pos), label)
        if stmt.__class__ is GeneratorType:
            stmt = yield stmt
        return Labeled(label, stmt, *self.at(start))

    def jump(self, kind: str, label: Optional[str], start: int):
        """A ``break`` or ``continue`` to ``label``, or to the nearest target
        when None; one without a target joins ``unresolved``."""
        if label is not None:
            resolved = label in self.targets
            message = f"{kind} label {label!r} names no enclosing labeled loop"
        elif kind == "break":
            resolved = bool(self.targets)
            message = "break outside of loop or switch"
        else:
            resolved = any(target is not _SWITCH for target in self.targets)
            message = "continue outside of loop"
        if not resolved:
            self.unresolved.append(UnresolvedLabel(message, *self.at(start), self.filename))
        return (Break if kind == "break" else Continue)(label, *self.at(start))

    def compound(self, kw: str, texts, label: Optional[str], start: int):
        """The generator that parses the body of the compound statement
        ``kw`` at ``start``, after its head's ``texts``."""
        if kw == "if":
            return self.parse_if(*texts, start)
        if kw == "switch":
            return self.parse_switch(*texts, start)
        return self.parse_loop(texts, label, start)

    def parse_if(self, cond: str, start: int):
        """An ``if``; an ``else if`` is the ``if`` alone in an ``else``
        block, parsed through the trampoline."""
        then = yield from self.parse_block_body()
        orelse = None
        m = _lexeme(self.source, self.pos)
        if m is not None and m.lastgroup == "else":
            self.pos = m.end()
            m = _lexeme(self.source, self.pos)
            if m is not None and m.lastgroup == "open":
                self.pos = m.end()
                orelse = yield from self.parse_block_body()
            elif m is not None and m["head"] == "if" or self.scan().text == "if":
                orelse = Block(((yield self.parse_stmt(m)),))
            else:  # raises: a ``{`` here was the lexeme's ``open`` above
                self.expect("{")
        return If(cond, then, orelse, *self.at(start))

    def parse_loop(self, texts, label: Optional[str], start: int):
        """A ``while`` (one head text) or a ``for`` (three), a target of
        jumps in its body."""
        self.targets.append(label)
        body = yield from self.parse_block_body()
        self.targets.pop()
        return (While if len(texts) == 1 else For)(*texts, body, *self.at(start))

    def parse_switch(self, scrutinee: str, start: int):
        self.targets.append(_SWITCH)
        cases = []
        default = None
        deferred = []  # unresolved jumps in the default body
        while True:
            m = _lexeme(self.source, self.pos)
            kind = m and m.lastgroup
            if kind == "close":
                self.pos = m.end()
                break
            what = kind == "end" and m["end"][0] == ":" and m["end"][-1] == "{" and m["kw"]
            if what == "case" and (label := m["text"].strip()):
                branch = m.start("at")
                self.pos = m.end()
            elif what == "default" and not m["text"] and default is None:
                branch = m.start("at")
                self.pos = m.end()
            else:
                tok = self.scan()
                branch, what = tok.start, tok.text
                if what == "case":
                    self.next()
                    label = self.capture_until(":", "case needs a label expression")
                elif what == "default":
                    self.next()
                    self.expect(":")
                    if default is not None:
                        self.error("duplicate default", branch)
                else:
                    self.error(f"expected 'case' or 'default', got {what!r}")
                self.open_body()
            if what == "case":
                body = yield from self.parse_block_body()
                cases.append(SwitchCase(label, body, *self.at(branch)))
            else:
                first = len(self.unresolved)
                default = yield from self.parse_block_body()
                deferred = self.unresolved[first:]
                del self.unresolved[first:]
        self.targets.pop()
        self.unresolved += deferred
        if not cases and default is None:
            self.scan()
            self.error("switch needs at least one case or a default", start)
        return Switch(scrutinee, tuple(cases), default, *self.at(start))


def parse(source: str, filename: str = "<input>") -> Program:
    """Parse MiniLang source into a Program, or raise a positioned diagnostic."""
    return _Parser(source, filename).parse_program()
