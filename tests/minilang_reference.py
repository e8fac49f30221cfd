"""The character-by-character MiniLang scanner that the one-pattern scanner
in ``crosscc.minilang`` replaced, kept verbatim as a reference oracle for
``test_scanner.py``. Nothing under ``src/`` imports it."""

from dataclasses import dataclass

from crosscc.errors import MiniLangSyntaxError
from crosscc.minilang import KEYWORDS


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
