"""Reference oracle for ``test_dot.py``, kept verbatim from an earlier
version of ``crosscc.dot``. Nothing under ``src/`` imports this module.

* ``_tokenize``: the scanner that matched one token or whitespace run at a
  time and counted line ends only in whitespace.
* ``_DotParser`` and ``parse_dot``: the parser that read its token list,
  taking any token where a name belongs, and parsed every weight string
  into a fresh ``Fraction``.

Both build the same ``DotGraphDoc`` as ``crosscc.dot``.
"""

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from crosscc.dot import DotGraphDoc
from crosscc.errors import DotSyntaxError
from crosscc.graph import ONE, ZERO, WeightedDigraph, as_weight

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<arrow>->)
  | (?P<punct>[{}\[\];=,])
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<word>(?:(?!->)[^\s{}\[\];=,"])+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str, filename: Optional[str]):
    tokens = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DotSyntaxError(f"unexpected character {text[pos]!r}", line,
                                 None, filename)
        pos = m.end()
        chunk = m.group(0)
        if m.lastgroup == "ws":
            line += chunk.count("\n")
            continue
        tokens.append((chunk, line))
    tokens.append(("", line))
    return tokens


def _unquote(text: str) -> str:
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return text


class _DotParser:
    def __init__(self, text: str, filename: Optional[str] = None):
        self.tokens = _tokenize(text, filename)
        self.filename = filename
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def line(self):
        return self.tokens[self.pos][1]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "":
            self.pos += 1
        return tok[0]

    def expect(self, text):
        got = self.peek()
        if got != text:
            raise DotSyntaxError(f"expected {text!r}, got {got or 'end of input'!r}",
                                 self.line(), None, self.filename)
        return self.next()

    def parse(self) -> DotGraphDoc:
        if self.peek() != "digraph":
            raise DotSyntaxError("input must begin with 'digraph'", self.line(),
                                 None, self.filename)
        self.next()
        name = "g"
        if self.peek() != "{":
            name = _unquote(self.next())
        self.expect("{")

        node_ids: Dict[str, int] = {}
        node_names: List[str] = []
        arcs: List[Tuple[int, int, Fraction, bool]] = []
        graph_attrs: Dict[str, str] = {}
        duplicates: List[Tuple[str, str]] = []
        seen_pairs = set()

        def intern(node: str) -> int:
            if node not in node_ids:
                node_ids[node] = len(node_names)
                node_names.append(node)
            return node_ids[node]

        while self.peek() != "}":
            if self.peek() == "":
                raise DotSyntaxError("missing closing '}'", self.line(), None,
                                     self.filename)
            first = _unquote(self.next())
            if self.peek() == "=":
                self.next()
                value = _unquote(self.next())
                graph_attrs[first] = value
                self._semi()
                continue
            if self.peek() == "->":
                self.next()
                target = _unquote(self.next())
                if not target or target in "{}[];=":
                    raise DotSyntaxError("arc needs a target node", self.line(),
                                         None, self.filename)
                if target == first:
                    raise DotSyntaxError(f"self-loop on {first!r} not allowed",
                                         self.line(), None, self.filename)
                attrs = self._attr_list()
                raw_weight = attrs.get("weight")
                try:
                    weight = ONE if raw_weight is None else as_weight(raw_weight)
                except (ValueError, ZeroDivisionError):
                    raise DotSyntaxError(f"bad weight {raw_weight!r}",
                                         self.line(), None, self.filename)
                if weight.numerator < 0:
                    raise DotSyntaxError(f"negative weight {raw_weight!r}",
                                         self.line(), None, self.filename)
                tree_mark = attrs.get("tree", "false").lower() in ("true", "1")
                src, dst = intern(first), intern(target)
                if (src, dst) in seen_pairs:
                    duplicates.append((first, target))
                seen_pairs.add((src, dst))
                arcs.append((src, dst, weight, tree_mark))
                self._semi()
                continue
            # bare node statement
            intern(first)
            self._attr_list()
            self._semi()
        self.expect("}")
        if self.peek() != "":
            raise DotSyntaxError("trailing input after closing '}'", self.line(),
                                 None, self.filename)

        start = graph_attrs.get("start")
        exit_ = graph_attrs.get("exit")
        addvirtual = graph_attrs.get("addvirtual", "true").lower() in ("true", "1")
        for attr, value in (("start", start), ("exit", exit_)):
            if value is not None and value not in node_ids:
                raise DotSyntaxError(
                    f"{attr}={value!r} names a vertex that never appears",
                    self.line(), None, self.filename)

        edges = [(src, dst, w) for src, dst, w, _ in arcs]
        tree_ids = tuple(i for i, (_, _, _, mark) in enumerate(arcs) if mark)
        virtual_arc = None
        if addvirtual and start is not None and exit_ is not None:
            if start == exit_:
                raise DotSyntaxError(
                    "start and exit must be distinct vertices",
                    self.line(), None, self.filename)
            virtual_arc = len(edges)
            edges.append((node_ids[exit_], node_ids[start], ZERO))
        graph = WeightedDigraph(len(node_names), edges)
        return DotGraphDoc(
            name=name, graph=graph, node_names=tuple(node_names),
            start=node_ids[start] if start is not None else None,
            exit=node_ids[exit_] if exit_ is not None else None,
            virtual_arc=virtual_arc, tree_edge_ids=tree_ids,
            duplicate_arcs=tuple(duplicates), filename=self.filename)

    def _attr_list(self) -> Dict[str, str]:
        attrs: Dict[str, str] = {}
        if self.peek() != "[":
            return attrs
        self.next()
        while self.peek() != "]":
            if self.peek() == "":
                raise DotSyntaxError("missing closing ']'", self.line(), None,
                                     self.filename)
            key = _unquote(self.next())
            self.expect("=")
            attrs[key] = _unquote(self.next())
            if self.peek() == ",":
                self.next()
        self.expect("]")
        return attrs

    def _semi(self):
        if self.peek() == ";":
            self.next()


def parse_dot(text: str, filename: Optional[str] = None) -> DotGraphDoc:
    """Parse the DOT subset; see the module docstring for the grammar."""
    return _DotParser(text, filename).parse()
