"""A small DOT-language subset for graph ingestion and export.

Supported shape::

    digraph name {
        start = "s";            // graph attributes; quotes optional
        exit = "r";
        addvirtual = true;      // default true; appends the (exit, start) arc
        a -> b [weight=1/2];    // missing weight defaults to 1
        c -> c_alone;           // nodes exist by first mention
        lonely;                 // bare node statement
        a -> b [weight=1, tree=true];   // mark a spanning-tree edge
    }

Vertex ids are assigned in first-mention order, edge ids in declaration
order; the synthetic arc, when added, is appended last with weight 0.
``tree=true`` marks let a fixture carry a specific spanning tree for the
upper-bound mode. ``//`` comments are skipped, so exported graphs can carry
node-label comments and still re-parse.

The graph name, each node, each attribute key and value, and each graph
attribute value is a word (a run of characters other than white space,
``{}[];=,"`` and ``->``) or a quoted string, which may hold any punctuation
and span lines. Punctuation or end of input where a name belongs is a
syntax error.

A document is read by one of two readers, chosen by its text. The
statement reader reads a ``digraph NAME {`` header and then one statement
per match of one pattern, with the blanks and comments before it: an arc
with no attributes or with only ``weight=`` and ``tree=`` attributes (an
unquoted ``tree`` value), a graph attribute, a bare node, and the closing
``}`` at the end of input. A document with any other statement, or one
that a check rejects (a self-loop, a bad or negative weight, a ``start``
or ``exit`` that names no vertex, ``start`` equal to ``exit``), is read
again, whole, by the token parser, which gives every diagnostic.

The token parser scans a document in one pass: one ``findall`` over a
pattern that skips white space and comments inside each match yields the
token strings, and nothing else is recorded per token. A diagnostic finds
its token's offset again and counts the line ends before it, so line
numbers cost nothing until an error, and line ends inside quoted strings
count too. Either reader parses each distinct weight text to a
``Fraction`` once per document. Each pattern is compiled when its reader
first runs, through ``re``'s own cache, so importing this module compiles
neither.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .cfg import ControlFlowGraph, check_reachability
from .errors import DotSyntaxError, MissingStartExit
from .graph import ONE, ZERO, Edge, SpanningTree, WeightedDigraph, _new

# The lexical rules, each written once and shared by both readers' patterns:
# blanks (white space and ``//`` comments), a quoted string, and a word,
# which stops before ``->``. Every repetition is possessive, so a pattern
# never gives back a comment, a string or a word it has read.
_BLANKS = r"(?:\s++|//[^\n]*+)*+"
_STRING = r'"(?:[^"\\]|\\.)*+"'
_WORD = r'(?:[^\s{}\[\];=,"-]++|-(?!>))++'
_NAME = rf"(?:{_STRING}|{_WORD})"

# The token parser's pattern, one match per token: blanks are skipped inside
# the match, so ``findall`` yields exactly the tokens. The pattern matches at
# every offset ``findall`` resumes from, end of input included (as the empty
# token), so it never searches ahead into a comment. A lone ``"`` opens a
# string that never closes, the one lexical error.
_TOKEN = rf"""
    {_BLANKS}
    (   ->
      | [{{}}\[\];=,]
      | {_STRING}
      | {_WORD}
      | "
      | \Z
    )
"""

# The statement reader's pattern, one match per statement with the blanks
# before it; its groups hold the raw tokens of the statement's shape. Any
# other statement, and the end of input before the closing ``}``, matches
# the last alternative, which sets no group. So the pattern matches at every
# offset ``findall`` resumes from, and the statements are read back to back,
# never searched for. Inside a statement, where no name follows, only white
# space is skipped: a comment there ends the match, and what follows the
# comment is read as the next statement, as the token parser reads it, or is
# not read at all. Of an attribute given twice, the group keeps the last
# value, as the token parser's dictionary does. The pattern is not VERBOSE,
# which would take longer to compile.
_SPACE = r"\s*+"
_STATEMENT = (
    _BLANKS + "(?:"
    # digraph NAME {    where no word character continues "digraph"
    rf'(?P<digraph>digraph)(?![^\s{{}}\[\];=,"]){_BLANKS}(?:(?P<graph>{_NAME}){_SPACE})?\{{'
    # NAME, a bare node, then -> NAME [weight=W, tree=T] for an arc,
    # or = NAME for a graph attribute; then an optional ;
    rf"|(?P<first>{_NAME}){_SPACE}(?:"
    rf"->{_BLANKS}(?P<target>{_NAME}){_SPACE}"
    rf"(?:\[(?:{_BLANKS}(?:weight{_SPACE}={_BLANKS}(?P<weight>{_NAME})"
    rf"|tree{_SPACE}={_BLANKS}(?P<tree>{_WORD})){_SPACE},?)*+{_SPACE}\]{_SPACE})?"
    rf"|={_BLANKS}(?P<value>{_NAME}){_SPACE})?;?"
    # the closing }, then nothing but blanks
    rf"|(?P<close>\}}){_BLANKS}\Z"
    r"|.|\Z)"
)

# The match of ``_STATEMENT`` that sets no group.
_NO_GROUP = ("",) * 8

# Tokens that cannot stand where a name belongs: punctuation and end of input.
_NOT_NAMES = frozenset(("", "->", "{", "}", "[", "]", ";", "=", ","))


class DotGraphDoc(NamedTuple):
    """A parsed document: the graph plus the control-flow metadata it carried."""

    name: str
    graph: WeightedDigraph
    node_names: Tuple[str, ...]
    start: Optional[int]
    exit: Optional[int]
    virtual_arc: Optional[int]
    tree_edge_ids: Tuple[int, ...]
    duplicate_arcs: Tuple[Tuple[str, str], ...]
    filename: Optional[str] = None

    def is_cfg(self) -> bool:
        """True when the document can be analyzed as a control-flow graph:
        start and exit are declared and the closing arc was appended."""
        return (self.start is not None and self.exit is not None
                and self.virtual_arc is not None)

    def to_cfg(self) -> ControlFlowGraph:
        """The control-flow graph, held to the same start-to-exit condition
        as a lowered MiniLang function."""
        if self.start is None or self.exit is None:
            raise MissingStartExit(
                f"graph {self.name!r} has no start=/exit= attributes")
        if self.virtual_arc is None:
            raise MissingStartExit(
                f"graph {self.name!r} was parsed with addvirtual=false; "
                "control-flow analysis needs the closing arc")
        cfg = ControlFlowGraph(
            graph=self.graph, start=self.start, exit=self.exit,
            virtual_arc=self.virtual_arc, node_labels=self.node_names,
            name=self.name)
        check_reachability(cfg, filename=self.filename)
        return cfg

    def marked_tree(self) -> Optional[SpanningTree]:
        """The spanning tree carried by tree=true marks, if any were given,
        rooted at the start vertex (vertex 0 when there is none)."""
        if not self.tree_edge_ids:
            return None
        root = self.start if self.start is not None else 0
        return SpanningTree.from_edge_ids(self.graph, root, self.tree_edge_ids)


def _unquote(token: str) -> str:
    """The name a word or a quoted-string token stands for."""
    if token[0] != '"':
        return token
    return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _weight(raw: str, error: Callable[[str], Exception]) -> Fraction:
    """The weight a weight text stands for. A bad or negative one raises
    what ``error(message)`` returns."""
    try:
        weight = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise error(f"bad weight {raw!r}")
    if weight.numerator < 0:
        raise error(f"negative weight {raw!r}")
    return weight


_Arc = Tuple[int, int, Fraction, bool]  # source, target, weight, tree mark


def _document(name: str, node_ids: Dict[str, int], node_names: List[str],
              arcs: List[_Arc], graph_attrs: Dict[str, str],
              duplicates: List[Tuple[str, str]], filename: Optional[str],
              error: Callable[[str], Exception]) -> DotGraphDoc:
    """The document both readers build from the statements they read, after
    the checks that need every statement. A failed check raises what
    ``error(message)`` returns."""
    start = graph_attrs.get("start")
    exit_ = graph_attrs.get("exit")
    addvirtual = graph_attrs.get("addvirtual", "true").lower() in ("true", "1")
    for attr, value in (("start", start), ("exit", exit_)):
        if value is not None and value not in node_ids:
            raise error(f"{attr}={value!r} names a vertex that never appears")

    # Both readers reject a self-loop and a bad or negative weight, and name
    # only vertices they interned, so the arcs go into the graph unchecked.
    edges = [_new(Edge, (i, src, dst, w)) for i, (src, dst, w, _) in enumerate(arcs)]
    tree_ids = tuple(i for i, (_, _, _, mark) in enumerate(arcs) if mark)
    virtual_arc = None
    if addvirtual and start is not None and exit_ is not None:
        if start == exit_:
            raise error("start and exit must be distinct vertices")
        virtual_arc = len(edges)
        edges.append(_new(Edge, (virtual_arc, node_ids[exit_], node_ids[start], ZERO)))
    graph = WeightedDigraph._trusted(len(node_names), tuple(edges))
    return DotGraphDoc(
        name=name, graph=graph, node_names=tuple(node_names),
        start=node_ids[start] if start is not None else None,
        exit=node_ids[exit_] if exit_ is not None else None,
        virtual_arc=virtual_arc, tree_edge_ids=tree_ids,
        duplicate_arcs=tuple(duplicates), filename=filename)


class _Unread(Exception):
    """The statement reader leaves the document to the token parser."""


def _read_statements(text: str, filename: Optional[str] = None) -> DotGraphDoc:
    """The document, read one statement per match of ``_STATEMENT``.
    Raises ``_Unread`` where the token parser would read a statement this
    reader does not, or would raise."""
    node_ids: Dict[str, int] = {}
    node_names: List[str] = []
    vertices: Dict[str, int] = {}  # raw name token -> vertex id
    arcs: List[_Arc] = []
    graph_attrs: Dict[str, str] = {}
    duplicates: List[Tuple[str, str]] = []
    seen_pairs = set()
    weights: Dict[str, Fraction] = {}  # each distinct weight text, parsed once

    def intern(token: str) -> int:
        node = _unquote(token)
        if node not in node_ids:
            node_ids[node] = len(node_names)
            node_names.append(node)
        vertices[token] = node_ids[node]
        return node_ids[node]

    # The pattern matches at the end of input, so the last match sets no
    # group. A document of the shapes read here has no other such match, a
    # header first and its closing ``}`` last before that one.
    statements = re.compile(_STATEMENT).findall(text)
    if not (statements[0][0] and statements[-2][-1]
            and statements.index(_NO_GROUP) == len(statements) - 1):
        raise _Unread
    for _, _, first, target, weight, tree, value, _ in statements[1:-2]:
        if target:
            src = vertices.get(first)
            if src is None:
                src = intern(first)
            dst = vertices.get(target)
            if dst is None:
                dst = intern(target)
            if src == dst:
                raise _Unread  # a self-loop
            if weight:
                if weight[0] == '"':
                    weight = _unquote(weight)
                w = weights.get(weight)
                if w is None:
                    w = weights[weight] = _weight(weight, _Unread)
            else:
                w = ONE
            pair = (src, dst)
            if pair in seen_pairs:
                duplicates.append((node_names[src], node_names[dst]))
            seen_pairs.add(pair)
            arcs.append((src, dst, w, tree != "" and tree.lower() in ("true", "1")))
        elif value:
            graph_attrs[_unquote(first)] = _unquote(value)
        elif first:
            if first not in vertices:
                intern(first)
        else:
            raise _Unread  # a second header
    name = statements[0][1]
    return _document(_unquote(name) if name else "g", node_ids, node_names, arcs,
                     graph_attrs, duplicates, filename, _Unread)


class _DotParser:
    def __init__(self, text: str, filename: Optional[str] = None):
        self.text = text
        self.filename = filename
        self.tokens = re.findall(_TOKEN, text, re.VERBOSE)
        self.pos = 0
        if '"' in self.tokens:
            self.pos = self.tokens.index('"')
            raise self.error("unexpected character '\"'")

    def error(self, message: str) -> DotSyntaxError:
        """A diagnostic at the current token. Its line is counted only here,
        from the line ends before the token's offset."""
        match = next(islice(re.finditer(_TOKEN, self.text, re.VERBOSE), self.pos, None))
        line = self.text.count("\n", 0, match.start(1)) + 1
        return DotSyntaxError(message, line, None, self.filename)

    def peek(self):
        return self.tokens[self.pos]

    def expect(self, text):
        got = self.peek()
        if got != text:
            raise self.error(f"expected {text!r}, got {got or 'end of input'!r}")
        self.pos += 1

    def name(self, what: str) -> str:
        """A word or a quoted string, whatever the string holds."""
        got = self.peek()
        if got in _NOT_NAMES:
            raise self.error(f"expected {what}, got {got or 'end of input'!r}")
        self.pos += 1
        return _unquote(got)

    def parse(self) -> DotGraphDoc:
        if self.peek() != "digraph":
            raise self.error("input must begin with 'digraph'")
        self.pos += 1
        name = "g"
        if self.peek() != "{":
            name = self.name("a graph name")
        self.expect("{")

        node_ids: Dict[str, int] = {}
        node_names: List[str] = []
        arcs: List[_Arc] = []
        graph_attrs: Dict[str, str] = {}
        duplicates: List[Tuple[str, str]] = []
        seen_pairs = set()
        weights: Dict[str, Fraction] = {}  # each distinct weight text, parsed once

        def intern(node: str) -> int:
            if node not in node_ids:
                node_ids[node] = len(node_names)
                node_names.append(node)
            return node_ids[node]

        while self.peek() != "}":
            if self.peek() == "":
                raise self.error("missing closing '}'")
            first = self.name("a node or attribute name")
            tok = self.peek()
            if tok == "=":
                self.pos += 1
                graph_attrs[first] = self.name("an attribute value")
                self._semi()
                continue
            if tok == "->":
                self.pos += 1
                target = self.name("a target node")
                if target == first:
                    raise self.error(f"self-loop on {first!r} not allowed")
                attrs = self._attr_list()
                raw_weight = attrs.get("weight")
                if raw_weight is None:
                    weight = ONE
                else:
                    weight = weights.get(raw_weight)
                    if weight is None:
                        weight = weights[raw_weight] = _weight(raw_weight, self.error)
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
            raise self.error("trailing input after closing '}'")

        return _document(name, node_ids, node_names, arcs, graph_attrs, duplicates,
                         self.filename, self.error)

    def _attr_list(self) -> Dict[str, str]:
        attrs: Dict[str, str] = {}
        if self.peek() != "[":
            return attrs
        self.pos += 1
        while self.peek() != "]":
            if self.peek() == "":
                raise self.error("missing closing ']'")
            key = self.name("an attribute name")
            self.expect("=")
            attrs[key] = self.name("an attribute value")
            if self.peek() == ",":
                self.pos += 1
        self.expect("]")
        return attrs

    def _semi(self):
        if self.peek() == ";":
            self.pos += 1


def parse_dot(text: str, filename: Optional[str] = None) -> DotGraphDoc:
    """Parse the DOT subset; see the module docstring for the grammar."""
    try:
        return _read_statements(text, filename)
    except _Unread:
        return _DotParser(text, filename).parse()


def _quote(name: str) -> str:
    """A quoted name that ``_unquote`` reads back as ``name``."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dump_dot(
    graph: WeightedDigraph,
    name: str = "g",
    node_names: Optional[Tuple[str, ...]] = None,
    start: Optional[int] = None,
    exit: Optional[int] = None,
    virtual_arc: Optional[int] = None,
    node_comments: Optional[Tuple[str, ...]] = None,
) -> str:
    """Export a graph in the same subset, preserving edge declaration order.

    The synthetic arc, when identified, is not re-declared: the header says
    ``addvirtual = true`` and a fresh parse will append it again at the same
    id, so dump/parse round-trips exactly. Names are quoted (the graph's
    unless it is a word), and each line of a node comment is a comment.
    """
    raw_names = node_names or tuple(f"v{i}" for i in range(graph.vertex_count))
    names = tuple(map(_quote, raw_names))
    if not re.fullmatch(r"\w+", name):
        name = _quote(name)
    lines = [f"digraph {name} {{"]
    if start is not None:
        lines.append(f"    start = {names[start]};")
    if exit is not None:
        lines.append(f"    exit = {names[exit]};")
    lines.append(f"    addvirtual = {'true' if virtual_arc is not None else 'false'};")
    if node_comments:
        for i, comment in enumerate(node_comments):
            if comment:
                text = f"{raw_names[i]}: {comment}"
                lines += (f"    // {part}" for part in text.split("\n"))
    mentioned = set()
    for e in graph.edges:
        if virtual_arc is not None and e.id == virtual_arc:
            continue
        lines.append(
            f"    {names[e.source]} -> {names[e.target]} "
            f"[weight={e.weight}];")
        mentioned.add(e.source)
        mentioned.add(e.target)
    for v in range(graph.vertex_count):
        if v not in mentioned:
            lines.append(f"    {names[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump_cfg_dot(cfg: ControlFlowGraph) -> str:
    """Export a lowered control-flow graph with readable node names."""
    names = []
    for v in range(cfg.graph.vertex_count):
        if v == cfg.start:
            names.append("s")
        elif v == cfg.exit:
            names.append("r")
        else:
            names.append(f"n{v}")
    return dump_dot(
        cfg.graph, name=cfg.name or "g", node_names=tuple(names),
        start=cfg.start, exit=cfg.exit, virtual_arc=cfg.virtual_arc,
        node_comments=cfg.node_labels)
