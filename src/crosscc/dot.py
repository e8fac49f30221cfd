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

One reader fills the vertices, the arcs with their ``tree=`` text, the
graph attributes and the weights, one ``Fraction`` per distinct text. One
``findall`` of one pattern reads the ``digraph NAME {`` header and then
one statement per match, with the blanks and comments before it: an arc
with no attributes or with only ``weight=`` and ``tree=`` attributes (an
unquoted ``tree`` value), a graph attribute, a bare node, and the closing
``}`` at the end of input. From the first statement that no match reads
whole, or that a check rejects (a self-loop, a bad or negative weight, a
second header), the rest is read token by token into the same tables; from
offset 0 the tokens read a whole document. ``_document`` derives the
edges, the tree edge ids and the duplicate arcs, and runs the checks that
need every statement, reported at the end of input; the tokens give the
other diagnostics.

Tokens are scanned on demand by a pattern that skips white space and
comments inside each match. A diagnostic counts the line ends before its
token's offset, so line numbers cost nothing until an error, and line ends
inside quoted strings count too. Each pattern is compiled on first use,
through ``re``'s own cache, so importing this module compiles neither.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from operator import length_hint
from typing import Dict, List, NamedTuple, Optional, Tuple

from .cfg import ControlFlowGraph, check_reachability
from .errors import DotSyntaxError, MissingStartExit
from .graph import ONE, ZERO, Edge, SpanningTree, WeightedDigraph, _new, as_weight

# The lexical rules, each written once and shared by both patterns: blanks
# (white space and ``//`` comments), a quoted string, and a word, which
# stops before ``->``. Every repetition is possessive, so a pattern never
# gives back a comment, a string or a word it has read.
_BLANKS = r"(?:\s++|//[^\n]*+)*+"
_STRING = r'"(?:[^"\\]|\\.)*+"'
_WORD = r'(?:[^\s{}\[\];=,"-]++|-(?!>))++'
_NAME = rf"(?:{_STRING}|{_WORD})"

# One token per match, the blanks before it skipped inside the match. The
# pattern matches at every offset, end of input included (as the empty
# token). A lone ``"`` opens a string that never closes: a lexical error.
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

# One statement per match, with the blanks before it; the groups hold the
# raw tokens of the statement's shape. Any other statement, and the end of
# input before the closing ``}``, matches the last alternative, which sets
# no group. So the pattern matches at every offset ``findall`` resumes from,
# and the statements are read back to back, never searched for. Inside a
# statement, where no name follows, only white space is skipped. A match
# ends in the statement's ``;``, so it never reads only the start of one, as
# the bare node ``a`` of the arc ``a // c\n -> b;``; a statement without
# its ``;`` is left to the token step. Of an attribute given twice, the group
# keeps the last value, as the token step's dictionary does. The pattern is
# not VERBOSE, which would take longer to compile.
_SPACE = r"\s*+"
_STATEMENT = (
    _BLANKS + "(?:"
    # digraph NAME {    where no word character continues "digraph"
    rf'(?P<digraph>digraph)(?![^\s{{}}\[\];=,"]){_BLANKS}(?:(?P<graph>{_NAME}){_SPACE})?\{{'
    # NAME, a bare node, then -> NAME [weight=W, tree=T] for an arc,
    # or = NAME for a graph attribute; then the ;
    rf"|(?P<first>{_NAME}){_SPACE}(?:"
    rf"->{_BLANKS}(?P<target>{_NAME}){_SPACE}"
    rf"(?:\[(?:{_BLANKS}(?:weight{_SPACE}={_BLANKS}(?P<weight>{_NAME})"
    rf"|tree{_SPACE}={_BLANKS}(?P<tree>{_WORD})){_SPACE},?)*+{_SPACE}\]{_SPACE})?"
    rf"|={_BLANKS}(?P<value>{_NAME}){_SPACE})?;"
    # the closing }, then nothing but blanks
    rf"|(?P<close>\}}){_BLANKS}\Z"
    r"|.|\Z)"
)

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


def _weight(raw: str) -> Fraction:
    """The weight a weight text stands for. A bad or negative one raises
    ``ValueError`` with the diagnostic's message."""
    try:
        weight = as_weight(raw)
    except ValueError:
        raise ValueError(f"bad weight {raw!r}") from None
    if weight.numerator < 0:
        raise ValueError(f"negative weight {raw!r}")
    return weight


class _Reader:
    """One document's tables, filled by statement matches and then, from the
    first statement no match reads, by tokens; ``_document`` derives the rest."""

    def __init__(self, text: str, filename: Optional[str] = None):
        self.text = text
        self.filename = filename
        self.name = "g"
        self.node_ids: Dict[str, int] = {}  # in first-mention order
        self.arcs: List[Tuple[int, int, Fraction, str]] = []  # src, dst, weight, tree= text
        self.graph_attrs: Dict[str, str] = {}
        self.weights: Dict[str, Fraction] = {}  # each distinct weight text, parsed once

    def vertex(self, node: str) -> int:
        """The id of ``node``, a new one at its first mention."""
        return self.node_ids.setdefault(node, len(self.node_ids))

    def read(self) -> DotGraphDoc:
        """The document, one statement per match of ``_STATEMENT`` up to the
        first one that no match reads or a check rejects, then by tokens."""
        statements = re.compile(_STATEMENT).findall(self.text)
        rest = iter(statements)
        header, name, *_ = next(rest)
        if not header:
            return self.read_tokens(0)
        self.name = _unquote(name or "g")
        node_ids, arcs, weights = self.node_ids, self.arcs, self.weights
        vertices: Dict[str, int] = {}  # raw name token -> vertex id

        def intern(token: str) -> int:
            vertices[token] = v = node_ids.setdefault(_unquote(token), len(node_ids))
            return v

        for _, _, first, target, weight, tree, value, close in rest:
            if target:
                src = vertices.get(first)
                if src is None:
                    src = intern(first)
                dst = vertices.get(target)
                if dst is None:
                    dst = intern(target)
                if src == dst:
                    break  # a self-loop
                if weight:
                    if weight[0] == '"':
                        weight = _unquote(weight)
                    w = weights.get(weight)
                    if w is None:
                        try:
                            w = weights[weight] = _weight(weight)
                        except ValueError:
                            break
                else:
                    w = ONE
                arcs.append((src, dst, w, tree))
            elif value:
                self.graph_attrs[_unquote(first)] = _unquote(value)
            elif first:
                if first not in vertices:
                    intern(first)
            elif close:
                return self._document()
            else:
                break  # a second header, or a statement no match reads
        # The statement unread is the last one taken from ``rest``.
        i = len(statements) - length_hint(rest) - 1
        unread = next(islice(re.compile(_STATEMENT).finditer(self.text), i, None))
        return self.read_tokens(unread.start())

    def read_tokens(self, pos: int) -> DotGraphDoc:
        """The document from offset ``pos`` on, token by token. From offset 0
        that is the whole document, its header included."""
        self._token = re.compile(_TOKEN, re.VERBOSE).match
        self._end = pos
        self._next()
        if pos == 0:
            if self._tok != "digraph":
                raise self.error("input must begin with 'digraph'")
            self._next()
            if self._tok != "{":
                self.name = self._name("a graph name")
            self._expect("{")
        while self._tok != "}":
            if self._tok == "":
                raise self.error("missing closing '}'")
            first = self._name("a node or attribute name")
            if self._tok == "=":
                self._next()
                self.graph_attrs[first] = self._name("an attribute value")
            elif self._tok == "->":
                self._next()
                target = self._name("a target node")
                if target == first:
                    raise self.error(f"self-loop on {first!r} not allowed")
                attrs = self._attr_list()
                raw = attrs.get("weight")
                weight = ONE if raw is None else self.weights.get(raw)
                if weight is None:
                    try:
                        weight = self.weights[raw] = _weight(raw)
                    except ValueError as err:
                        raise self.error(str(err)) from None
                self.arcs.append((self.vertex(first), self.vertex(target), weight,
                                  attrs.get("tree", "")))
            else:  # a bare node
                self.vertex(first)
                self._attr_list()
            if self._tok == ";":
                self._next()
        self._next()
        if self._tok != "":
            raise self.error("trailing input after closing '}'")
        return self._document()

    def _next(self) -> None:
        """Step to the next token; a lone ``"`` is an error wherever it is."""
        self._at = self._token(self.text, self._end)
        self._end = self._at.end()
        self._tok = self._at.group(1)
        if self._tok == '"':
            raise self.error("unexpected character '\"'")

    def error(self, message: str) -> DotSyntaxError:
        """A diagnostic at the current token, unless a lone ``"`` follows:
        reading on to it raises that error instead. The line is counted only
        here, from the line ends before the token's offset."""
        at = self._at
        while self._tok not in ('"', ""):
            self._next()
        line = self.text.count("\n", 0, at.start(1)) + 1
        return DotSyntaxError(message, line, None, self.filename)

    def _at_end(self, message: str) -> DotSyntaxError:
        """A diagnostic at the end of input, where every statement is read."""
        return DotSyntaxError(message, self.text.count("\n") + 1, None, self.filename)

    def _expect(self, text: str) -> None:
        if self._tok != text:
            raise self.error(f"expected {text!r}, got {self._tok or 'end of input'!r}")
        self._next()

    def _name(self, what: str) -> str:
        """A word or a quoted string, whatever the string holds."""
        got = self._tok
        if got in _NOT_NAMES:
            raise self.error(f"expected {what}, got {got or 'end of input'!r}")
        self._next()
        return _unquote(got)

    def _attr_list(self) -> Dict[str, str]:
        attrs: Dict[str, str] = {}
        if self._tok == "[":
            self._next()
            while self._tok != "]":
                if self._tok == "":
                    raise self.error("missing closing ']'")
                key = self._name("an attribute name")
                self._expect("=")
                attrs[key] = self._name("an attribute value")
                if self._tok == ",":
                    self._next()
            self._next()
        return attrs

    def _document(self) -> DotGraphDoc:
        """The document read, after the checks that need every statement."""
        node_ids = self.node_ids
        start, exit_ = self.graph_attrs.get("start"), self.graph_attrs.get("exit")
        addvirtual = self.graph_attrs.get("addvirtual", "true").lower() in ("true", "1")
        for attr, value in (("start", start), ("exit", exit_)):
            if value is not None and value not in node_ids:
                raise self._at_end(f"{attr}={value!r} names a vertex that never appears")

        # Both steps reject a self-loop and a bad or negative weight, and
        # name only vertices they interned, so the arcs go in unchecked.
        arcs = self.arcs
        edges = [_new(Edge, (i, src, dst, w)) for i, (src, dst, w, _) in enumerate(arcs)]
        tree_ids = tuple(i for i, (_, _, _, tree) in enumerate(arcs)
                         if tree and tree.lower() in ("true", "1"))
        names = tuple(node_ids)
        seen = set()  # ``add`` gives None, so each pair is added as it is tested
        duplicates = tuple((names[src], names[dst]) for src, dst, _, _ in arcs
                           if (src, dst) in seen or seen.add((src, dst)))
        virtual_arc = None
        if addvirtual and start is not None and exit_ is not None:
            if start == exit_:
                raise self._at_end("start and exit must be distinct vertices")
            virtual_arc = len(edges)
            edges.append(_new(Edge, (virtual_arc, node_ids[exit_], node_ids[start], ZERO)))
        graph = WeightedDigraph._trusted(len(names), tuple(edges))
        return DotGraphDoc(
            name=self.name, graph=graph, node_names=names,
            start=node_ids[start] if start is not None else None,
            exit=node_ids[exit_] if exit_ is not None else None,
            virtual_arc=virtual_arc, tree_edge_ids=tree_ids,
            duplicate_arcs=duplicates, filename=self.filename)


def parse_dot(text: str, filename: Optional[str] = None) -> DotGraphDoc:
    """Parse the DOT subset; see the module docstring for the grammar."""
    return _Reader(text, filename).read()


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
    ``start`` and ``exit`` must be vertices, and ``virtual_arc`` the id of
    the last edge, a 0-weight arc from ``exit`` to ``start``: the one a parse
    appends. ``name`` is a string and ``node_names`` one string per vertex;
    ``node_comments`` has at most one comment per vertex. Any other value is
    a ValueError.
    """
    n = graph.vertex_count
    raw_names = node_names or tuple(f"v{i}" for i in range(n))
    for arg, value in (("start", start), ("exit", exit)):
        if value is not None and (type(value) is not int or not 0 <= value < n):
            raise ValueError(f"{arg} must be an int in range({n}), not {value!r}")
    if virtual_arc is not None and graph.edges[-1:] != (Edge(virtual_arc, exit, start, ZERO),):
        raise ValueError("virtual_arc must be the id of the last edge, a 0-weight arc "
                         f"from exit to start, not {virtual_arc!r}")
    if len(raw_names) != n:
        raise ValueError(f"node_names has {len(raw_names)} names for {n} vertices")
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, not {name!r}")
    for value in raw_names:
        if not isinstance(value, str):
            raise ValueError(f"node_names must be strings, not {value!r}")
    if node_comments and len(node_comments) > n:
        raise ValueError(f"node_comments has {len(node_comments)} comments for {n} vertices")
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
