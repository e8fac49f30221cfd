"""Lower MiniLang functions to control-flow graphs.

Every function becomes a directed graph with one start node s, one exit
node r, and a synthetic arc (r, s) appended last so the graph is strongly
connected. Real arcs weigh 1; the synthetic arc weighs 0, so cycle weights
count executable arcs only (a cycle through the synthetic arc is just an
entry-to-exit path).

Lowering rules, chosen so the one-construct functions land on the minimal
shapes:

* maximal straight-line statement runs collapse into a single node;
* ``if`` turns the current node into the branch point, with the false arc
  going straight to the join when there is no else;
* loop bodies exit to both the loop condition (back arc) and the code after
  the loop, so a bare ``while`` is three nodes and three arcs; when a body
  never falls through, the condition's false arc becomes the loop exit
  instead, so the loop's branch is never lost; when a body falls through
  at more than one place, those exits first join one empty latch node,
  which loops back and leaves, so each loop adds exactly one to the cycle
  rank and nu is McCabe's count of decisions plus one;
* ``switch`` lowers to a cascade of two-way tests, one per alternative
  including ``default``, which makes each case label count toward the
  cyclomatic number the way complexity checkers count them;
* ``break``/``continue``/bare ``return`` are pure control transfers and
  materialize no node of their own; the parser has checked that each jump
  has a target, which the lowerer looks up among the enclosing loops and
  switches.

Unreachable statements, and nodes that cannot reach the exit, are hard
errors: the metric's strong-connectivity premise does not tolerate them.
``check_reachability`` enforces the node condition for graphs from either
frontend.
"""

from __future__ import annotations

from collections import deque
from typing import List, NamedTuple, Optional, Tuple

from . import minilang as ast
from .errors import UnreachableCode, UnresolvedLabel
from .graph import ONE, ZERO, Edge, WeightedDigraph, _new

EXIT_LABEL = "exit"


class ControlFlowGraph(NamedTuple):
    """A lowered function: digraph + start/exit vertices + the synthetic arc id."""

    graph: WeightedDigraph
    start: int
    exit: int
    virtual_arc: int
    node_labels: Tuple[str, ...]
    name: str = ""


class _Target:
    """An enclosing loop or switch: the node a ``continue`` goes to (a
    loop's condition; None for a switch) and the sources of its breaks."""

    def __init__(self, head: Optional[int], label: Optional[str] = None):
        self.head = head
        self.label = label
        self.breaks: List[int] = []


class _Lowerer:
    def __init__(self, fn: ast.Function, filename: str):
        self.fn = fn
        self.filename = filename
        self.labels: List[List[str]] = []  # per node, its texts, joined in build()
        self.positions: List[Tuple[int, int]] = []
        self.arcs: List[Tuple[int, int]] = []
        self.current: Optional[int] = None
        self.pending: List[int] = []
        self.exit_sources: List[int] = []
        self.targets: List[_Target] = []

    # node/arc plumbing --------------------------------------------------

    def _new_node(self, label: str, pos) -> int:
        node = len(self.labels)
        self.labels.append([label] if label else [])
        self.positions.append(pos)
        return node

    def _enter_node(self, label: str, pos) -> int:
        """Materialize a node at the current position and make it current."""
        node = self._new_node(label, pos)
        if self.current is not None:
            self.arcs.append((self.current, node))
        else:
            for src in self.pending:
                self.arcs.append((src, node))
        self.pending = []
        self.current = node
        return node

    def _append(self, text: str, pos) -> int:
        """Extend the current straight-line node, creating one if needed."""
        current = self.current
        if current is not None:
            self.labels[current].append(text)
            return current
        self._require_alive(pos)
        return self._enter_node(text, pos)

    def _exits(self) -> List[int]:
        """Sources of the dangling out-arcs at this point (empty if dead). Exit
        lists are handed over, not copied, so lowering is linear in depth."""
        if self.current is not None:
            return [self.current]
        return self.pending

    def _resume(self, sources: List[int]) -> None:
        self.current = None
        self.pending = sources

    def _join(self, exits):
        """``exits`` followed by the exits at this point, built in the longer
        of the two lists so a join costs the shorter one: down an ``else``
        nest or an ``else if`` chain, the exits here hold every level below."""
        here = self._exits()
        if len(here) <= len(exits):
            exits += here
            return exits
        if exits:
            here = here if here.__class__ is deque else deque(here)
            here.extendleft(reversed(exits))
        return here

    def _require_alive(self, pos) -> None:
        """A point is live at the entry, before any node, or where arcs
        dangle; anywhere else a statement is unreachable."""
        if self.current is None and not self.pending and self.labels:
            raise UnreachableCode("statement is unreachable", pos[0], pos[1],
                                  self.filename)

    def _jump(self, pos) -> List[int]:
        """End the path at a jump; return the nodes it leaves from."""
        self._require_alive(pos)
        sources = self._exits() or [self._enter_node("", pos)]  # at the entry
        self._resume([])
        return sources

    def _target(self, jump) -> _Target:
        """The innermost loop or switch a break or continue goes to."""
        for target in reversed(self.targets):
            if (jump.label in (None, target.label)
                    and (target.head is not None or isinstance(jump, ast.Break))):
                return target
        # The parser rejects such jumps; only a hand-built AST gets here.
        raise UnresolvedLabel("jump has no enclosing target", jump.line, jump.col,
                              self.filename)

    # statement lowering -------------------------------------------------
    #
    # A compound statement's lowering is a generator that yields where it
    # lowers a nested block (see ``minilang.trampoline``); a simple
    # statement's lowering returns None.

    def lower_block(self, stmts: tuple):
        for stmt in stmts:
            nested = self.lower_stmt(stmt)
            if nested is not None:
                yield nested

    def lower_stmt(self, stmt):
        cls = stmt.__class__
        pos = (stmt.line, stmt.col)
        if cls is ast.ExprStmt:
            self._append(stmt.text, pos)
        elif cls is ast.If:
            return self.lower_if(stmt)
        elif cls is ast.Return:
            if stmt.value is not None:
                self._append(f"return {stmt.value}", pos)
            self.exit_sources += self._jump(pos)
        elif cls is ast.While:
            return self.lower_loop(f"while ({stmt.cond})", stmt.body, None, pos, stmt.label)
        elif cls is ast.For:
            if stmt.init:
                self._append(stmt.init, pos)
            cond = stmt.cond if stmt.cond is not None else ""
            return self.lower_loop(f"for ({cond})", stmt.body, stmt.step, pos, stmt.label)
        elif cls is ast.Switch:
            return self.lower_switch(stmt)
        elif cls is ast.Break:
            self._target(stmt).breaks += self._jump(pos)
        elif cls is ast.Continue:
            head = self._target(stmt).head
            if head in self._exits():
                # A continue at the top of a loop body would be a self-arc,
                # which a loop-free edge set cannot hold; give it a node.
                self._enter_node("", pos)
            self.arcs += [(src, head) for src in self._jump(pos)]
        else:  # pragma: no cover - parser produces no other nodes
            raise TypeError(f"unknown statement {stmt!r}")
        return None

    def lower_if(self, stmt: ast.If):
        branch = self._append(f"if ({stmt.cond})", (stmt.line, stmt.col))
        self._resume([branch])
        yield from self.lower_block(stmt.then)
        exits = self._exits()
        self._resume([branch])  # with no else, the branch is an exit itself
        if stmt.orelse is not None:
            yield from self.lower_block(stmt.orelse)
        self._resume(self._join(exits))

    def lower_loop(self, head_label: str, body: tuple, step: Optional[str],
                   pos, label: Optional[str]):
        self._require_alive(pos)
        cond = self._enter_node(head_label, pos)
        target = _Target(cond, label)
        self.targets.append(target)
        self._resume([cond])
        if body:
            yield from self.lower_block(body)
        else:
            self._enter_node("", pos)
        if step and self._exits():
            self._append(step, pos)
        body_exits = self._exits()
        self.targets.pop()
        if len(body_exits) > 1:
            # One latch joins the exits, so the loop's branch counts once.
            self._resume(body_exits)
            body_exits = [self._enter_node("", pos)]
        for src in body_exits:
            self.arcs.append((src, cond))  # back arc; the same nodes also exit the loop
        # A body that never falls through (it returns, breaks, or loops back
        # unconditionally) leaves the loop by the condition's false arc only.
        self._resume((body_exits or [cond]) + target.breaks)

    def lower_switch(self, stmt: ast.Switch):
        pos = (stmt.line, stmt.col)
        alternatives = [(f"case {c.label}", c.body, (c.line, c.col)) for c in stmt.cases]
        if stmt.default is not None:
            alternatives.append(("default", stmt.default, pos))
        target = _Target(None)
        self.targets.append(target)
        join_exits: List[int] = []
        test = None
        for i, (test_label, body, body_pos) in enumerate(alternatives):
            if i == 0:
                test = self._append(f"switch ({stmt.scrutinee}) {test_label}", pos)
            else:
                self._resume([test])
                test = self._enter_node(test_label, body_pos)
            self._resume([test])
            yield from self.lower_block(body)
            join_exits = self._join(join_exits)
        self.targets.pop()
        join_exits += [test, *target.breaks]
        self._resume(join_exits)

    # assembly -----------------------------------------------------------

    def build(self) -> ControlFlowGraph:
        ast.trampoline(self.lower_block(self.fn.body))
        fn_pos = (self.fn.line, self.fn.col)
        if not self.labels:  # an empty body
            self._enter_node("", fn_pos)
        tail_sources = self._exits()
        exit_node = self._new_node(EXIT_LABEL, fn_pos)
        self.arcs += [(src, exit_node) for src in [*tail_sources, *self.exit_sources]]
        start = 0
        virtual_arc = len(self.arcs)
        # The lowerer makes no self-arc and no node out of range, so the arcs
        # go into the graph unchecked.
        edges = [_new(Edge, (i, *arc, ONE)) for i, arc in enumerate(self.arcs)]
        edges.append(_new(Edge, (virtual_arc, exit_node, start, ZERO)))
        cfg = ControlFlowGraph(graph=WeightedDigraph._trusted(len(self.labels), tuple(edges)),
                               start=start, exit=exit_node,
                               virtual_arc=virtual_arc,
                               node_labels=tuple(map("; ".join, self.labels)),
                               name=self.fn.name)
        check_reachability(cfg, self.positions, self.filename)
        return cfg


def check_reachability(cfg: ControlFlowGraph,
                       positions: Optional[List[Tuple[int, int]]] = None,
                       filename: Optional[str] = None) -> None:
    """Raise UnreachableCode unless every node lies on a start-to-exit path.

    The synthetic closing arc is left out, since it would make every node
    trivially reachable. ``positions[v]`` is node v's source ``(line, col)``
    for the diagnostic, when the graph came from source text.
    """
    n = cfg.graph.vertex_count
    forward = [[] for _ in range(n)]
    backward = [[] for _ in range(n)]
    edges = cfg.graph.edges
    for _, source, target, _ in edges:
        forward[source].append(target)
        backward[target].append(source)
    # Leave the closing arc out. The lists hold vertices, not arc ids, so
    # removing any copy of that vertex pair removes that arc.
    _, source, target, _ = cfg.graph.edge(cfg.virtual_arc)
    forward[source].remove(target)
    backward[target].remove(source)

    def closure(adj, origin):
        seen = [False] * n
        seen[origin] = True
        order = [origin]
        for v in order:  # grows while it is read
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
        return seen, len(order)

    from_start, reached = closure(forward, cfg.start)
    to_exit, reaching = closure(backward, cfg.exit)
    if reached == reaching == n:
        return
    for v in range(n):
        if not (from_start[v] and to_exit[v]):
            line, col = positions[v] if positions else (None, None)
            raise UnreachableCode(
                f"node {cfg.node_labels[v]!r} lies on no start-to-exit path",
                line, col, filename)


def lower(fn: ast.Function, filename: str = "<input>") -> ControlFlowGraph:
    """Lower one parsed function to its control-flow graph.

    Raises UnreachableCode for a statement that no path reaches or a node
    on no start-to-exit path, and UnresolvedLabel for a jump without a
    target, which only a hand-built AST can hold."""
    return _Lowerer(fn, filename).build()
