"""Reference oracle for the lowerer, kept verbatim from an earlier version
of ``crosscc.cfg``. Nothing under ``src/`` imports this module.

``_Lowerer`` is the recursive lowerer that the one driven by
``minilang.trampoline`` replaced; ``lower`` runs it. Both must give the same
``dump_cfg_dot`` text for every function, or the same diagnostic.
"""

from typing import List, Optional, Tuple

from crosscc import minilang as ast
from crosscc.cfg import EXIT_LABEL, ControlFlowGraph, check_reachability
from crosscc.errors import UnreachableCode, UnresolvedLabel
from crosscc.graph import ONE, ZERO, WeightedDigraph


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
        self.labels: List[str] = []
        self.positions: List[Tuple[int, int]] = []
        self.arcs: List[Tuple[int, int]] = []
        self.current: Optional[int] = None
        self.pending: List[int] = []
        self.exit_sources: List[int] = []
        self.targets: List[_Target] = []

    # node/arc plumbing --------------------------------------------------

    def _new_node(self, label: str, pos) -> int:
        node = len(self.labels)
        self.labels.append(label)
        self.positions.append(pos)
        return node

    def _arc(self, src: int, dst: int) -> None:
        self.arcs.append((src, dst))

    def _enter_node(self, label: str, pos) -> int:
        """Materialize a node at the current position and make it current."""
        node = self._new_node(label, pos)
        if self.current is not None:
            self._arc(self.current, node)
        else:
            for src in self.pending:
                self._arc(src, node)
        self.pending = []
        self.current = node
        return node

    def _append(self, text: str, pos) -> int:
        """Extend the current straight-line node, creating one if needed."""
        self._require_alive(pos)
        if self.current is not None:
            if self.labels[self.current]:
                self.labels[self.current] += "; " + text
            else:
                self.labels[self.current] = text
            return self.current
        return self._enter_node(text, pos)

    def _exits(self) -> List[int]:
        """Sources of the dangling out-arcs at this point (empty if dead)."""
        if self.current is not None:
            return [self.current]
        return list(self.pending)

    def _resume(self, sources: List[int]) -> None:
        self.current = None
        self.pending = list(sources)

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

    def lower_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt, label: Optional[str] = None) -> None:
        pos = (stmt.line, stmt.col)
        if isinstance(stmt, ast.ExprStmt):
            self._append(stmt.text, pos)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._append(f"return {stmt.value}", pos)
            self.exit_sources += self._jump(pos)
        elif isinstance(stmt, ast.Break):
            self._target(stmt).breaks += self._jump(pos)
        elif isinstance(stmt, ast.Continue):
            head = self._target(stmt).head
            if head in self._exits():
                # A continue at the top of a loop body would be a self-arc,
                # which a loop-free edge set cannot hold; give it a node.
                self._enter_node("", pos)
            for src in self._jump(pos):
                self._arc(src, head)
        elif isinstance(stmt, ast.If):
            self.lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self.lower_loop(f"while ({stmt.cond})", stmt.body, None, pos, label)
        elif isinstance(stmt, ast.For):
            if stmt.init:
                self._append(stmt.init, pos)
            cond = stmt.cond if stmt.cond is not None else ""
            self.lower_loop(f"for ({cond})", stmt.body, stmt.step, pos, label)
        elif isinstance(stmt, ast.Switch):
            self.lower_switch(stmt)
        elif isinstance(stmt, ast.Labeled):
            self.lower_stmt(stmt.stmt, label=stmt.label)
        else:  # pragma: no cover - parser produces no other nodes
            raise TypeError(f"unknown statement {stmt!r}")

    def lower_if(self, stmt: ast.If) -> None:
        """An ``if`` and, in a loop, each ``if`` alone in the ``else``
        before it, so an ``else if`` chain of any length lowers."""
        exits = []
        while True:
            branch = self._append(f"if ({stmt.cond})", (stmt.line, stmt.col))
            self._resume([branch])
            self.lower_block(stmt.then)
            exits += self._exits()
            self._resume([branch])
            orelse = stmt.orelse
            if orelse is None:
                exits.append(branch)
                break
            if len(orelse.stmts) != 1 or not isinstance(orelse.stmts[0], ast.If):
                self.lower_block(orelse)
                exits += self._exits()
                break
            stmt = orelse.stmts[0]
        self._resume(exits)

    def lower_loop(self, head_label: str, body: ast.Block, step: Optional[str],
                   pos, label: Optional[str]) -> None:
        self._require_alive(pos)
        cond = self._enter_node(head_label, pos)
        target = _Target(cond, label)
        self.targets.append(target)
        self._resume([cond])
        if body.stmts:
            self.lower_block(body)
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
            self._arc(src, cond)  # back arc; the same nodes also exit the loop
        # A body that never falls through (it returns, breaks, or loops back
        # unconditionally) leaves the loop by the condition's false arc only.
        self._resume((body_exits or [cond]) + target.breaks)

    def lower_switch(self, stmt: ast.Switch) -> None:
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
            self.lower_block(body)
            join_exits.extend(self._exits())
        self.targets.pop()
        self._resume(join_exits + [test] + target.breaks)

    # assembly -----------------------------------------------------------

    def build(self) -> ControlFlowGraph:
        self.lower_block(self.fn.body)
        fn_pos = (self.fn.line, self.fn.col)
        if not self.labels:  # an empty body
            self._enter_node("", fn_pos)
        tail_sources = self._exits()
        exit_node = self._new_node(EXIT_LABEL, fn_pos)
        for src in tail_sources:
            self._arc(src, exit_node)
        for src in self.exit_sources:
            self._arc(src, exit_node)
        if not tail_sources and not self.exit_sources:
            raise UnreachableCode("function exit is unreachable (no path leaves "
                                  "the loops)", self.fn.line, self.fn.col,
                                  self.filename)
        start = 0
        edges = [(src, dst, ONE) for src, dst in self.arcs]
        virtual_arc = len(edges)
        edges.append((exit_node, start, ZERO))
        cfg = ControlFlowGraph(graph=WeightedDigraph(len(self.labels), edges),
                               start=start, exit=exit_node,
                               virtual_arc=virtual_arc,
                               node_labels=tuple(self.labels),
                               name=self.fn.name)
        check_reachability(cfg, self.positions, self.filename)
        return cfg


def lower(fn: ast.Function, filename: str = "<input>") -> ControlFlowGraph:
    return _Lowerer(fn, filename).build()
