"""Properties of generated MiniLang functions: nu is McCabe's count, the
tree bound never undercuts the exact minimum, and a DOT round trip keeps
the pair.

The generator nests if/else with ``else if`` arms, while, for (with and
without init and step), switch (with and without default), and
break/continue/return with and without labels; every statement may stand
under a chain of labels. Every function it writes is reachable: a
block ends at its first statement that cannot fall through. It counts
decisions as complexity checkers do: one per if, ``else if`` arm and loop,
one per switch alternative, ``default`` included. With ``dead_code`` it
also writes statements after a jump, which the lowerer must reject.

The lowerer is held to ``cfg_reference``, the recursive lowerer it
replaced: the same ``dump-cfg`` text, or the same diagnostic, on every
generated function and every fixture.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import basis_reference
import cfg_reference
from crosscc.basis import Provenance, tree_bound
from crosscc.cfg import lower
from crosscc.dot import dump_cfg_dot, parse_dot
from crosscc.errors import CrossCCError
from crosscc.graph import cycle_rank, spanning_tree
from crosscc.metric import cross_complexity
from crosscc.minilang import parse

from conftest import FIXTURES

MAX_DEPTH = 3


class _Writer:
    def __init__(self, draw, dead_code=False):
        self.draw = draw
        self.dead_code = dead_code
        self.decisions = 0
        self.labels = 0

    def block(self, depth, loops, breakable):
        """``{ ... }`` and whether control can fall out of its end.

        ``loops`` holds the label (or None) of each enclosing loop, innermost
        last; ``breakable`` says whether a bare ``break`` has a target.
        """
        stmts, falls_through = [], True
        for _ in range(self.draw(st.integers(0, 3))):
            text, falls_through = self.stmt(depth, loops, breakable)
            stmts.append(text)
            if not falls_through and not self.dead_code:
                break
        return "{ " + " ".join(stmts) + " }", falls_through

    def stmt(self, depth, loops, breakable):
        """A statement under a chain of 0 to 2 fresh labels, and whether
        control can fall out of it. A loop is the target of the label
        nearest to it."""
        labels = [f"L{self.labels + i}" for i in range(self.draw(st.integers(0, 2)))]
        self.labels += len(labels)
        text, falls_through = self.unlabeled(depth, loops, breakable,
                                             labels[-1] if labels else None)
        return "".join(f"{label}: " for label in labels) + text, falls_through

    def unlabeled(self, depth, loops, breakable, label):
        kinds = ["expr", "return", "return value"]
        if depth < MAX_DEPTH:
            kinds += ["if", "if-else", "while", "for", "switch"]
        if breakable:
            kinds.append("break")
        if loops:
            kinds.append("continue")
        kind = self.draw(st.sampled_from(kinds))
        if kind == "expr":
            return "x = x + 1;", True
        if kind == "return":
            return "return;", False
        if kind == "return value":
            return "return x;", False
        if kind in ("break", "continue"):
            targets = [None] + [name for name in loops if name is not None]
            target = self.draw(st.sampled_from(targets))
            return (f"{kind} {target};" if target else f"{kind};"), False
        self.decisions += 1
        if kind in ("if", "if-else"):
            then, falls_through = self.block(depth + 1, loops, breakable)
            text = f"if (c) {then}"
            for _ in range(self.draw(st.integers(0, 2))):
                self.decisions += 1
                arm, arm_falls = self.block(depth + 1, loops, breakable)
                text, falls_through = f"{text} else if (c) {arm}", falls_through or arm_falls
            if kind == "if":
                return text, True
            orelse, else_falls = self.block(depth + 1, loops, breakable)
            return f"{text} else {orelse}", falls_through or else_falls
        if kind == "switch":
            cases = self.draw(st.integers(0, 2))
            default = self.draw(st.booleans()) or cases == 0
            self.decisions += cases + default - 1
            arms = [f"case {i}: " + self.block(depth + 1, loops, True)[0]
                    for i in range(cases)]
            if default:
                arms.append("default: " + self.block(depth + 1, loops, True)[0])
            return "switch (s) { " + " ".join(arms) + " }", True
        body, _ = self.block(depth + 1, loops + [label], True)
        if kind == "while":
            head = "while (c)"
        else:
            init = self.draw(st.sampled_from(["", "i = 0"]))
            step = self.draw(st.sampled_from(["", "i = i + 1"]))
            head = f"for ({init}; i < n; {step})"
        return f"{head} {body}", True


@st.composite
def functions(draw, dead_code=False):
    """(source of one function, its number of decisions); reachable unless
    ``dead_code``."""
    writer = _Writer(draw, dead_code)
    body, _ = writer.block(0, [], False)
    return f"fn f() {body}", writer.decisions


def lower_one(source):
    return lower(parse(source).functions[0])


@settings(max_examples=300, deadline=None)
@given(functions())
@example(("fn f() { while (c) { if (c) { x = x + 1; } } }", 2))
@example(("fn f() { for (; i < n; ) { if (c) { break; } else { } } }", 2))
@example(("fn f() { L0: while (c) { switch (s) { case 0: { continue L0; } "
          "default: { } } } }", 3))
def test_cycle_rank_is_decisions_plus_one(program):
    source, decisions = program
    assert cycle_rank(lower_one(source).graph) == decisions + 1, source


@settings(max_examples=150, deadline=None)
@given(functions())
def test_tree_bound_is_at_least_exact(program):
    cfg = lower_one(program[0])
    exact = cross_complexity(cfg, mode=Provenance.EXACT)
    bound = cross_complexity(cfg, mode=Provenance.TREE_BOUND)
    assert bound.nu == exact.nu
    assert bound.omega_min >= exact.omega_min


@settings(max_examples=150, deadline=None)
@given(functions())
def test_tree_bound_matches_reference(program):
    # The root-path masks against the climb they replaced (basis_reference).
    g = lower_one(program[0]).graph
    t = spanning_tree(g, 0)
    cycles, total = basis_reference.tree_bound(g, t)
    bound = tree_bound(g, t)
    assert (bound.cycles, bound.total_weight) == (cycles, total)


@settings(max_examples=150, deadline=None)
@given(functions())
def test_dump_cfg_dot_round_trip_keeps_the_pair(program):
    cfg = lower_one(program[0])
    again = parse_dot(dump_cfg_dot(cfg)).to_cfg()
    for mode in (Provenance.EXACT, Provenance.TREE_BOUND):
        before = cross_complexity(cfg, mode=mode)
        after = cross_complexity(again, mode=mode)
        assert (after.nu, after.omega_min) == (before.nu, before.omega_min)


def lowered(lower_fn, fn):
    """One function's ``dump-cfg`` text, or its diagnostic."""
    try:
        return dump_cfg_dot(lower_fn(fn, "t.mini"))
    except CrossCCError as err:
        return type(err).__name__, str(err), err.line, err.col


def assert_lowerers_agree(source):
    for fn in parse(source, "t.mini").functions:
        assert lowered(lower, fn) == lowered(cfg_reference.lower, fn), source


@settings(max_examples=300, deadline=None)
@given(st.one_of(functions(), functions(dead_code=True)))
@example(("fn f() { L: M: while (c) { continue M; } return; x; }", 1))
def test_lowerer_matches_reference(program):
    assert_lowerers_agree(program[0])


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.mini")), ids=lambda p: p.name)
def test_lowerer_matches_reference_on_fixtures(path):
    assert_lowerers_agree(path.read_text(encoding="utf-8"))
