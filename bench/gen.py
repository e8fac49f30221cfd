"""Seeded corpus generators for the benchmark.

Two generators, both pure functions of a ``random.Random``:

* ``mini_function`` writes one structured MiniLang function with an exact
  number of decisions (if, loop, else-if arm, switch alternative). Nesting
  depth and block width are knobs. It uses if/else, else-if chains, while,
  for, switch with and without default, labeled loops with labeled
  break/continue, and early returns. Every program it writes is valid by
  construction: a jump only ends a block, is always preceded by an
  expression statement, and at least one arm of every construct falls
  through, so no statement is unreachable. The function's cycle rank is
  therefore ``decisions + 1``, which the benchmark checks independently of
  the tool.
* ``dot_cfg`` writes a weighted control-flow graph in the DOT subset: a
  start-to-exit backbone plus forward and back arcs, some of them parallel,
  with rational weights. Its cycle rank is ``arcs - nodes + 2``.

Neither generator writes deep nesting or non-UTF-8 text. Those are
robustness cases, which the benchmark does not cover.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import List, Optional, Tuple

_CONDS = ("a < b", "x != 0", "i < n", "ok(p)", "k % 3 == 0", "s[i] > t",
          "f(x, y) >= 2", "!done")
_EXPRS = ("x = x + 1", "y = f(x)", "total = total + a[i]", "log(\"step\")",
          "p = q * 2", "s[i] = t", "n = n - 1", "acc = g(acc, i)")
_WEIGHTS = (Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(5, 3),
            Fraction(2), Fraction(7, 4), Fraction(1, 3), Fraction(5, 2))


def _split(rng: random.Random, total: int, parts: int, minimum: int) -> List[int]:
    """Random composition of ``total`` into ``parts`` summands >= ``minimum``."""
    rest = total - parts * minimum
    cuts = sorted(rng.randint(0, rest) for _ in range(parts - 1))
    bounds = [0] + cuts + [rest]
    return [minimum + bounds[i + 1] - bounds[i] for i in range(parts)]


@dataclass
class _Ctx:
    """What a jump at the end of a block may target."""

    loops: Tuple[Optional[str], ...] = ()   # enclosing loops, innermost last
    breakable: bool = False                  # inside a loop or a switch


class _FunctionWriter:
    def __init__(self, rng: random.Random, depth: int, width: int):
        self.rng = rng
        self.max_depth = depth
        self.width = width
        self.lines: List[str] = []
        self.labels = 0

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("  " * indent + text)

    def expr(self, indent: int) -> None:
        self.emit(indent, self.rng.choice(_EXPRS) + ";")

    def cond(self) -> str:
        return self.rng.choice(_CONDS)

    def block(self, budget: int, depth: int, indent: int, ctx: _Ctx,
              may_jump: bool, loop_body: bool = False) -> None:
        """Statements with exactly ``budget`` decisions; may end in a jump.

        A loop body that falls through ends in an expression statement: the
        lowering gives every fall-through exit of a body its own back arc,
        so a body ending in a branch would add cycles beyond its decisions.
        """
        rng = self.rng
        if budget:
            parts = _split(rng, budget, rng.randint(1, min(self.width, budget)), 1)
        else:
            parts = []
        tail_expr = not parts or rng.random() < 0.5
        if tail_expr:
            self.expr(indent)
        for part in parts:
            self.compound(part, depth, indent, ctx)
            tail_expr = rng.random() < 0.4
            if tail_expr:
                self.expr(indent)
        if may_jump and rng.random() < 0.5:
            self.jump(indent, ctx)
        elif loop_body and not tail_expr:
            self.expr(indent)

    def jump(self, indent: int, ctx: _Ctx) -> None:
        rng = self.rng
        options = ["return;", "return r;"]
        if ctx.breakable:
            options.append("break;")
        if ctx.loops:
            options.append("continue;")
        labeled = [name for name in ctx.loops if name is not None]
        if labeled:
            options.append(f"break {rng.choice(labeled)};")
            options.append(f"continue {rng.choice(labeled)};")
        # A jump never starts a block, so it always leaves a node of its own.
        self.expr(indent)
        self.emit(indent, rng.choice(options))

    def compound(self, budget: int, depth: int, indent: int, ctx: _Ctx) -> None:
        """One branching statement worth exactly ``budget`` >= 1 decisions."""
        rng = self.rng
        nested = depth < self.max_depth
        kinds = ["if", "ifelse", "while", "for", "loop-labeled"]
        if budget >= 2:
            kinds += ["elif", "switch", "switch"]
        if not nested:
            # Flat constructs must absorb the whole budget themselves.
            kind = rng.choice(["elif", "switch"]) if budget >= 2 else rng.choice(kinds)
        else:
            kind = rng.choice(kinds)
        if kind == "elif":
            arms = budget if not nested else rng.randint(2, min(budget, 4))
            inner = _split(rng, budget - arms, arms + 1, 0) if nested else [0] * (arms + 1)
            fall = rng.randrange(arms + 1)
            for i in range(arms):
                head = "if" if i == 0 else "} else if"
                self.emit(indent, f"{head} ({self.cond()}) {{")
                self.block(inner[i], depth + 1, indent + 1, ctx, may_jump=i != fall)
            self.emit(indent, "} else {")
            self.block(inner[arms], depth + 1, indent + 1, ctx, may_jump=arms != fall)
            self.emit(indent, "}")
        elif kind == "switch":
            alts = budget if not nested else rng.randint(2, min(budget, 5))
            inner = _split(rng, budget - alts, alts, 0) if nested else [0] * alts
            with_default = rng.random() < 0.7
            fall = rng.randrange(alts)
            self.emit(indent, f"switch ({rng.choice(('op', 'k', 'tag(x)'))}) {{")
            inner_ctx = _Ctx(loops=ctx.loops, breakable=True)
            for i in range(alts):
                head = "default:" if with_default and i == alts - 1 else f"case {i}:"
                self.emit(indent + 1, head + " {")
                self.block(inner[i], depth + 1, indent + 2, inner_ctx, may_jump=i != fall)
                self.emit(indent + 1, "}")
            self.emit(indent, "}")
        elif kind in ("if", "ifelse"):
            self.emit(indent, f"if ({self.cond()}) {{")
            if kind == "if":
                self.block(budget - 1, depth + 1, indent + 1, ctx, may_jump=True)
            else:
                then_budget, else_budget = _split(rng, budget - 1, 2, 0)
                jumper = rng.randrange(2)
                self.block(then_budget, depth + 1, indent + 1, ctx, may_jump=jumper == 0)
                self.emit(indent, "} else {")
                self.block(else_budget, depth + 1, indent + 1, ctx, may_jump=jumper == 1)
            self.emit(indent, "}")
        else:
            label = None
            if kind == "loop-labeled":
                label = f"L{self.labels}"
                self.labels += 1
            head = (f"while ({self.cond()})" if rng.random() < 0.5
                    else "for (i = 0; i < n; i = i + 1)")
            self.emit(indent, f"{label + ': ' if label else ''}{head} {{")
            inner_ctx = _Ctx(loops=ctx.loops + (label,), breakable=True)
            self.block(budget - 1, depth + 1, indent + 1, inner_ctx, may_jump=True,
                       loop_body=True)
            self.emit(indent, "}")


def mini_function(rng: random.Random, name: str, decisions: int,
                  depth: int = 4, width: int = 3, chunk: int = 0) -> str:
    """One MiniLang function with exactly ``decisions`` branch points.

    With ``chunk``, the body is a sequence of statements of ``chunk``
    decisions each, so the shape of a large function varies less between
    seeds than one random split of the whole budget would.
    """
    writer = _FunctionWriter(rng, depth, width)
    writer.emit(0, f"fn {name}(a, b, n) {{")
    if chunk:
        for start in range(0, decisions, chunk):
            writer.expr(1)
            writer.compound(min(chunk, decisions - start), 0, 1, _Ctx())
    else:
        writer.block(decisions, 0, 1, _Ctx(), may_jump=False)
    if rng.random() < 0.5:
        writer.emit(1, "return total;")
    writer.emit(0, "}")
    return "\n".join(writer.lines) + "\n"


def stratified_sizes(rng: random.Random, count: int, median: float,
                     p90: float, largest: int) -> List[int]:
    """``count`` log-normal sizes at fixed quantiles, in seeded order.

    The same multiset of sizes comes out for every seed, so the total work of
    a corpus barely moves between seeds; only the order and the program
    structure change.
    """
    mu = math.log(median)
    sigma = (math.log(p90) - mu) / NormalDist().inv_cdf(0.9)
    sizes = [max(1, min(largest, round(math.exp(
        mu + sigma * NormalDist().inv_cdf((i + 0.5) / count)))))
        for i in range(count)]
    sizes[-1] = largest
    rng.shuffle(sizes)
    return sizes


def dot_cfg(rng: random.Random, name: str, nodes: int, extra_arcs: int,
            parallel: int) -> Tuple[str, int]:
    """A weighted DOT control-flow graph and its cycle rank.

    Every node sits on the ``n0 -> ... -> n<last>`` backbone, so each lies on
    a start-to-exit path. ``extra_arcs`` forward and back arcs join random
    distinct nodes, and ``parallel`` of all arcs are declared twice.
    """
    arcs = [(i, i + 1) for i in range(nodes - 1)]
    while len(arcs) < nodes - 1 + extra_arcs:
        a, b = rng.sample(range(nodes), 2)
        if (a, b) not in arcs:
            arcs.append((a, b))
    arcs += rng.sample(arcs, parallel)
    rng.shuffle(arcs)
    lines = [f"digraph {name} {{", '  start = "n0";', f'  exit = "n{nodes - 1}";']
    for a, b in arcs:
        weight = rng.choice(_WEIGHTS)
        lines.append(f"  n{a} -> n{b} [weight={weight}];")
    lines.append("}")
    nu = len(arcs) + 1 - nodes + 1   # the closing exit -> start arc adds one
    return "\n".join(lines) + "\n", nu
