"""The benchmark's workloads and the corpus each one writes from a seed.

A corpus is a directory of generated ``.mini`` or ``.dot`` files plus the
``crosscc analyze`` arguments to run over it. File names are relative, so
the report names units the same way wherever the corpus lives.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import gen

DEFAULT_SEED = 1
FUNCTIONS_PER_FILE = 15
FAIL_ABOVE = "3"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str                      # "exact" or "treebound"
    extra_args: Tuple[str, ...]
    expected_exit: int


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ci-exact",
             "CI traffic: default exact analyze over many small .mini functions, "
             "so per-call overhead of the basis layer shows",
             "exact", (), 0),
    Workload("ci-treebound",
             "the CI gate: treebound mode with --fail-above and exit 2; bypasses "
             "the exact basis, so the MiniLang frontend dominates",
             "treebound",
             ("--mode", "treebound", "--format", "csv", "--fail-above", FAIL_ABOVE), 2),
    Workload("exact-ladder",
             "one function per rung, V doubling from about 32 to about 256, "
             "exact mode: asymptotic cost, where the curve bends, and memory",
             "exact", (), 0),
    Workload("dot-weighted",
             "20 DOT CFGs with rational weights and parallel arcs, exact mode: "
             "the only traffic with non-0/1 weights and the DOT frontend",
             "exact", (), 0),
)}

# Target vertex counts of the ladder's rungs; the lowering makes about 2.4
# vertices per decision.
LADDER_VERTICES = (32, 64, 128, 256)
LADDER_CHUNK = 8
# The exact basis's time and memory follow V^2 times the mean path length
# (see _size), and the largest functions set a corpus's peak memory. In the
# exact-mode corpora, a function of at least TYPICAL_FROM decisions, and
# every DOT graph, is therefore the one, of CANDIDATES drawn from the seed,
# whose size is closest to the median size of CANDIDATES drawn from a fixed
# reference seed. The cost of a corpus then moves little from seed to seed.
# (The tree bound does not depend on path lengths, so ci-treebound draws
# every function once.)
TYPICAL_FROM = 40
CANDIDATES = 32


@dataclass
class Corpus:
    workload: Workload
    seed: int
    files: List[str] = field(default_factory=list)
    # source name in the report -> cycle rank known from the generator
    expected_nu: Dict[str, int] = field(default_factory=dict)

    @property
    def argv(self) -> List[str]:
        return ["analyze", *self.files, *self.workload.extra_args]

    @property
    def units(self) -> int:
        return len(self.expected_nu)

    @property
    def report_format(self) -> str:
        return "csv" if "csv" in self.workload.extra_args else "json"


def _write_mini_files(corpus: Corpus, root: Path, rng: random.Random,
                      sizes: List[int], depth: int, width: int,
                      per_file: int, prefix: str) -> None:
    for start in range(0, len(sizes), per_file):
        name = f"{prefix}{start // per_file:03d}.mini"
        chunks = []
        for i, decisions in enumerate(sizes[start:start + per_file]):
            fn = f"f{i:02d}"
            chunks.append(_function(rng, fn, decisions,
                                    select=corpus.workload.mode == "exact",
                                    depth=depth, width=width))
            corpus.expected_nu[f"{name}:{fn}"] = decisions + 1
        (root / name).write_text("\n".join(chunks), encoding="utf-8")
        corpus.files.append(name)


def _size(g) -> float:
    """V^2 times the mean unoriented distance from every eighth vertex."""
    from collections import deque

    total = count = 0
    for source in range(0, g.vertex_count, 8):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for e in g.incident(v):
                u = e.other(v)
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        total += sum(dist.values())
        count += len(dist)
    return g.vertex_count ** 2 * total / count


def _mini_size(text: str) -> float:
    from crosscc.cfg import lower
    from crosscc.minilang import parse
    return _size(lower(parse(text).functions[0]).graph)


def _dot_size(drawn: Tuple[str, int]) -> float:
    from crosscc.dot import parse_dot
    return _size(parse_dot(drawn[0]).to_cfg().graph)


_TYPICAL: Dict[str, float] = {}


def _typical(rng: random.Random, key: str, draw: Callable, size: Callable):
    """Of CANDIDATES ``draw(rng)``, the one whose ``size`` is closest to the
    median size of CANDIDATES drawn from the fixed reference seed ``key``."""
    if key not in _TYPICAL:
        reference = random.Random(f"reference:{key}")
        _TYPICAL[key] = statistics.median(size(draw(reference)) for _ in range(CANDIDATES))
    return min((draw(rng) for _ in range(CANDIDATES)),
               key=lambda drawn: abs(size(drawn) - _TYPICAL[key]))


def _function(rng: random.Random, name: str, decisions: int, select: bool,
              **shape) -> str:
    """One function; with ``select``, a large one is picked for a typical size."""
    def draw(r):
        return gen.mini_function(r, name, decisions, **shape)
    if not select or decisions < TYPICAL_FROM:
        return draw(rng)
    return _typical(rng, f"{decisions}:{sorted(shape.items())}", draw, _mini_size)


def write_corpus(name: str, seed: int, root: Path, scale: float = 1.0) -> Corpus:
    """Write workload ``name``'s corpus for ``seed`` into ``root``.

    ``scale`` below 1 shrinks the corpus for smoke tests.
    """
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    corpus = Corpus(workload, seed)
    if name in ("ci-exact", "ci-treebound"):
        files = 4 if name == "ci-exact" else 40
        count = max(2, round(files * scale)) * FUNCTIONS_PER_FILE
        sizes = gen.stratified_sizes(rng, count, median=3, p90=16,
                                     largest=max(4, round(60 * scale)))
        _write_mini_files(corpus, root, rng, sizes, depth=4, width=3,
                          per_file=FUNCTIONS_PER_FILE, prefix="m")
    elif name == "exact-ladder":
        for k, target in enumerate(LADDER_VERTICES):
            target = max(8, round(target * scale))
            decisions = round(target / 2.4)
            fname = f"rung{k}.mini"
            text = _function(rng, "f", decisions, select=True, depth=3, width=3,
                             chunk=LADDER_CHUNK)
            (root / fname).write_text(text, encoding="utf-8")
            corpus.files.append(fname)
            corpus.expected_nu[f"{fname}:f"] = decisions + 1
    else:
        for i in range(max(2, round(20 * scale))):
            nodes = max(6, round(48 * scale))
            fname = f"g{i:02d}.dot"

            def draw(r, name=f"g{i:02d}", nodes=nodes):
                return gen.dot_cfg(r, name, nodes, extra_arcs=nodes * 9 // 16,
                                   parallel=nodes // 12)
            text, nu = _typical(rng, f"dot:{nodes}", draw, _dot_size)
            (root / fname).write_text(text, encoding="utf-8")
            corpus.files.append(fname)
            corpus.expected_nu[fname] = nu
    return corpus
