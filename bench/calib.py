"""A fixed calibration kernel that measures how fast the host runs Python now.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes, for reasons outside the process (other tenants,
frequency changes). The drift scales every Python workload alike, so each
pass also times this kernel, and ``run.py`` scales its times by
``REFERENCE_S / median(kernel time)``: the seconds the pass would have taken
on a host where the kernel takes ``REFERENCE_S``.

The kernel is the benchmark's own code, never crosscc's, so a change to
crosscc cannot move it. It mixes the operations crosscc spends its time in:
breadth-first search that memoizes a frozenset of path edges per vertex,
unions and intersections of those sets with a dict keyed by frozensets,
``Fraction`` sums, and a character-by-character scan of source text.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Median kernel time on the host the baseline in README.md was taken on
# (2 shared cores, x86-64, CPython 3.11).
REFERENCE_S = 0.060

_VERTICES = 120
_SOURCES = range(_VERTICES)
_TEXT = "\n".join(f"  if (x{i} < {i * 7 % 13}) {{ y = f(y, {i}); }} else {{ z = z + 1; }}"
                  for i in range(60))


def _graph():
    rng = random.Random(20200301)
    edges = [(i, i + 1) for i in range(_VERTICES - 1)]
    edges += [tuple(rng.sample(range(_VERTICES), 2)) for _ in range(_VERTICES // 2)]
    incident = [[] for _ in range(_VERTICES)]
    for eid, (a, b) in enumerate(edges):
        incident[a].append((eid, b))
        incident[b].append((eid, a))
    weights = [Fraction(rng.choice((1, 1, 2, 3)), rng.choice((1, 2, 3))) for _ in edges]
    return edges, incident, weights


_EDGES, _INCIDENT, _WEIGHTS = _graph()


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is optimised away."""
    seen = {}
    for source in _SOURCES:
        paths = {source: frozenset()}
        dist = {source: Fraction(0)}
        queue = [source]
        for v in queue:
            for eid, u in _INCIDENT[v]:
                if u not in paths:
                    paths[u] = paths[v] | {eid}
                    dist[u] = dist[v] + _WEIGHTS[eid]
                    queue.append(u)
        for eid, (a, b) in enumerate(_EDGES):
            pa, pb = paths[a], paths[b]
            if eid in pa or eid in pb or pa & pb:
                continue
            seen.setdefault(pa | pb | {eid}, dist[a] + dist[b])
    depth = idents = 0
    for ch in _TEXT:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch.isalnum():
            idents += 1
    return len(seen) + depth + idents


def sample(reps: int = 3) -> float:
    """Median seconds of ``reps`` kernel runs."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


kernel()   # warm-up: the first run in a process is slower
