import random
from fractions import Fraction
from pathlib import Path

import pytest

from crosscc.graph import SpanningTree, WeightedDigraph

FIXTURES = Path(__file__).parent / "fixtures"
BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def weight_of(g: WeightedDigraph, edge_ids) -> Fraction:
    """The exact total weight of the edges ``edge_ids`` of ``g``."""
    return sum((g.edge(i).weight for i in edge_ids), Fraction(0))


def assert_checked(g: WeightedDigraph) -> None:
    """The frontends build their graphs without the public constructor's
    checks; rebuilt through it, which checks every edge, ``g`` is the same."""
    assert WeightedDigraph(g.vertex_count, g.edges).edges == g.edges
    assert all(e.weight.__class__ is Fraction for e in g.edges)


def weighted_fan() -> WeightedDigraph:
    """Hub a joined to b,c,d,e plus the rim b-c, c-d, d-e; the worked
    weighted example used throughout the suite (weights 1,3,5,4,2,7,6)."""
    a, b, c, d, e = range(5)
    return WeightedDigraph(
        5,
        [(a, b, 1), (a, c, 3), (a, d, 5), (a, e, 4), (b, c, 2), (c, d, 7), (d, e, 6)],
    )


# Edge-id sets of the three marked spanning trees of weighted_fan().
FAN_TREE_1 = (0, 2, 3, 4)   # a-b, a-d, a-e, b-c
FAN_TREE_2 = (2, 4, 5, 6)   # a-d, b-c, c-d, d-e
FAN_TREE_3 = (0, 1, 2, 3)   # a-b, a-c, a-d, a-e


def negative_weight_pentagon() -> WeightedDigraph:
    """Five vertices, seven arcs with mixed-sign weights summing to -1/2."""
    a, b, c, d, e = range(5)
    return WeightedDigraph(
        5,
        [(a, b, 4), (b, c, -1), (a, c, 0), (a, d, "1/2"), (c, d, 1),
         (c, e, 5), (d, e, -10)],
    )


def random_connected_graph(rng: random.Random, max_vertices: int = 9,
                           max_nu: int = 5) -> WeightedDigraph:
    """Random connected simple unit-weight graph: a random tree plus up to
    max_nu extra edges (so the cycle rank is exactly the number of extras)."""
    n = rng.randint(2, max_vertices)
    edges = []
    present = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, 1))
        present.add((u, v))
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in present]
    rng.shuffle(candidates)
    for u, v in candidates[:rng.randint(0, max_nu)]:
        edges.append((u, v, 1))
    return WeightedDigraph(n, edges)


CORPUS_WEIGHTS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
                  Fraction(3, 2), Fraction(7, 4), Fraction(2))


def random_weighted_multigraph(rng: random.Random, max_vertices: int = 8,
                               max_nu: int = 5) -> WeightedDigraph:
    """Random connected graph with weights from CORPUS_WEIGHTS, random arc
    directions, and extra arcs of which about a third run parallel to an
    existing arc (either direction)."""
    n = rng.randint(2, max_vertices)
    arcs = []
    for v in range(1, n):
        arcs.append((rng.randrange(v), v))
    for _ in range(rng.randint(0, max_nu)):
        if rng.random() < 0.35:
            u, v = rng.choice(arcs)
        else:
            u, v = rng.sample(range(n), 2)
        arcs.append((u, v))
    edges = []
    for u, v in arcs:
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((u, v, rng.choice(CORPUS_WEIGHTS)))
    return WeightedDigraph(n, edges)


def random_spanning_tree(g: WeightedDigraph, rng: random.Random) -> SpanningTree:
    """Kruskal over a shuffled edge order: a uniform-ish random spanning tree."""
    order = list(range(g.edge_count))
    rng.shuffle(order)
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for eid in order:
        e = g.edge(eid)
        ru, rv = find(e.source), find(e.target)
        if ru != rv:
            parent[ru] = rv
            chosen.append(eid)
    return SpanningTree.from_edge_ids(g, 0, chosen)


def weighted_dot_cfg(rng, nodes=48, extra=27, parallel=4):
    """DOT text of a weighted CFG: a start-to-exit chain, ``extra`` random
    arcs, and ``parallel`` of those arcs declared a second time."""
    arcs = [(i, i + 1) for i in range(nodes - 1)]
    arcs += [tuple(rng.sample(range(nodes), 2)) for _ in range(extra)]
    arcs += rng.sample(arcs, parallel)
    body = "".join(f"  n{u} -> n{v} [weight={rng.choice(CORPUS_WEIGHTS)}];\n"
                   for u, v in arcs)
    return f"digraph g {{\n  start=n0; exit=n{nodes - 1};\n{body}}}\n"
