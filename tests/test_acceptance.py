"""Acceptance suite: every release criterion, one test each, zero tolerance.

Each test prints a single ``ACCEPTANCE <id> <name>: PASS|FAIL`` line so a
log scrape shows the full checklist (run pytest with -s or -rA to see them).
Expected values are exact: weights are integers or exact rationals
throughout, so there are no tolerances to tune.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from crosscc.basis import (
    Provenance,
    _greedy_independent,
    horton_basis,
    oracle_min_basis,
    tree_bound,
)
from crosscc.cfg import lower
from crosscc.cli import main
from crosscc.dot import parse_dot
from crosscc.graph import SpanningTree, cycle_rank
from crosscc.metric import cross_complexity
from crosscc.minilang import parse

from conftest import (
    FIXTURES,
    FAN_TREE_1,
    FAN_TREE_2,
    FAN_TREE_3,
    fixture_text,
    random_connected_graph,
    random_spanning_tree,
    weighted_fan,
)

# Frozen oracle-derived values for the two same-MCC functions: the pair
# separates them even though both have cyclomatic number 4.
SUM_OF_PRIMES_OMEGA = Fraction(15)
GET_WORDS_OMEGA = Fraction(11)

# Tree-bound weights recomputed from the drawn spanning trees of the three
# published example graphs (see DISCREPANCIES.md for the published values).
PIPELINE_EXPECTED = {
    "bubble_sort.dot": (4, Fraction(12)),
    "mccabe_g1.dot": (6, Fraction(24)),
    "mccabe_g2.dot": (10, Fraction(51)),
}

# The fundamental cycle weights of each drawn tree, sorted; they add up to
# the omega above (DISCREPANCIES.md quotes those of mccabe_g2.dot).
PIPELINE_CYCLE_WEIGHTS = {
    "bubble_sort.dot": [2, 3, 3, 4],
    "mccabe_g1.dot": [3, 3, 4, 4, 4, 6],
    "mccabe_g2.dot": [3, 3, 3, 3, 5, 5, 5, 6, 9, 9],
}


@contextmanager
def criterion(ident, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {ident} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {ident} {name}: PASS")


def test_01_atomic_structures():
    with criterion(1, "atomic-structures"):
        expected = {
            "atomic_seq.mini": (1, 1),
            "atomic_if.mini": (2, 3),
            "atomic_ifelse.mini": (2, 4),
            "atomic_while.mini": (2, 4),
        }
        for name, pair in expected.items():
            cfg = lower(parse(fixture_text(name)).functions[0])
            cc = cross_complexity(cfg, mode=Provenance.EXACT)
            assert (cc.nu, cc.omega_min) == pair, f"{name}: {(cc.nu, cc.omega_min)} != {pair}"


def test_02_weighted_fan_exact_and_tree_bounds():
    with criterion(2, "weighted-fan"):
        g = weighted_fan()
        assert horton_basis(g).total_weight == 36
        for ids, expected in [(FAN_TREE_1, 36), (FAN_TREE_2, 45), (FAN_TREE_3, 36)]:
            t = SpanningTree.from_edge_ids(g, 0, ids)
            assert tree_bound(g, t).total_weight == expected


def test_03_gf2_worked_example():
    with criterion(3, "gf2-rank"):
        # One column per cycle; the leftmost character is edge 0.
        columns = ["1110000", "0001110", "0010101"]
        masks = [int(c[::-1], 2) for c in columns]
        assert len(_greedy_independent(masks, len(masks))) == 3


def test_04_listing_parity():
    with criterion(4, "same-mcc-separated"):
        cfgs = [lower(fn) for fn in parse(fixture_text("listing1.mini")).functions]
        assert [c.name for c in cfgs] == ["sumOfPrimes", "getWords"]
        assert [cycle_rank(c.graph) for c in cfgs] == [4, 4]
        omegas = [horton_basis(c.graph).total_weight for c in cfgs]
        assert omegas == [SUM_OF_PRIMES_OMEGA, GET_WORDS_OMEGA]
        assert omegas[0] != omegas[1]
        for c, frozen in zip(cfgs, omegas):
            assert oracle_min_basis(c.graph).total_weight == frozen


def test_05_figure_pipeline(tmp_path, capsys):
    with criterion(5, "figure-pipeline"):
        for name, (nu, omega) in PIPELINE_EXPECTED.items():
            out = tmp_path / (name + ".json")
            assert main(["analyze", "--mode", "treebound",
                         str(FIXTURES / name), "-o", str(out)]) == 0
            (rec,) = json.loads(out.read_text(encoding="utf-8"))["records"]
            assert rec["nu"] == nu, name
            assert rec["omega"] == omega, name
            # Same numbers straight from the library, bypassing the CLI.
            doc = parse_dot(fixture_text(name))
            assert cycle_rank(doc.graph) == nu
            bound = tree_bound(doc.graph, doc.marked_tree())
            assert bound.total_weight == omega
            assert sorted(c.weight for c in bound.cycles) == PIPELINE_CYCLE_WEIGHTS[name]


def test_06_oracle_equivalence_on_random_corpus():
    with criterion(6, "oracle-equivalence"):
        rng = random.Random(20260810)
        for _ in range(200):
            g = random_connected_graph(rng, max_vertices=9, max_nu=5)
            assert horton_basis(g).total_weight == oracle_min_basis(g).total_weight


def test_07_bound_properties_on_random_corpus():
    with criterion(7, "bound-properties"):
        rng = random.Random(19870101)
        for _ in range(200):
            g = random_connected_graph(rng, max_vertices=9, max_nu=5)
            nu = cycle_rank(g)
            exact = horton_basis(g).total_weight
            assert exact >= nu
            if nu >= 1:
                assert exact >= 2 * nu
            for _ in range(3):
                t = random_spanning_tree(g, rng)
                assert tree_bound(g, t).total_weight >= exact


def test_08_end_to_end_determinism(tmp_path):
    with criterion(8, "determinism"):
        corpus = sorted(str(p) for p in FIXTURES.iterdir()
                        if p.suffix in (".mini", ".dot"))
        outputs = []
        for run in ("one", "two"):
            report = tmp_path / f"report_{run}.json"
            svg = tmp_path / f"plot_{run}.svg"
            assert main(["analyze", *corpus, "-o", str(report)]) == 0
            assert main(["plot", str(report), "-o", str(svg)]) == 0
            outputs.append((report.read_bytes(), svg.read_bytes(),
                            svg.with_suffix(".csv").read_bytes()))
        assert outputs[0] == outputs[1]


def test_09_indicator_ordering():
    with criterion(9, "indicator-ordering"):
        published = [("bubble_sort", 4, 12), ("mccabe_g1", 6, 24),
                     ("mccabe_g2", 10, 47)]
        indicators = [Fraction(om, nu) for _, nu, om in published]
        assert [float(i) for i in indicators] == [3.0, 4.0, 4.7]
        assert indicators[0] < indicators[1] < indicators[2]
