"""Correctness of a pass's report, and the expected reports of the default seed.

Every pass a run makes is checked:

* on ``DEFAULT_SEED`` the report must equal, byte for byte, the expected
  report stored in ``expected/<workload>.json``, which was verified
  independently when it was made (see ``make_expected``);
* on any other seed, each record must satisfy the invariants: the cycle rank
  the generator built in, ``indicator = omega / nu``, the region the band
  rule gives, ``tree bound >= omega`` in exact mode, ``omega >= nu`` on
  unit weights, and ``omega`` equal to the brute-force oracle (in treebound
  mode, at least the oracle) on every unit small enough for it.

A unit is *wrong* when its record differs from the reference, and *failed*
when it is missing from the report, or when its pass crashed or exited with
an unexpected code.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from corpus import DEFAULT_SEED, Corpus

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
# The oracle enumerates every simple cycle, up to 2**nu - 1 of them. A run
# checks units up to the first rank (a few ms each); making an expected
# report checks units up to the second (under a second each; beyond it the
# enumeration can run for minutes before it reaches its cycle limit).
ORACLE_MAX_NU = 8
ORACLE_MAX_NU_EXPECTED = 16
# networkx takes tens of seconds on an 80-vertex graph, so only this many of
# the largest units up to this size are checked with it, and only when an
# expected report is made.
NETWORKX_SAMPLE = 3
NETWORKX_MAX_VERTICES = 90

Record = Tuple[str, ...]   # unit, nu, omega, provenance, region, indicator


def parse_report(text: str, fmt: str) -> Dict[str, Record]:
    """source -> record fields as the report prints them."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return {r[2]: (r[1], r[3], r[4], r[5], r[6], r[7]) for r in rows}
    return {r["source"]: tuple(str(r[k]) for k in
                               ("unit", "nu", "omega", "provenance", "region", "indicator"))
            for r in json.loads(text)["records"]}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def graphs_of(corpus: Corpus, root: Path):
    """source -> (graph, start vertex), built by crosscc's own frontends."""
    from crosscc.cfg import lower
    from crosscc.dot import parse_dot
    from crosscc.minilang import parse
    out = {}
    for name in corpus.files:
        text = (root / name).read_text(encoding="utf-8")
        if name.endswith(".mini"):
            for fn in parse(text, name).functions:
                cfg = lower(fn, name)
                out[f"{name}:{fn.name}"] = (cfg.graph, cfg.start)
        else:
            cfg = parse_dot(text, name).to_cfg()
            out[name] = (cfg.graph, cfg.start)
    return out


def _prints_as(reported: str, exact: Fraction) -> bool:
    """A report prints integral values as ints and the rest as floats."""
    if exact.denominator == 1:
        return reported == str(exact.numerator)
    return reported == repr(float(exact))


def invariant_failures(corpus: Corpus, records: Dict[str, Record], graphs,
                       oracle_max_nu: int = ORACLE_MAX_NU) -> List[str]:
    """Sources whose record breaks an invariant or disagrees with the oracle."""
    from crosscc.basis import oracle_min_basis, tree_bound
    from crosscc.errors import TooLarge
    from crosscc.graph import spanning_tree

    exact_mode = corpus.workload.mode == "exact"
    wrong = []
    for source, (_unit, nu_s, omega_s, provenance, region, indicator) in records.items():
        if source not in graphs:
            wrong.append(source)
            continue
        graph, start = graphs[source]
        nu, omega = int(nu_s), Fraction(omega_s)
        band = ("infeasible" if omega < nu else
                "trivial-band" if omega < 2 * nu else "non-trivial")
        ok = (nu == corpus.expected_nu[source]
              and region == band
              and provenance == ("exact" if exact_mode else "tree-bound")
              # a non-integral omega prints as a float, so compare in floats
              and abs(float(indicator) - float(omega) / nu) <= 1e-12 * float(omega))
        if source.endswith(".mini"):
            ok = ok and omega >= nu
        if ok and exact_mode:
            ok = tree_bound(graph, spanning_tree(graph, start)).total_weight >= omega
        if ok and nu <= oracle_max_nu:
            try:
                oracle = oracle_min_basis(graph).total_weight
                ok = _prints_as(omega_s, oracle) if exact_mode else omega >= oracle
            except TooLarge:
                pass
        if not ok:
            wrong.append(source)
    return wrong


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(corpus: Corpus) -> Optional[dict]:
    """The stored expected report for this corpus; None off the default seed."""
    path = expected_path(corpus.workload.name)
    if corpus.seed != DEFAULT_SEED or not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["records"] = {r[0]: tuple(r[1:]) for r in doc["records"]}
    return doc


def networkx_omega(graph) -> Fraction:
    """Minimum cycle basis weight by networkx, on the graph with every edge
    subdivided so that parallel arcs stay distinct cycles."""
    import networkx as nx
    g = nx.Graph()
    for e in graph.edges:
        mid = ("e", e.id)
        g.add_edge(e.source, mid, weight=e.weight)
        g.add_edge(mid, e.target, weight=Fraction(0))
    total = Fraction(0)
    for cycle in nx.minimum_cycle_basis(g, weight="weight"):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            total += g[a][b]["weight"]
    return total


def make_expected(corpus: Corpus, root: Path, run_cli) -> dict:
    """Make, verify and store the expected report of a default-seed corpus.

    ``run_cli()`` runs one CLI pass over the corpus written in ``root`` and
    returns its result and report bytes. Every record must pass the
    invariants and agree with ``horton_basis`` (treebound records must be at
    least its value), and ``horton_basis`` must agree with the oracle on
    every unit up to ``ORACLE_MAX_NU_EXPECTED`` and with networkx on a sample.
    """
    from crosscc.basis import horton_basis, oracle_min_basis

    workload = corpus.workload.name
    result, data = run_cli()
    records = parse_report(data.decode("utf-8"), corpus.report_format)
    problems = []
    if result["exit_code"] != corpus.workload.expected_exit:
        problems.append(f"exit code {result['exit_code']}")
    if set(records) != set(corpus.expected_nu):
        problems.append("report does not list every unit")
    graphs = graphs_of(corpus, root)
    problems += invariant_failures(corpus, records, graphs, oracle_max_nu=0)
    counts = {"bounds": len(records), "oracle": 0, "networkx": 0}
    sample = sorted((s for s in records
                     if graphs[s][0].vertex_count <= NETWORKX_MAX_VERTICES),
                    key=lambda s: -graphs[s][0].vertex_count)[:NETWORKX_SAMPLE]
    exact_mode = corpus.workload.mode == "exact"
    for source, record in records.items():
        graph = graphs[source][0]
        exact = horton_basis(graph).total_weight
        if not (_prints_as(record[2], exact) if exact_mode
                else Fraction(record[2]) >= exact):
            problems.append(f"{source}: {record[2]} against exact {exact}")
        if int(record[1]) <= ORACLE_MAX_NU_EXPECTED:
            counts["oracle"] += 1
            if oracle_min_basis(graph).total_weight != exact:
                problems.append(f"{source}: oracle disagrees with exact {exact}")
        if source in sample:
            counts["networkx"] += 1
            if networkx_omega(graph) != exact:
                problems.append(f"{source}: networkx disagrees with {exact}")
    if problems:
        raise SystemExit(f"{workload}: expected report not made: {problems[:5]}")
    rows = ",\n".join("  " + json.dumps([s, *r]) for s, r in sorted(records.items()))
    head = json.dumps({"workload": workload, "seed": DEFAULT_SEED,
                       "exit_code": result["exit_code"], "bytes": len(data),
                       "sha256": sha256(data), "verified": counts})
    EXPECTED_DIR.mkdir(exist_ok=True)
    expected_path(workload).write_text(
        head[:-1] + ', "records": [\n' + rows + "\n]}\n", encoding="utf-8")
    return counts
