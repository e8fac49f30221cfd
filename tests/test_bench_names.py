"""Every name the benchmark takes from ``crosscc`` still resolves.

The benchmark's own tests (``python -m pytest bench``) are not part of this
suite, so without this check a rename that breaks ``bench/`` would pass
here. The scan only reads ``bench/*.py``. The last test runs the graph
walks ``bench/`` makes through methods of crosscc objects, which no name
shows.
"""

import ast
import importlib

from crosscc.basis import horton_basis
from crosscc.dot import parse_dot

from conftest import BENCH, fixture_text


def _dotted(node):
    """``a.b.c`` for an attribute chain over a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def bench_names():
    """The dotted ``crosscc`` names ``bench/*.py`` uses: each module it
    imports, each name it imports from one, and each attribute it reads
    through one (``crosscc.cli.main``)."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module:
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(_dotted(node))
    return {name for name in names if name and name.split(".")[0] == "crosscc"}


def resolves(dotted):
    """True when the longest prefix of ``dotted`` that imports as a module
    has the rest of it as an attribute chain."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for part in parts[i:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def test_every_name_the_benchmark_imports_resolves():
    names = bench_names()
    # The scan sees the imports inside functions too.
    assert {"crosscc.basis.tree_bound", "crosscc.graph.spanning_tree",
            "crosscc.errors.TooLarge", "crosscc.cli.main"} <= names
    assert [name for name in sorted(names) if not resolves(name)] == []


def test_the_graph_walks_the_benchmark_runs_still_work(monkeypatch):
    # The scan above sees names, not the methods bench/ calls on crosscc
    # objects: corpus._size walks g.incident(v) and e.other(v), and
    # check.networkx_omega reads each edge's id, endpoints and weight.
    monkeypatch.syspath_prepend(str(BENCH))
    corpus = importlib.import_module("corpus")
    check = importlib.import_module("check")
    dot = fixture_text("mccabe_g1.dot")
    assert corpus._mini_size(fixture_text("listing1.mini")) > 0
    assert corpus._dot_size((dot, 0)) > 0
    g = parse_dot(dot).to_cfg().graph
    assert check.networkx_omega(g) == horton_basis(g).total_weight
