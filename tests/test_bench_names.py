"""Every name the benchmark takes from ``crosscc`` still resolves.

The benchmark's own tests (``python -m pytest bench``) are not part of this
suite, so without this check a rename that breaks ``bench/`` would pass
here. The scan only reads ``bench/*.py``; it runs none of it.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
