"""The package has no runtime dependencies, as ``pyproject.toml`` declares.

The test extras (``networkx``, ``hypothesis``) are importable wherever the
suite runs, so a stray import of one in ``src/crosscc`` would pass every
other test. The scan reads the sources; it imports none of them.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crosscc"


def absolute_imports():
    """The top-level module of every absolute import in ``src/crosscc/*.py``,
    imports inside functions included."""
    modules = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


def test_every_absolute_import_is_from_the_standard_library():
    modules = absolute_imports()
    assert {"fractions", "math", "re", "argparse", "__future__"} <= modules
    assert sorted(modules - sys.stdlib_module_names) == []
