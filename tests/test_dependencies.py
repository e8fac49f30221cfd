"""The package has no runtime dependencies, as ``pyproject.toml`` declares.

The test extras (``networkx``, ``hypothesis``) are importable wherever the
suite runs, so a stray import of one in ``src/crosscc`` would pass every
other test. The scan reads the sources; it imports none of them.

The suite's own imports are held to ``pyproject.toml`` the same way: each
is from the standard library, ``crosscc``, a file of ``tests/``, or the
``test`` extra, so the documented install collects every test file.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crosscc"
TESTS = Path(__file__).resolve().parent


def absolute_imports(directory: Path):
    """The top-level module of every absolute import in ``directory/*.py``,
    imports inside functions included."""
    modules = set()
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


def test_every_absolute_import_is_from_the_standard_library():
    modules = absolute_imports(PACKAGE)
    assert {"fractions", "math", "re", "argparse", "__future__"} <= modules
    assert sorted(modules - sys.stdlib_module_names) == []


def declared_test_dependencies():
    """The distribution names of ``pyproject.toml``'s ``test`` extra, without
    version specifiers or markers."""
    with open(TESTS.parent / "pyproject.toml", "rb") as f:
        extra = tomllib.load(f)["project"]["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in extra}


def test_every_module_the_tests_import_is_declared():
    modules = absolute_imports(TESTS)
    assert {"pytest", "hypothesis", "networkx", "crosscc", "conftest"} <= modules
    local = {path.stem for path in TESTS.glob("*.py")}
    undeclared = (modules - sys.stdlib_module_names - {"crosscc"} - local
                  - declared_test_dependencies())
    assert sorted(undeclared) == []
