"""The package has no runtime dependencies, as ``pyproject.toml`` declares.

The test extras (``networkx``, ``hypothesis``) are importable wherever the
suite runs, so a stray import of one in ``src/crosscc`` would pass every
other test. The scan reads the sources; it imports none of them.

The suite's own imports are held to ``pyproject.toml`` the same way: each
is from the standard library, ``crosscc``, a file of ``tests/``, or the
``test`` extra, so the documented install collects every test file.

A test extra's own warnings must not end the run: ``pyproject.toml`` turns
warnings into errors, and a failing hypothesis test loads ``libcst``.
"""

import ast
import re
import subprocess
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


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # On failure, hypothesis's plugin imports libcst to write a patch, and
    # libcst warns on import. Under the repository's configuration the run
    # must still report both tests, not stop with INTERNALERROR.
    (tmp_path / "pyproject.toml").write_bytes((TESTS.parent / "pyproject.toml").read_bytes())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
