"""The README's module table names each module of ``src/crosscc/`` once,
and its library snippet runs."""

import re
import shutil
from pathlib import Path

from crosscc import Provenance, cross_complexity, lower, parse

from conftest import FIXTURES

ROOT = Path(__file__).resolve().parent.parent


def table_modules():
    """The ``crosscc.<name>`` of each row of the "What is inside" table."""
    readme = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    section = readme.split("## What is inside", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `crosscc\.(\w+)`", section, re.MULTILINE)


def test_module_table_matches_the_package():
    rows = table_modules()
    modules = {path.stem for path in ROOT.joinpath("src", "crosscc").glob("*.py")}
    assert sorted(rows) == sorted(modules - {"__init__", "__main__"})


def test_library_snippet_prints_the_pair(tmp_path, monkeypatch, capsys):
    readme = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    shutil.copy(FIXTURES / "listing1.mini", tmp_path / "prog.mini")
    monkeypatch.chdir(tmp_path)
    exec(snippet, {})
    text = (FIXTURES / "listing1.mini").read_text(encoding="utf-8")
    cc = cross_complexity(lower(parse(text).functions[0]), mode=Provenance.EXACT)
    assert capsys.readouterr().out.split()[:2] == [str(cc.nu), str(cc.omega_min)]
