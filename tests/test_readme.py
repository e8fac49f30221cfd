"""The README's module table names each module of ``src/crosscc/`` once."""

import re
from pathlib import Path

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
