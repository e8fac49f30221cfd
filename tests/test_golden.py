"""Byte-for-byte golden outputs of the CLI over every bundled fixture.

``analyze`` runs over all fixtures in each mode and format, and ``plot``
renders each JSON report; every output must equal its file under
``fixtures/golden/``. The run starts in the tests directory and names the
fixtures by relative path, so the ``source`` fields do not depend on where
the checkout lives.
"""

from pathlib import Path

import pytest

from crosscc.cli import main

TESTS_DIR = Path(__file__).parent
GOLDEN = TESTS_DIR / "fixtures" / "golden"


def fixture_paths():
    return sorted(f"fixtures/{p.name}" for p in (TESTS_DIR / "fixtures").iterdir()
                  if p.suffix in (".mini", ".dot"))


@pytest.mark.parametrize("mode", ["exact", "treebound"])
def test_outputs_match_golden_files(mode, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(TESTS_DIR)
    produced = {}
    for fmt in ("json", "csv"):
        out = tmp_path / f"{mode}.report.{fmt}"
        assert main(["analyze", "--mode", mode, "--format", fmt,
                     *fixture_paths(), "-o", str(out)]) == 0
        produced[out.name] = out
    svg = tmp_path / f"{mode}.plot.svg"
    assert main(["plot", str(produced[f"{mode}.report.json"]), "-o", str(svg)]) == 0
    produced[svg.name] = svg
    produced[f"{mode}.plot.csv"] = svg.with_suffix(".csv")
    capsys.readouterr()
    for name, path in produced.items():
        assert path.read_bytes() == (GOLDEN / name).read_bytes(), name
