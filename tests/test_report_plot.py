import json
from fractions import Fraction
from xml.dom import minidom

import pytest

from crosscc.errors import EmptyReport, MalformedReport
from crosscc.report import (AnalysisReport, UnitRecord, halfplane_svg, points_csv,
                            report_from_json)


def record(unit, nu, omega, file="prog.mini", position=0):
    return UnitRecord(
        unit=unit, source=f"{file}:{unit}", file=file, position=position,
        nu=nu, omega=Fraction(omega), provenance="exact",
        region="non-trivial", indicator=Fraction(omega, nu))


def paper_report():
    records = [
        record("bubble_sort", 4, 12, file="bubble_sort.dot"),
        record("mccabe_g1", 6, 24, file="mccabe_g1.dot"),
        record("mccabe_g2", 10, 47, file="mccabe_g2.dot"),
    ]
    return AnalysisReport.build(records, tool_version="0.1.0", mode="treebound",
                                slope=Fraction(2))


class TestReport:
    def test_json_is_deterministic(self):
        a, b = paper_report(), paper_report()
        assert a.to_json() == b.to_json()

    def test_json_shape(self):
        doc = paper_report().to_json()
        assert '"schema_version": 1' in doc
        assert '"mode": "treebound"' in doc
        assert '"slope": 2' in doc

    def test_records_sorted_by_file_then_position(self):
        records = [record("b", 1, 2, file="z.mini", position=0),
                   record("a", 1, 2, file="a.mini", position=1),
                   record("c", 1, 2, file="a.mini", position=0)]
        report = AnalysisReport.build(records, "0", "exact", Fraction(2))
        assert [r.unit for r in report.records] == ["c", "a", "b"]

    def test_csv_has_versioned_header(self):
        text = paper_report().to_csv()
        lines = text.splitlines()
        assert lines[0].startswith("schema_version,")
        assert len(lines) == 4

    def test_json_round_trip(self):
        report = paper_report()
        again = report_from_json(report.to_json())
        assert [(r.unit, r.nu, r.omega) for r in again.records] == \
               [(r.unit, r.nu, r.omega) for r in report.records]
        assert again.slope == report.slope

    def test_fractional_indicator_serializes_as_float(self):
        rec = record("g2", 10, 47)
        assert rec.to_dict()["indicator"] == 4.7


    @pytest.mark.parametrize("field", ["nu", "omega", "indicator", "slope"])
    def test_number_beyond_float_range_is_malformed(self, field):
        doc = json.loads(paper_report().to_json())
        (doc["config"] if field == "slope" else doc["records"][1])[field] = 10**400
        with pytest.raises(MalformedReport, match="out of float range"):
            report_from_json(json.dumps(doc))

    @pytest.mark.parametrize("nu", [1.5, True, "3", 0, -5, None])
    def test_nu_must_be_an_integer_of_at_least_one(self, nu):
        doc = json.loads(paper_report().to_json())
        doc["records"][1]["nu"] = nu
        with pytest.raises(MalformedReport) as err:
            report_from_json(json.dumps(doc))
        assert str(err.value) == f"record 1: nu must be an integer of at least 1, not {nu!r}"


class TestPlot:
    def test_points_csv(self):
        text = points_csv(paper_report())
        assert text.splitlines() == [
            "name,nu,omega",
            "bubble_sort,4,12",
            "mccabe_g1,6,24",
            "mccabe_g2,10,47",
        ]

    def test_svg_contains_labeled_points(self):
        svg = halfplane_svg(paper_report())
        assert svg.startswith("<svg")
        assert "bubble_sort: (4,12)" in svg
        assert "mccabe_g1: (6,24)" in svg
        assert "mccabe_g2: (10,47)" in svg
        assert svg.count("<circle") == 3
        assert svg.count("<polygon") == 2  # infeasible wedge + trivial band

    def test_svg_axes_labeled(self):
        svg = halfplane_svg(paper_report())
        assert ">nu</text>" in svg
        assert ">omega_min</text>" in svg

    def test_single_boundary_point(self):
        report = AnalysisReport.build([record("tiny", 1, 1)], "0", "exact",
                                      Fraction(2))
        svg = halfplane_svg(report)
        assert svg.count("<circle") == 1

    def test_empty_report_refused(self):
        empty = AnalysisReport.build([], "0", "exact", Fraction(2))
        with pytest.raises(EmptyReport):
            halfplane_svg(empty)
        with pytest.raises(EmptyReport):
            points_csv(empty)

    def test_svg_deterministic(self):
        assert halfplane_svg(paper_report()) == halfplane_svg(paper_report())

    def test_svg_is_xml_whatever_the_unit_name(self):
        # A DOT quoted name may hold characters that XML 1.0 forbids; each
        # becomes U+FFFD, and markup characters are escaped.
        names = ["a\x01<b>", "\x00\x08\x0b\x0c\x0e\x1f", "\ufffe\uffff", "t\tl\nc\r&"]
        report = AnalysisReport.build([record(n, 1, 2, position=i) for i, n in enumerate(names)],
                                      "0", "exact", Fraction(2))
        labels = [t.firstChild.data
                  for t in minidom.parseString(halfplane_svg(report)).getElementsByTagName("text")
                  if t.getAttribute("fill") == "#1f4e9c"]
        assert labels == ["a\ufffd<b>: (1,2)", "\ufffd" * 6 + ": (1,2)",
                          "\ufffd\ufffd: (1,2)", "t\tl\nc\n&: (1,2)"]
