import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubitfit.svgplot import HEIGHT, WIDTH, _escape, render_line_plot, write_line_plot

SVG_NS = "{http://www.w3.org/2000/svg}"


def two_series_doc():
    x = np.linspace(-1.5, 1.5, 50)
    return render_line_plot(
        x,
        [("target quadratic", np.square(x), "#cc0000"), ("approximation", np.tanh(x), "#000000")],
        title="demo",
    )


def test_output_is_wellformed_standalone_xml():
    doc = two_series_doc()
    assert doc.startswith("<?xml")
    root = ET.fromstring(doc)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("viewBox") == f"0 0 {WIDTH} {HEIGHT}"


def test_one_polyline_per_series_with_requested_colors():
    root = ET.fromstring(two_series_doc())
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2
    assert [p.get("stroke") for p in polylines] == ["#cc0000", "#000000"]
    for p in polylines:
        assert len(p.get("points").split()) == 50


def test_curve_points_stay_inside_canvas():
    root = ET.fromstring(two_series_doc())
    for p in root.findall(f"{SVG_NS}polyline"):
        for pair in p.get("points").split():
            xp, yp = (float(v) for v in pair.split(","))
            assert 0.0 <= xp <= WIDTH
            assert 0.0 <= yp <= HEIGHT


def test_legend_and_labels_are_present():
    root = ET.fromstring(two_series_doc())
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert "target quadratic" in texts
    assert "approximation" in texts
    assert "demo" in texts
    assert "x" in texts


def test_labels_are_xml_escaped():
    x = np.array([0.0, 1.0])
    doc = render_line_plot(x, [("a < b & c", x, "#123456")], title="t > u")
    root = ET.fromstring(doc)  # would raise on unescaped markup
    assert any(t.text == "a < b & c" for t in root.iter(f"{SVG_NS}text"))


@given(st.one_of(st.text(), st.text(alphabet="&<>;amplgtquo#x\"' ")))
def test_escape_equals_saxutils_escape(text):
    # the package escapes by hand so that importing it does not load xml.sax
    assert _escape(text) == escape(text)


def test_flat_series_does_not_collapse_the_scale():
    x = np.array([0.0, 1.0, 2.0])
    doc = render_line_plot(x, [("const", np.zeros(3), "#000000")])
    ET.fromstring(doc)  # finite coordinates, parseable document


def test_input_validation():
    x = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        render_line_plot(np.array([1.0]), [("s", np.array([1.0]), "#000000")])
    with pytest.raises(ValueError):
        render_line_plot(x, [])
    with pytest.raises(ValueError):
        render_line_plot(x, [("s", np.array([1.0, 2.0, 3.0]), "#000000")])


def test_write_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    x = np.linspace(0.0, 1.0, 20)
    series = [("s", np.sin(x), "#004488")]
    write_line_plot(p1, x, series, title="t")
    write_line_plot(p2, x, series, title="t")
    assert p1.read_bytes() == p2.read_bytes()
