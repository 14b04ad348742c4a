import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubitfit.fileio import HEIGHT, WIDTH, _escape, _span, render_line_plot, write_line_plot

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
    # a flat range spans one unit either side; any other gains 5 % of its width per side
    assert _span(0.5, 0.5) == (-0.5, 1.5)
    assert _span(0.0, 2.0) == (-0.1, 2.1)


def test_input_validation():
    x = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        render_line_plot(np.array([1.0]), [("s", np.array([1.0]), "#000000")])
    with pytest.raises(ValueError, match="at least one series"):
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


# the inputs are exact in binary and each coordinate is computed by single IEEE
# double operations, so these bytes are the same on every platform
GOLDEN_DOC = """\
<?xml version="1.0" encoding="UTF-8" standalone="no"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="600" viewBox="0 0 800 600">
<rect x="0" y="0" width="800" height="600" fill="#ffffff"/>
<text x="400" y="28" text-anchor="middle" font-family="sans-serif" font-size="18">cubic &gt; square</text>
<rect x="70" y="50" width="700" height="500" fill="none" stroke="#000000" stroke-width="1"/>
<line x1="70.00" y1="550" x2="70.00" y2="556" stroke="#000000" stroke-width="1"/>
<text x="70.00" y="570" text-anchor="middle" font-family="sans-serif" font-size="12">-1.1</text>
<line x1="64" y1="550.00" x2="70" y2="550.00" stroke="#000000" stroke-width="1"/>
<text x="60" y="554.00" text-anchor="end" font-family="sans-serif" font-size="12">-0.575</text>
<line x1="245.00" y1="550" x2="245.00" y2="556" stroke="#000000" stroke-width="1"/>
<text x="245.00" y="570" text-anchor="middle" font-family="sans-serif" font-size="12">-0.55</text>
<line x1="64" y1="425.00" x2="70" y2="425.00" stroke="#000000" stroke-width="1"/>
<text x="60" y="429.00" text-anchor="end" font-family="sans-serif" font-size="12">-0.1625</text>
<line x1="420.00" y1="550" x2="420.00" y2="556" stroke="#000000" stroke-width="1"/>
<text x="420.00" y="570" text-anchor="middle" font-family="sans-serif" font-size="12">0</text>
<line x1="64" y1="300.00" x2="70" y2="300.00" stroke="#000000" stroke-width="1"/>
<text x="60" y="304.00" text-anchor="end" font-family="sans-serif" font-size="12">0.25</text>
<line x1="595.00" y1="550" x2="595.00" y2="556" stroke="#000000" stroke-width="1"/>
<text x="595.00" y="570" text-anchor="middle" font-family="sans-serif" font-size="12">0.55</text>
<line x1="64" y1="175.00" x2="70" y2="175.00" stroke="#000000" stroke-width="1"/>
<text x="60" y="179.00" text-anchor="end" font-family="sans-serif" font-size="12">0.6625</text>
<line x1="770.00" y1="550" x2="770.00" y2="556" stroke="#000000" stroke-width="1"/>
<text x="770.00" y="570" text-anchor="middle" font-family="sans-serif" font-size="12">1.1</text>
<line x1="64" y1="50.00" x2="70" y2="50.00" stroke="#000000" stroke-width="1"/>
<text x="60" y="54.00" text-anchor="end" font-family="sans-serif" font-size="12">1.075</text>
<text x="420" y="590" text-anchor="middle" font-family="sans-serif" font-size="14">x</text>
<polyline points="101.82,72.73 181.36,205.30 260.91,300.00 340.45,356.82 420.00,375.76 499.55,356.82 579.09,300.00 658.64,205.30 738.18,72.73" fill="none" stroke="#cc0000" stroke-width="2"/>
<polyline points="101.82,527.27 181.36,439.68 260.91,394.70 340.45,378.12 420.00,375.76 499.55,373.39 579.09,356.82 658.64,311.84 738.18,224.24" fill="none" stroke="#000000" stroke-width="2"/>
<line x1="600" y1="64" x2="628" y2="64" stroke="#cc0000" stroke-width="2"/>
<text x="636" y="68" font-family="sans-serif" font-size="13">target x^2</text>
<line x1="600" y1="84" x2="628" y2="84" stroke="#000000" stroke-width="2"/>
<text x="636" y="88" font-family="sans-serif" font-size="13">a &lt; b &amp; c</text>
</svg>
"""


def test_a_plot_keeps_its_bytes():
    # the canvas, margins, ticks, curves and legend all sit at fixed places
    x = np.arange(-4.0, 5.0) / 4
    doc = render_line_plot(
        x, [("target x^2", x**2, "#cc0000"), ("a < b & c", x**3 / 2, "#000000")], title="cubic > square"
    )
    assert doc.splitlines() == GOLDEN_DOC.splitlines()
