"""Static SVG rendering: structure, escaping, decimation."""

import xml.etree.ElementTree as ET

import numpy as np

from spherekink import svg
from spherekink.svg import Series, decimate, line_chart


def chart(**kw):
    xs = tuple(np.linspace(0.0, 10.0, 50))
    ys = tuple(np.sin(np.linspace(0.0, 10.0, 50)))
    return line_chart([Series(xs, ys, "#1f6feb", label="wave")],
                      title="demo", xlabel="x", ylabel="y", **kw)


def test_chart_is_well_formed_xml():
    doc = chart()
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert "viewBox" in root.attrib or "width" in root.attrib


def test_chart_escapes_labels():
    doc = line_chart([Series((0.0, 1.0), (0.0, 1.0), "#000", label="a<&>b")],
                     title="t<am>p", xlabel="x", ylabel="y")
    ET.fromstring(doc)
    assert "a<&>b" not in doc
    assert "a&lt;&amp;&gt;b" in doc


def test_chart_dual_axis_and_hlines():
    xs = tuple(np.linspace(0.0, 1.0, 11))
    doc = line_chart(
        [Series(xs, tuple(x ** 2 for x in xs), "#111", label="left"),
         Series(xs, tuple(100.0 * x for x in xs), "#222", label="right",
                axis="right", dashed=True)],
        hlines=((0.5, "#999", True, "left"),),
        title="two scales", xlabel="x", ylabel="L", ylabel_right="R")
    ET.fromstring(doc)
    assert doc.count("stroke-dasharray") >= 2
    assert "R" in doc and "L" in doc


def test_chart_handles_constant_series():
    doc = line_chart([Series((0.0, 1.0, 2.0), (5.0, 5.0, 5.0), "#000",
                             label="flat")],
                     title="constant", xlabel="x", ylabel="y")
    ET.fromstring(doc)
    assert "NaN" not in doc and "nan" not in doc


def test_chart_markers_render_circles():
    doc = line_chart([Series((0.0, 1.0), (1.0, 2.0), "#000", label="pts",
                             markers=True)],
                     title="m", xlabel="x", ylabel="y")
    assert "<circle" in doc


def test_decimate_keeps_endpoints_and_caps_size():
    xs = np.linspace(0.0, 1.0, 10001)
    ys = np.cos(xs)
    dx, dy = decimate(xs, ys)
    assert len(dx) <= 1200
    assert dx[0] == xs[0] and dx[-1] == xs[-1]
    assert dy[0] == ys[0] and dy[-1] == ys[-1]
    sx, sy = decimate(xs[:5], ys[:5])
    assert np.array_equal(sx, xs[:5])
    assert np.array_equal(sy, ys[:5])


def _old_pixels(values, lo, hi, p_lo, p_hi):
    """The per-point mapping on numpy scalars that line_chart used to run."""
    k = (p_hi - p_lo) / (hi - lo)
    return [f"{p_lo + (v - lo) * k:.2f}" for v in np.asarray(values, dtype=float)]


def test_series_pixels_match_the_per_point_formula():
    # inputs are multiples of 1/8, so the expected text needs no libm
    xs = tuple(i / 8 for i in range(-4, 29))
    left = tuple((i * i - 90) / 8 for i in range(-4, 29))
    right = tuple(-3.0 - i / 8 for i in range(-4, 29))
    hline = -12.5
    doc = line_chart(
        [Series(xs, left, "#111", label="left", markers=True),
         Series(np.array(xs), np.array(right), "#222", label="right",
                axis="right", dashed=True, markers=True)],
        hlines=((hline, "#999", True, "left"),),
        title="pixels", xlabel="x", ylabel="L", ylabel_right="R")

    x_lo, x_hi = svg._padded(min(xs), max(xs))
    l_lo, l_hi = svg._padded(min(min(left), hline), max(left))
    r_lo, r_hi = svg._padded(min(right), max(right))
    px = _old_pixels(xs, x_lo, x_hi, svg._MARGIN_L, svg._WIDTH - svg._MARGIN_R)
    py0, py1 = svg._HEIGHT - svg._MARGIN_B, svg._MARGIN_T
    expected = [list(zip(px, _old_pixels(left, l_lo, l_hi, py0, py1))),
                list(zip(px, _old_pixels(right, r_lo, r_hi, py0, py1)))]

    root = ET.fromstring(doc)
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.iter(f"{ns}polyline")
    assert [[tuple(p.split(",")) for p in pl.get("points").split(" ")]
            for pl in polylines] == expected
    circles = [(c.get("cx"), c.get("cy")) for c in root.iter(f"{ns}circle")]
    assert circles == expected[0] + expected[1]
