"""Static SVG rendering: structure, escaping, decimation."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from conftest import nu_params
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spherekink import report, svg
from spherekink.core import HALF_PI
from spherekink.shooting import SolveRequest, find_solution
from spherekink.spectral import potential_samples
from spherekink.svg import Series, decimate, line_chart

NS = "{http://www.w3.org/2000/svg}"


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
        hlines=((0.5, "#999"),),
        title="two scales", xlabel="x", ylabel="L", ylabel_right="R")
    ET.fromstring(doc)
    assert doc.count("stroke-dasharray") >= 2
    assert 'stroke="#999" stroke-width="1.2" stroke-dasharray="6 4"/>' in doc
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


@pytest.mark.parametrize("axis", ["x", "left", "right"])
@pytest.mark.parametrize("lo, hi", [
    (0.0, 5e-324),                  # a subnormal span: a fifth of it rounds to 0
    (0.0, 1e-306),                  # pixels per unit overflow to inf
    (-1e308, 1e308),                # the padding overflows to inf
    (-0.85e308, 0.85e308),          # finite padded ends, their distance inf
    (1.0, 1.0000000000000002)])     # one ulp: a tick step would not move a tick
def test_an_axis_range_that_cannot_be_drawn_is_refused(lo, hi, axis):
    unit = (0.0, 1.0)
    series = [Series((lo, hi) if axis == "x" else unit, (lo, hi) if axis == "left" else unit,
                     "#000")]
    if axis == "right":
        series.append(Series(unit, (lo, hi), "#111", axis="right"))
    with pytest.raises(ValueError, match=r"^axis range \[.*\] cannot be drawn$"):
        line_chart(series)


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


def _expected(series, hlines=()):
    """Each series' (x, y) pixel strings by the per-point formula, on the
    axis ranges line_chart derives from every series and hline."""
    xs = [float(v) for t in series for v in t.xs]
    x_lo, x_hi = svg._padded(min(xs), max(xs))
    py0, py1 = svg._HEIGHT - svg._MARGIN_B, svg._MARGIN_T
    out = []
    for s in series:
        ys = [float(v) for t in series if t.axis == s.axis for v in t.ys]
        ys += [y for y, _ in hlines if s.axis == "left"]
        y_lo, y_hi = svg._padded(min(ys), max(ys))
        out.append(list(zip(
            _old_pixels(s.xs, x_lo, x_hi, svg._MARGIN_L, svg._WIDTH - svg._MARGIN_R),
            _old_pixels(s.ys, y_lo, y_hi, py0, py1))))
    return out


def _drawn(doc):
    """(polylines, circles) of a chart, as lists of (x, y) pixel strings."""
    root = ET.fromstring(doc)
    polylines = [[tuple(p.split(",")) for p in pl.get("points").split(" ")]
                 for pl in root.iter(f"{NS}polyline")]
    circles = [(c.get("cx"), c.get("cy")) for c in root.iter(f"{NS}circle")]
    return polylines, circles


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
        hlines=((hline, "#999"),),
        title="pixels", xlabel="x", ylabel="L", ylabel_right="R")

    x_lo, x_hi = svg._padded(min(xs), max(xs))
    l_lo, l_hi = svg._padded(min(min(left), hline), max(left))
    r_lo, r_hi = svg._padded(min(right), max(right))
    px = _old_pixels(xs, x_lo, x_hi, svg._MARGIN_L, svg._WIDTH - svg._MARGIN_R)
    py0, py1 = svg._HEIGHT - svg._MARGIN_B, svg._MARGIN_T
    expected = [list(zip(px, _old_pixels(left, l_lo, l_hi, py0, py1))),
                list(zip(px, _old_pixels(right, r_lo, r_hi, py0, py1)))]

    polylines, circles = _drawn(doc)
    assert polylines == expected
    assert circles == expected[0] + expected[1]


def test_series_of_unequal_length_is_refused():
    with pytest.raises(ValueError, match="'short' has 3 x and 2 y"):
        line_chart([Series((0.0, 1.0, 2.0), (1.0, 2.0), "#000", label="short")])


def test_empty_series_is_refused():
    with pytest.raises(ValueError, match="'none' has 0 x and 0 y"):
        line_chart([Series((), (), "#000", label="none")])
    with pytest.raises(ValueError, match="'none'"):
        line_chart([Series((0.0, 1.0), (1.0, 2.0), "#000", label="some"),
                    Series((), (), "#111", label="none", axis="right")])


def test_x_pixels_are_reused_only_for_equal_x():
    # a series on other x values, then one on fewer x, then the first's x
    # again: each must be drawn on its own x pixels
    xs = tuple(i / 8 for i in range(12))
    series = [Series(xs, tuple(i * i / 16 for i in range(12)), "#111", label="a",
                     markers=True),
              Series(tuple(x + 0.25 for x in xs), tuple(-i / 4 for i in range(12)),
                     "#222", label="b", markers=True),
              Series(xs[:7], tuple(3.0 - i / 8 for i in range(7)), "#333", label="c",
                     axis="right", markers=True),
              Series(np.array(xs), np.linspace(1.0, 2.0, 12), "#444", label="d",
                     markers=True)]
    polylines, circles = _drawn(line_chart(series, title="reuse"))
    expected = _expected(series)
    assert polylines == expected
    assert circles == [p for pts in expected for p in pts]


# rounded to 1e-6, so that an axis spans either nothing or a normal float,
# which _ticks needs
coords = st.floats(-1e6, 1e6).map(lambda v: round(v, 6))


@st.composite
def charts(draw):
    """1 to 4 series of 1 to 60 points on random axes; a series may take
    the x values of an earlier one."""
    series = []
    for i in range(draw(st.integers(1, 4))):
        if series and draw(st.booleans()):
            xs = draw(st.sampled_from(series)).xs
        else:
            xs = tuple(draw(st.lists(coords, min_size=1, max_size=60)))
        ys = tuple(draw(st.lists(coords, min_size=len(xs), max_size=len(xs))))
        series.append(Series(xs, ys, "#000", label=f"s{i}", markers=draw(st.booleans()),
                             axis=draw(st.sampled_from(["left", "right"]))))
    assume(any(s.axis == "left" for s in series))
    return series


@settings(max_examples=150, deadline=None)
@given(charts())
def test_chart_points_match_the_per_point_formula(series):
    polylines, circles = _drawn(line_chart(series))
    expected = _expected(series)
    assert polylines == expected
    assert circles == [p for s, pts in zip(series, expected) if s.markers for p in pts]


@pytest.fixture(scope="module")
def nu_level2():
    return find_solution(SolveRequest(nu_params(), "even", 2))


@pytest.mark.parametrize("level", ["odd-3", "even-4", "nu-2"])
def test_profile_chart_potential_is_the_decimated_full_grid(level, records33, request):
    # the chart samples V on the decimated nodes only; V is elementwise in
    # (x, h), so this must equal V on the whole grid, then decimated
    if level == "nu-2":
        prof = request.getfixturevalue("nu_level2")
    else:
        cls, zeros = level.split("-")
        prof = records33[(cls, int(zeros))].profile
    xs, hs = decimate(prof.grid, prof.h)
    xv, vv = decimate(prof.grid, potential_samples(prof.grid, prof.h, prof.params))
    assert xs.size < prof.grid.size
    assert np.array_equal(potential_samples(xs, hs, prof.params), vv)
    polylines, _ = _drawn(report.profile_chart(prof))
    h_line = Series(xs, hs, "#000")
    v_line = Series(xv, vv, "#000", axis="right")
    hlines = ((HALF_PI, ""), (-HALF_PI, ""))
    assert polylines == _expected([h_line, v_line], hlines)
