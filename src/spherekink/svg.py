"""Self-contained SVG 1.1 line charts.

Plain geometry only: polylines, circles, lines, text.  No scripting, no
external references, so the files render anywhere and diff cleanly.  All
coordinates are written as "%.2f", keeping output byte-stable.  A series'
points are one %-template: its x pixels are formatted once, leaving "%.2f"
in each y slot, and its y pixels fill the slots in one operation.  A later
series on equal x pixels (h and V of a profile chart) reuses the template.
Each series needs as many x values as y values, and at least one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

_MARGIN_L = 64.0
_MARGIN_R = 64.0
_MARGIN_T = 40.0
_MARGIN_B = 48.0
_WIDTH = 720.0
_HEIGHT = 440.0
_MAX_POINTS = 1200   # decimate's cap on the points kept per series


def _px(v: float) -> str:
    return f"{v:.2f}"


def _label(v: float) -> str:
    return f"{v:.6g}"


def _padded(lo: float, hi: float) -> tuple:
    """Axis range containing the data with 5 percent padding each side."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("axis range must be finite")
    if hi == lo:
        return lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, target: int = 5):
    span = hi - lo
    raw = span / max(target, 2)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


@dataclass(frozen=True)
class Series:
    xs: tuple              # or a 1-D float array, as decimate returns
    ys: tuple
    color: str
    label: str = ""
    dashed: bool = False
    markers: bool = False
    axis: str = "left"


def _scale(lo, hi, p_lo, p_hi):
    """Data to pixels, for a float or elementwise for a float array: the
    same IEEE operations either way, so a point maps to the same pixel."""
    k = (p_hi - p_lo) / (hi - lo)
    return lambda v: p_lo + (v - lo) * k


def line_chart(series, *, title: str = "", xlabel: str = "", ylabel: str = "",
               ylabel_right: str = "", hlines=()) -> str:
    """Chart with an optional independent right-hand axis.

    series: iterable of Series; hlines: (y, color, dashed, axis) tuples of
    horizontal reference lines included in the axis range of their side.
    """
    width, height = _WIDTH, _HEIGHT
    series = list(series)
    if not series:
        raise ValueError("line_chart needs at least one series")
    for s in series:
        if len(s.xs) != len(s.ys) or not len(s.xs):
            raise ValueError(f"series {s.label!r} has {len(s.xs)} x and {len(s.ys)} y values")
    xs_all = np.concatenate([np.asarray(s.xs, dtype=float) for s in series])
    x_lo, x_hi = _padded(float(np.min(xs_all)), float(np.max(xs_all)))

    def y_range(side):
        vals = [np.asarray(s.ys, dtype=float) for s in series if s.axis == side]
        vals += [np.array([h[0]]) for h in hlines if h[3] == side]
        if not vals:
            return None
        allv = np.concatenate(vals)
        return _padded(float(np.min(allv)), float(np.max(allv)))

    left = y_range("left")
    right = y_range("right")
    if left is None:
        raise ValueError("no series on the left axis")

    px0, px1 = _MARGIN_L, width - _MARGIN_R
    py0, py1 = height - _MARGIN_B, _MARGIN_T
    to_x = _scale(x_lo, x_hi, px0, px1)
    to_y = {"left": _scale(left[0], left[1], py0, py1)}
    if right is not None:
        to_y["right"] = _scale(right[0], right[1], py0, py1)

    e = []
    e.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_px(width)}" '
             f'height="{_px(height)}" viewBox="0 0 {_px(width)} {_px(height)}" '
             f'version="1.1">')
    e.append(f'<rect x="0" y="0" width="{_px(width)}" height="{_px(height)}" fill="#ffffff"/>')
    e.append('<g font-family="sans-serif" font-size="12" fill="#24292f">')
    if title:
        e.append(f'<text x="{_px(width / 2)}" y="22" text-anchor="middle" '
                 f'font-size="14">{escape(title)}</text>')

    # frame and ticks
    e.append(f'<rect x="{_px(px0)}" y="{_px(py1)}" width="{_px(px1 - px0)}" '
             f'height="{_px(py0 - py1)}" fill="none" stroke="#57606a"/>')
    for t in _ticks(x_lo, x_hi):
        x = to_x(t)
        e.append(f'<line x1="{_px(x)}" y1="{_px(py0)}" x2="{_px(x)}" y2="{_px(py1)}" '
                 f'stroke="#d0d7de" stroke-width="0.5"/>')
        e.append(f'<text x="{_px(x)}" y="{_px(py0 + 16)}" text-anchor="middle">'
                 f'{escape(_label(t))}</text>')
    for t in _ticks(left[0], left[1]):
        y = to_y["left"](t)
        e.append(f'<line x1="{_px(px0)}" y1="{_px(y)}" x2="{_px(px1)}" y2="{_px(y)}" '
                 f'stroke="#d0d7de" stroke-width="0.5"/>')
        e.append(f'<text x="{_px(px0 - 6)}" y="{_px(y + 4)}" text-anchor="end">'
                 f'{escape(_label(t))}</text>')
    if right is not None:
        for t in _ticks(right[0], right[1]):
            y = to_y["right"](t)
            e.append(f'<text x="{_px(px1 + 6)}" y="{_px(y + 4)}" text-anchor="start">'
                     f'{escape(_label(t))}</text>')

    if xlabel:
        e.append(f'<text x="{_px((px0 + px1) / 2)}" y="{_px(height - 10)}" '
                 f'text-anchor="middle">{escape(xlabel)}</text>')
    if ylabel:
        e.append(f'<text x="16" y="{_px((py0 + py1) / 2)}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_px((py0 + py1) / 2)})">{escape(ylabel)}</text>')
    if ylabel_right and right is not None:
        x = width - 14
        e.append(f'<text x="{_px(x)}" y="{_px((py0 + py1) / 2)}" text-anchor="middle" '
                 f'transform="rotate(90 {_px(x)} {_px((py0 + py1) / 2)})">'
                 f'{escape(ylabel_right)}</text>')

    for y_val, color, dashed, axis in hlines:
        y = to_y[axis](y_val)
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        e.append(f'<line x1="{_px(px0)}" y1="{_px(y)}" x2="{_px(px1)}" y2="{_px(y)}" '
                 f'stroke="{color}" stroke-width="1.2"{dash}/>')

    legend_y = py1 + 14.0
    px_prev = None
    for s in series:
        px = to_x(np.asarray(s.xs, dtype=float)).tolist()
        py = to_y[s.axis](np.asarray(s.ys, dtype=float)).tolist()
        if px != px_prev:       # _px's format; "%%.2f" is left for the y pixels
            template, px_prev = " ".join(["%.2f,%%.2f"] * len(px)) % tuple(px), px
        pts = template % tuple(py)
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        e.append(f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                 f'stroke-width="1.5"{dash}/>')
        if s.markers:
            for a, b in zip(px, py):
                e.append(f'<circle cx="{_px(a)}" cy="{_px(b)}" r="3" '
                         f'fill="{s.color}"/>')
        if s.label:
            x_leg = px1 - 150.0
            e.append(f'<line x1="{_px(x_leg)}" y1="{_px(legend_y - 4)}" '
                     f'x2="{_px(x_leg + 22)}" y2="{_px(legend_y - 4)}" '
                     f'stroke="{s.color}" stroke-width="1.5"{dash}/>')
            e.append(f'<text x="{_px(x_leg + 28)}" y="{_px(legend_y)}">'
                     f'{escape(s.label)}</text>')
            legend_y += 16.0

    e.append("</g>")
    e.append("</svg>")
    return "\n".join(e) + "\n"


def decimate(xs: np.ndarray, ys: np.ndarray):
    """Thin dense series for plotting, always keeping both endpoints."""
    n = xs.size
    if n <= _MAX_POINTS:
        return xs, ys
    stride = -(-n // _MAX_POINTS)
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return xs[idx], ys[idx]
