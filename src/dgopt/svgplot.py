"""Minimal deterministic SVG output: polyline charts and rect heatmaps.

No plotting library: every figure is a pure function of its data, so
repeated runs emit byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

MARGIN = 50.0
WIDTH = 640.0
HEIGHT = 480.0
TICKS = 5   # tick marks per axis


# the pixel format: _fmt formats one coordinate, _fmt_point an "x,y" pair
_PIXEL = "{:.2f}"
_fmt = _PIXEL.format
_fmt_point = f"{_PIXEL},{_PIXEL}".format

# a pixel this far out is dropped like a non-finite one: its text would
# be hundreds of digits long, and a drawn point lies far off the figure
PIXEL_LIMIT = 1e9


def _log10(x):
    """log10 of max(x, 1e-300), of each entry of an array one at a time:
    np.log10 differs from math.log10 in the last bit on some inputs."""
    if np.ndim(x):
        return np.array([math.log10(max(v, 1e-300)) for v in x.tolist()])
    return math.log10(max(x, 1e-300))


def _finite_range(values, pad_frac=0.05):
    vals = np.asarray(values, dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return 0.0, 1.0
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    elif not math.isfinite(hi - lo):
        # a width past the float range shrinks to a sixteenth about the
        # midpoint: the padded width times Axes' tick count then fits too
        mid, half = lo / 2 + hi / 2, (hi / 2 - lo / 2) / 16
        lo, hi = mid - half, mid + half
    pad = (hi - lo) * pad_frac
    return lo - pad, hi + pad


def finite_argmin(values):
    """Index of the smallest finite entry of values (the first in C order
    on a tie), or None when no entry is finite: NaN and +-inf cells are
    skipped, as the heatmap's colour scale skips them."""
    vals = np.asarray(values, dtype=float)
    finite = np.isfinite(vals)
    if not finite.any():
        return None
    return np.unravel_index(int(np.argmin(np.where(finite, vals, np.inf))),
                            vals.shape)


def _tick_value(lo, hi, i, count):
    """lo + (hi - lo) * i / (count - 1); where that product overflows, the
    same point as the weighted mean of lo and hi, which cannot."""
    step, frac = (hi - lo) * i, i / (count - 1)
    return (lo + step / (count - 1) if math.isfinite(step)
            else lo * (1 - frac) + hi * frac)


class SvgCanvas:
    """A white WIDTH x HEIGHT figure, built from SVG elements."""

    def __init__(self):
        w, h = int(WIDTH), int(HEIGHT)
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
            f'height="{h}" viewBox="0 0 {w} {h}">',
            f'<rect width="{w}" height="{h}" fill="white"/>',
        ]

    def add(self, element: str):
        self.parts.append(element)

    def text(self, x, y, label, size=12, anchor="middle"):
        self.add(f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
                 f'font-family="sans-serif" text-anchor="{anchor}">'
                 f'{label}</text>')

    def save(self, path):
        # two writes, so a large figure's text is not copied once more
        with open(path, "w") as fh:
            fh.write("\n".join(self.parts))
            fh.write("\n</svg>\n")


class Axes:
    """Linear (or log) data-to-pixel mapping with tick labels."""

    def __init__(self, canvas, xlim, ylim, xlabel="", ylabel="",
                 xlog=False, ylog=False, title=""):
        self.canvas = canvas
        self.xlog, self.ylog = xlog, ylog
        self.x0, self.x1 = (math.log10(xlim[0]), math.log10(xlim[1])) if xlog else xlim
        self.y0, self.y1 = (math.log10(ylim[0]), math.log10(ylim[1])) if ylog else ylim
        self.left, self.right = MARGIN, WIDTH - MARGIN / 2
        self.top, self.bottom = MARGIN / 2 + 14, HEIGHT - MARGIN
        canvas.add(f'<rect x="{_fmt(self.left)}" y="{_fmt(self.top)}" '
                   f'width="{_fmt(self.right - self.left)}" '
                   f'height="{_fmt(self.bottom - self.top)}" fill="none" '
                   f'stroke="black" stroke-width="1"/>')
        if title:
            canvas.text((self.left + self.right) / 2, self.top - 6, title, size=14)
        if xlabel:
            canvas.text((self.left + self.right) / 2, HEIGHT - 8, xlabel)
        if ylabel:
            mid_y = (self.top + self.bottom) / 2
            canvas.add(f'<text x="14" y="{_fmt(mid_y)}" font-size="12" '
                       f'font-family="sans-serif" text-anchor="middle" '
                       f'transform="rotate(-90 14 {_fmt(mid_y)})">{ylabel}</text>')
        self._ticks()

    def px(self, x):
        """Pixel x of a data value, or of each entry of an array: inf or
        NaN, with no numpy warning, where the arithmetic overflows."""
        if self.xlog:
            x = _log10(x)
        span = self.x1 - self.x0 or 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            return self.left + (x - self.x0) / span * (self.right - self.left)

    def py(self, y):
        """Pixel y of a data value, or of each entry of an array, as px."""
        if self.ylog:
            y = _log10(y)
        span = self.y1 - self.y0 or 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            return self.bottom - (y - self.y0) / span * (self.bottom - self.top)

    def _ticks(self):
        for i in range(TICKS):
            fx = _tick_value(self.x0, self.x1, i, TICKS)
            fy = _tick_value(self.y0, self.y1, i, TICKS)
            px = self.left + (self.right - self.left) * i / (TICKS - 1)
            py = self.bottom - (self.bottom - self.top) * i / (TICKS - 1)
            xv = 10 ** fx if self.xlog else fx
            yv = 10 ** fy if self.ylog else fy
            self.canvas.add(f'<line x1="{_fmt(px)}" y1="{_fmt(self.bottom)}" '
                            f'x2="{_fmt(px)}" y2="{_fmt(self.bottom + 4)}" '
                            f'stroke="black"/>')
            self.canvas.text(px, self.bottom + 16, f"{xv:.3g}", size=10)
            self.canvas.add(f'<line x1="{_fmt(self.left - 4)}" y1="{_fmt(py)}" '
                            f'x2="{_fmt(self.left)}" y2="{_fmt(py)}" '
                            f'stroke="black"/>')
            self.canvas.text(self.left - 6, py + 3, f"{yv:.3g}", size=10,
                             anchor="end")

    def polyline(self, xs, ys, color="#1f77b4"):
        """The points with finite x and y and pixels within PIXEL_LIMIT,
        pairing xs and ys as zip does."""
        n = min(len(xs), len(ys))
        xs, ys = np.asarray(xs)[:n], np.asarray(ys)[:n]
        finite = np.isfinite(xs) & np.isfinite(ys)
        px, py = self.px(xs[finite]), self.py(ys[finite])
        drawn = (np.abs(px) <= PIXEL_LIMIT) & (np.abs(py) <= PIXEL_LIMIT)
        if not drawn.any():
            return
        pts = " ".join(map(_fmt_point, px[drawn].tolist(),
                           py[drawn].tolist()))
        self.canvas.add(f'<polyline points="{pts}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5"/>')

    def marker(self, x, y, color="#d62728"):
        """A dot at (x, y), or nothing where a pixel is not finite or lies
        beyond PIXEL_LIMIT."""
        cx, cy = self.px(x), self.py(y)
        if abs(cx) <= PIXEL_LIMIT and abs(cy) <= PIXEL_LIMIT:
            self.canvas.add(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                            f'r="4.0" fill="{color}"/>')


_HEX = [f"{i:02x}" for i in range(256)]


def _diverging_channels(t):
    """(r, g, b) int arrays of the blue -> white -> red map over t in
    [0, 1]; the channels are non-negative, so astype(int) truncates as
    int() does."""
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    low = t < 0.5
    s_low, s_high = t / 0.5, (t - 0.5) / 0.5
    r = np.where(low, 40 + 215 * s_low, 255)
    g = np.where(low, 80 + 175 * s_low, 255 - 175 * s_high)
    b = np.where(low, 255, 255 - 215 * s_high)
    return r.astype(int), g.astype(int), b.astype(int)


def heatmap(canvas: SvgCanvas, axes: Axes, u_axis, v_axis, values,
            mark_argmin=False):
    """Rect-cell heatmap of values[i, j] at (u_axis[i], v_axis[j]).

    u runs along the horizontal axis.  Cells use a symmetric diverging
    color map centered on zero.  mark_argmin marks the finite_argmin
    cell; a grid with no finite cell gets no marker.
    """
    vals = np.asarray(values, dtype=float)
    finite = vals[np.isfinite(vals)]
    vmax = float(np.max(np.abs(finite))) if finite.size else 1.0
    vmax = vmax or 1.0
    n_u, n_v = vals.shape
    du = (u_axis[1] - u_axis[0]) if n_u > 1 else 1.0
    dv = (v_axis[1] - v_axis[0]) if n_v > 1 else 1.0
    # a column's x/width and a row's y/height are the same for every cell
    u, v = np.asarray(u_axis), np.asarray(v_axis)
    x_left, x_right = axes.px(u - du / 2), axes.px(u + du / 2)
    y_top, y_bot = axes.py(v + dv / 2), axes.py(v - dv / 2)
    # each rect is <rect x="X" y="Y" width="W" height="H" fill="#RGB"/>,
    # joined from its column's two pieces, its row's two and its colour;
    # a column's rects are one canvas part, joined by newlines as save
    # joins parts, so a large grid holds no string per cell
    col_x = [f'<rect x="{x}" y="' for x in map(_fmt, x_left.tolist())]
    col_w = [f'" width="{w}" height="'
             for w in map(_fmt, (x_right - x_left).tolist())]
    rows = [(y, f'{h}" fill="#') for y, h in zip(
        map(_fmt, y_top.tolist()), map(_fmt, (y_bot - y_top).tolist()))]
    t = np.where(np.isfinite(vals), 0.5 + 0.5 * vals / vmax, 0.5)
    r, g, b = (c.tolist() for c in _diverging_channels(t))
    for x, w, col_r, col_g, col_b in zip(col_x, col_w, r, g, b):
        canvas.add("\n".join(
            [f'{x}{y}{w}{h}{_HEX[ri]}{_HEX[gi]}{_HEX[bi]}"/>'
             for (y, h), ri, gi, bi in zip(rows, col_r, col_g, col_b)]))
    idx = finite_argmin(vals) if mark_argmin else None
    if idx is not None:
        axes.marker(u_axis[idx[0]], v_axis[idx[1]], color="#000000")


def line_chart(path, xs, series, xlabel="", ylabel="", title="",
               xlog=False, ylog=False):
    """series: list of (label, ys, color) over the shared xs."""
    canvas = SvgCanvas()
    all_y = np.concatenate([np.asarray(ys, dtype=float) for _, ys, _ in series])
    ylim = _finite_range(all_y)
    if ylog:
        positive = all_y[np.isfinite(all_y) & (all_y > 0)]
        ylim = ((float(positive.min()) / 2, float(positive.max()) * 2)
                if positive.size else (1e-3, 1.0))
    xlim = _finite_range(xs, pad_frac=0.0 if xlog else 0.05)
    if xlog:
        xlim = (max(xlim[0], 1e-300), xlim[1])
    axes = Axes(canvas, xlim, ylim, xlabel=xlabel, ylabel=ylabel,
                xlog=xlog, ylog=ylog, title=title)
    for idx, (label, ys, color) in enumerate(series):
        axes.polyline(xs, ys, color=color)
        canvas.text(axes.right - 6, axes.top + 14 + 14 * idx, label,
                    anchor="end")
        canvas.add(f'<line x1="{_fmt(axes.right - 90)}" '
                   f'y1="{_fmt(axes.top + 10 + 14 * idx)}" '
                   f'x2="{_fmt(axes.right - 70)}" '
                   f'y2="{_fmt(axes.top + 10 + 14 * idx)}" '
                   f'stroke="{color}" stroke-width="2"/>')
    canvas.save(path)


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
