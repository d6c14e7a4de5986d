"""SVG figures: the array-built heatmap and polyline against per-cell and
per-point references, byte for byte."""

import math

import numpy as np
import pytest

from dgopt import svgplot
from dgopt.svgplot import Axes, SvgCanvas


def diverging_color(t: float) -> str:
    """Blue -> white -> red over t in [0, 1], one cell at a time."""
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        s = t / 0.5
        r, g, b = int(40 + 215 * s), int(80 + 175 * s), 255
    else:
        s = (t - 0.5) / 0.5
        r, g, b = 255, int(255 - 175 * s), int(255 - 215 * s)
    return f"#{r:02x}{g:02x}{b:02x}"


def reference_heatmap(canvas, axes, u_axis, v_axis, values,
                      mark_argmin=False):
    vals = np.asarray(values, dtype=float)
    finite = vals[np.isfinite(vals)]
    vmax = float(np.max(np.abs(finite))) if finite.size else 1.0
    vmax = vmax or 1.0
    n_u, n_v = vals.shape
    du = (u_axis[1] - u_axis[0]) if n_u > 1 else 1.0
    dv = (v_axis[1] - v_axis[0]) if n_v > 1 else 1.0
    cols = []
    for u in u_axis:
        x_left, x_right = axes.px(u - du / 2), axes.px(u + du / 2)
        cols.append((svgplot._fmt(x_left), svgplot._fmt(x_right - x_left)))
    rows = []
    for v in v_axis:
        y_top, y_bot = axes.py(v + dv / 2), axes.py(v - dv / 2)
        rows.append((svgplot._fmt(y_top), svgplot._fmt(y_bot - y_top)))
    for (x, width), col_vals in zip(cols, vals.tolist()):
        for (y, height), val in zip(rows, col_vals):
            t = 0.5 if not math.isfinite(val) else 0.5 + 0.5 * val / vmax
            canvas.add(f'<rect x="{x}" y="{y}" width="{width}" '
                       f'height="{height}" fill="{diverging_color(t)}"/>')
    if mark_argmin:
        idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
        axes.marker(u_axis[idx[0]], v_axis[idx[1]], color="#000000")


def reference_polyline(axes, xs, ys, color="#1f77b4", width=1.5):
    pts = []
    for x, y in zip(xs, ys):
        if not (np.isfinite(x) and np.isfinite(y)):
            continue
        pts.append(f"{svgplot._fmt(axes.px(x))},{svgplot._fmt(axes.py(y))}")
    if pts:
        axes.canvas.add(f'<polyline points="{" ".join(pts)}" fill="none" '
                        f'stroke="{color}" stroke-width="{width}"/>')


def two_axes(xlim, ylim, **kwargs):
    return [Axes(SvgCanvas(), xlim, ylim, **kwargs) for _ in range(2)]


def svg_text(axes):
    return "\n".join(axes.canvas.parts)


def assert_heatmap_matches(u_axis, v_axis, values, xlim=(-2.0, 2.0),
                           ylim=(-2.0, 2.0), mark_argmin=False):
    got, want = two_axes(xlim, ylim)
    svgplot.heatmap(got.canvas, got, u_axis, v_axis, values,
                    mark_argmin=mark_argmin)
    reference_heatmap(want.canvas, want, u_axis, v_axis, values,
                      mark_argmin=mark_argmin)
    assert svg_text(got) == svg_text(want)
    return svg_text(got)


def with_non_finite(rng, shape):
    values = rng.standard_normal(shape) * rng.uniform(1e-3, 1e3)
    flat = values.reshape(-1)
    for bad in (np.nan, np.inf, -np.inf):
        flat[rng.integers(0, flat.size, size=max(1, flat.size // 10))] = bad
    return values


class TestHeatmap:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_grid_with_non_finite_cells(self, seed):
        rng = np.random.default_rng(seed)
        n_u, n_v = rng.integers(2, 30, size=2)
        values = with_non_finite(rng, (n_u, n_v))
        assert_heatmap_matches(np.linspace(-1.5, 1.5, n_u),
                               np.linspace(-1.0, 1.7, n_v), values,
                               mark_argmin=True)

    def test_all_zero_grid_falls_back_to_unit_scale(self):
        text = assert_heatmap_matches(np.linspace(-1, 1, 5),
                                      np.linspace(-1, 1, 4), np.zeros((5, 4)))
        assert text.count('fill="#ffffff"') == 20

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)])
    def test_single_row_and_column_grids(self, shape):
        rng = np.random.default_rng(sum(shape))
        assert_heatmap_matches(np.linspace(-1, 1, shape[0]),
                               np.linspace(-1, 1, shape[1]),
                               rng.standard_normal(shape))

    def test_cells_at_the_scale_ends_and_centre(self):
        values = np.array([[-2.5, 0.0, 2.5], [2.5, -2.5, 0.0]])
        text = assert_heatmap_matches(np.array([-1.0, 1.0]),
                                      np.array([-1.0, 0.0, 1.0]), values)
        fills = [part.split('fill="')[1][:7] for part in text.splitlines()
                 if part.startswith("<rect x=") and "fill=\"#" in part]
        # t = 0, 0.5, 1 give the two ends of the map and white
        assert fills == ["#2850ff", "#ffffff", "#ff5028",
                         "#ff5028", "#2850ff", "#ffffff"]

    def test_integer_axes_as_the_plot_command_draws(self):
        rng = np.random.default_rng(11)
        values = with_non_finite(rng, (9, 6))
        assert_heatmap_matches(np.arange(9), np.arange(6), values,
                               xlim=(0, 8), ylim=(0, 5), mark_argmin=True)

    def test_every_shade_of_a_fine_ramp(self):
        values = np.linspace(-1.0, 1.0, 4001).reshape(1, -1)
        assert_heatmap_matches(np.array([0.0]), np.linspace(-1, 1, 4001),
                               values)


class TestPolyline:
    @staticmethod
    def assert_matches(xs, ys, xlim, ylim, **kwargs):
        got, want = two_axes(xlim, ylim, **kwargs)
        got.polyline(xs, ys, color="#000000")
        reference_polyline(want, xs, ys, color="#000000")
        assert svg_text(got) == svg_text(want)
        return svg_text(got)

    @pytest.mark.parametrize("seed", range(4))
    def test_linear_axes_skip_non_finite_points(self, seed):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-3, 3, size=300)
        ys = with_non_finite(rng, 300)
        xs[rng.integers(0, 300, size=20)] = np.nan
        self.assert_matches(xs, ys, (-3.0, 3.0), (-2.0, 2.0))

    def test_float32_values_and_integer_lists(self):
        rng = np.random.default_rng(5)
        ys = rng.standard_normal(200).astype(np.float32)
        self.assert_matches(list(range(200)), ys, (0.0, 199.0), (-3.0, 3.0))

    @pytest.mark.parametrize("seed", range(3))
    def test_log_axes_with_values_at_or_below_zero(self, seed):
        rng = np.random.default_rng(seed)
        xs = [int(t) for t in np.unique(rng.integers(1, 10**6, size=100))]
        ys = 10.0 ** rng.uniform(-12, 3, size=len(xs))
        ys[rng.integers(0, len(xs), size=8)] = 0.0
        ys[rng.integers(0, len(xs), size=8)] = -1.5
        ys[rng.integers(0, len(xs), size=4)] = np.nan
        ys[rng.integers(0, len(xs), size=4)] = np.inf
        self.assert_matches(xs, ys, (1.0, 1e6), (1e-12, 1e3),
                            xlog=True, ylog=True)

    def test_no_finite_point_draws_nothing(self):
        text = self.assert_matches([0.0, 1.0], [np.nan, np.inf],
                                   (0.0, 1.0), (0.0, 1.0))
        assert "<polyline" not in text

    def test_unequal_lengths_pair_as_zip_does(self):
        longer, shorter = np.linspace(0, 1, 10), np.linspace(0, 1, 7) ** 2
        self.assert_matches(longer, shorter, (0.0, 1.0), (0.0, 1.0))
        self.assert_matches(shorter, longer, (0.0, 1.0), (0.0, 1.0))

