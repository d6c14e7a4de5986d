"""Catalog game oracles: values, hand-coded gradients, Hessian blocks."""

import math

import numpy as np
import pytest

from dgopt.games import (Box, GameSpec, JointPoint, as_vector,
                         central_jacobian, make_bilinear,
                         make_game, make_motivation, make_ncnc, make_poly_f3,
                         make_quadratic_f1, make_quadratic_f2, parse_game_spec,
                         piecewise_f, piecewise_f_grad, second_order_fd)
from game_helpers import box_contains, catalog_names

ALL_GAMES = ["bilinear:c=3", "bilinear:c=10", "f1", "f2", "f3", "motivation",
             "ncnc:c=3", "ncnc:c=3,sep=1"]


def fd_gradients(game, u, v, h=1e-4):
    """Fourth-order central differences; the two-point stencil's truncation
    error exceeds the check tolerance on the oscillatory catalog games."""

    def stencil(f, step):
        return (f(-2 * step) - 8 * f(-step) + 8 * f(step) - f(2 * step)) / (12 * step)

    gu = np.zeros_like(u)
    for i in range(len(u)):
        e = np.zeros_like(u)
        e[i] = 1.0
        step = h * max(1.0, abs(u[i]))
        gu[i] = stencil(lambda s: game.value(u + s * e, v), step)
    gv = np.zeros_like(v)
    for i in range(len(v)):
        e = np.zeros_like(v)
        e[i] = 1.0
        step = h * max(1.0, abs(v[i]))
        gv[i] = stencil(lambda s: game.value(u, v + s * e), step)
    return gu, gv


def grad_close(got, want, rel=1e-6, floor=1e-8):
    """Relative tolerance with an absolute floor near zero."""
    err = np.abs(np.asarray(got) - np.asarray(want))
    bound = np.maximum(rel * np.abs(want), floor)
    return bool(np.all(err <= bound))


class TestCatalogValues:
    def test_bilinear_values(self):
        g = make_bilinear(3.0)
        assert g.value(np.array([1.0]), np.array([1.0])) == 3.0
        assert g.grad_u(np.array([1.0]), np.array([1.0]))[0] == 3.0
        assert g.grad_v(np.array([1.0]), np.array([1.0]))[0] == 3.0
        assert g.value(np.array([0.0]), np.array([0.0])) == 0.0
        assert g.grad_u(np.array([0.0]), np.array([0.0]))[0] == 0.0
        g10 = make_bilinear(10.0)
        assert g10.value(np.array([0.5]), np.array([-0.2])) == pytest.approx(-1.0)

    def test_bilinear_rejects_degenerate(self):
        with pytest.raises(ValueError):
            make_bilinear(0.0)

    def test_f1_values(self):
        g = make_quadratic_f1()
        z = np.array([0.0])
        assert g.value(z, z) == 0.0
        assert g.grad_u(z, z)[0] == 0.0 and g.grad_v(z, z)[0] == 0.0
        u, v = np.array([1.0]), np.array([2.0])
        assert g.value(u, v) == pytest.approx(-3 - 4 + 8)
        assert g.grad_u(u, v)[0] == pytest.approx(2.0)
        assert g.grad_v(u, v)[0] == pytest.approx(0.0)

    def test_f2_values(self):
        g = make_quadratic_f2()
        u, v = np.array([1.0]), np.array([1.0])
        assert g.value(u, v) == pytest.approx(8.0)
        assert g.grad_u(u, v)[0] == pytest.approx(10.0)
        assert g.grad_v(u, v)[0] == pytest.approx(6.0)

    def test_motivation_values(self):
        g = make_motivation()
        z = np.array([0.0])
        assert g.value(z, z) == 0.0
        # the sin(5x) term contributes 50 cos(0)
        assert g.grad_u(z, z)[0] == pytest.approx(50.0)
        assert g.domain is not None and box_contains(g.domain, np.array([10.0, -10.0]))

    def test_ncnc_literal_reading_is_pure_coupling(self):
        g = make_ncnc(3.0)
        z = np.array([0.0])
        assert g.value(z, z) == 0.0
        u, v = np.array([0.7]), np.array([-1.2])
        assert g.value(u, v) == pytest.approx(3.0 * 0.7 * -1.2)

    def test_ncnc_separable_reading(self):
        g = make_ncnc(3.0, include_separable=True)
        u, v = np.array([0.3]), np.array([0.0])
        assert g.value(u, v) == pytest.approx(piecewise_f(0.3))

    def test_piecewise_ramp_is_c1_at_breakpoints(self):
        for bp in (-math.pi / 2, math.pi / 2):
            below, above = bp - 1e-12, bp + 1e-12
            assert piecewise_f(below) == pytest.approx(piecewise_f(above), abs=1e-9)
            assert piecewise_f_grad(below) == pytest.approx(
                piecewise_f_grad(above), abs=1e-9)


class TestGradientChecks:
    @pytest.mark.parametrize("spec", ALL_GAMES)
    def test_gradients_match_fd_at_100_points(self, spec):
        game = make_game(spec)
        rng = np.random.default_rng(1234)
        lo, hi = (-3.0, 3.0)
        if game.domain is not None:
            lo, hi = game.domain.lo[0] * 0.9, game.domain.hi[0] * 0.9
        for _ in range(100):
            u = rng.uniform(lo, hi, size=1)
            v = rng.uniform(lo, hi, size=1)
            gu, gv = fd_gradients(game, u, v)
            assert grad_close(game.grad_u(u, v), gu)
            assert grad_close(game.grad_v(u, v), gv)

    @pytest.mark.parametrize("spec", ALL_GAMES)
    def test_purity_bit_identical(self, spec):
        game = make_game(spec)
        u, v = np.array([0.731]), np.array([-1.417])
        assert game.value(u, v) == game.value(u, v)
        assert np.array_equal(game.grad_u(u, v), game.grad_u(u, v))
        assert np.array_equal(game.grad_v(u, v), game.grad_v(u, v))
        b1 = game.hessian_blocks(JointPoint(u, v))
        b2 = game.hessian_blocks(JointPoint(u, v))
        assert all(np.array_equal(x, y) for x, y in zip(b1, b2))


class TestSecondOrder:
    def test_bilinear_fd_cross_block(self):
        game = make_bilinear(3.0)
        p = JointPoint.of(0.4, -0.9)
        H_uu, H_uv, H_vu, H_vv = second_order_fd(game, p)
        assert abs(H_uv[0, 0] - 3.0) < 1e-8
        assert abs(H_uu[0, 0]) < 1e-8 and abs(H_vv[0, 0]) < 1e-8

    def test_f1_f2_closed_form_matches_fd(self):
        for game, huu, huv, hvv in ((make_quadratic_f1(), -6.0, 4.0, -2.0),
                                    (make_quadratic_f2(), 6.0, 4.0, 2.0)):
            p = JointPoint.of(0.3, 1.7)
            blocks = game.hessian_blocks(p)
            fd_blocks = second_order_fd(game, p)
            assert blocks[0][0, 0] == huu
            assert blocks[1][0, 0] == huv
            assert blocks[3][0, 0] == hvv
            for a, b in zip(blocks, fd_blocks):
                assert np.max(np.abs(a - b)) < 1e-6

    def test_cross_blocks_transpose_consistent(self):
        for spec in ALL_GAMES:
            game = make_game(spec)
            p = JointPoint.of(0.21, -0.47)
            _, H_uv, H_vu, _ = game.hessian_blocks(p)
            assert np.max(np.abs(H_uv - H_vu.T)) < 1e-9

    def test_f3_second_order_against_double_fd_of_value(self):
        game = make_poly_f3()
        p = JointPoint.of(0.0, 0.0)
        H_uu, H_uv, H_vu, H_vv = game.hessian_blocks(p)

        def val(x, y):
            return game.value(np.array([x]), np.array([y]))

        h = 1e-4
        huu = (val(h, 0) - 2 * val(0, 0) + val(-h, 0)) / h ** 2
        hvv = (val(0, h) - 2 * val(0, 0) + val(0, -h)) / h ** 2
        huv = (val(h, h) - val(h, -h) - val(-h, h) + val(-h, -h)) / (4 * h ** 2)
        assert abs(H_uu[0, 0] - huu) < 1e-4
        assert abs(H_vv[0, 0] - hvv) < 1e-4
        assert abs(H_uv[0, 0] - huv) < 1e-4

    @pytest.mark.parametrize("step", [0.0, -1e-6, float("nan")])
    def test_central_jacobian_rejects_non_positive_steps(self, step):
        with pytest.raises(ValueError, match="must be positive"):
            central_jacobian(lambda x: 2.0 * x, np.zeros(2),
                             np.array([1e-6, step]))


class TestSpecs:
    def test_parse_round_trip(self):
        spec = parse_game_spec("bilinear:c=3")
        assert spec == GameSpec("bilinear", {"c": 3.0})
        assert parse_game_spec(make_game(spec).name) == spec

    def test_every_catalog_name_constructs(self):
        for name in catalog_names():
            spec = name if name not in ("bilinear", "ncnc") else f"{name}:c=3"
            game = make_game(spec)
            assert game.dim_u == 1 and game.dim_v == 1

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown game"):
            parse_game_spec("quadratic_bowl")

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError, match="needs parameters"):
            make_game("bilinear")

    @pytest.mark.parametrize("spec", ["ncnc:c=3,foo=2", "bilinear:c=3,sep=1",
                                      "f1:c=1"])
    def test_unknown_parameter_rejected(self, spec):
        with pytest.raises(ValueError, match="unknown parameters"):
            make_game(spec)

    @pytest.mark.parametrize("spec,name", [("ncnc:c=3", "ncnc:c=3"),
                                           ("ncnc:c=3,sep=0", "ncnc:c=3"),
                                           ("ncnc:c=3,sep=1", "ncnc:c=3,sep=1")])
    def test_optional_parameter(self, spec, name):
        assert make_game(spec).name == name

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError):
            parse_game_spec("bilinear:c")


class TestPointsAndBoxes:
    def test_two_dimensional_strategy_rejected(self):
        with pytest.raises(ValueError, match=r"1-D strategy vector, got "
                           r"shape \(2, 1\)"):
            as_vector([[1.0], [2.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (-1.7e308, 0.2e308)])
    def test_box_of_infinite_width_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="^box width hi - lo must be "
                           "finite, got inf$"):
            Box([0.0, lo], [1.0, hi])

    @pytest.mark.filterwarnings("error")
    def test_box_diameter_past_the_float_range_is_inf(self):
        # each width 1.6e308 is finite; the norm of the two is not
        assert Box.square(-0.8e308, 0.8e308).diameter == math.inf
        assert Box.square(-1.0, 3.0).diameter == float(np.sqrt(32.0))

    def test_box_bounds_of_two_shapes_rejected(self):
        with pytest.raises(ValueError, match="one shape"):
            Box([0.0, 0.0], [1.0, 1.0, 1.0])
