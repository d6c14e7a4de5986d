"""Linearization, eigenvalues, exact-DG grids, and critical points."""

import numpy as np
import pytest

from dgopt.dg import DGConfig, dg_metric
from dgopt.dynamics import (MEASURES, LandscapeGrid, NotAFixedPointError,
                            StabilityReport, bilinear_exact_dg,
                            classify_critical_point,
                            dg_exact_grid, dg_update_matrix_f1,
                            dg_update_matrix_f2, eigenvalues_2x2, landscape,
                            linearize, verify_dg_update_matrix)
from dgopt.games import Box, JointPoint, make_bilinear, make_game, make_motivation, make_quadratic_f1, make_quadratic_f2
from dgopt.optimizers import OptimizerConfig, make_step_map, run_trajectory

ORIGIN = JointPoint.of(0.0, 0.0)
F1 = make_quadratic_f1()
F2 = make_quadratic_f2()


class TestLinearize:
    def test_gda_bilinear_eigenvalues(self):
        for c in (3.0, 10.0):
            game = make_bilinear(c)
            for eta in (0.01, 0.05, 0.1):
                cfg = OptimizerConfig(algorithm="gda", eta=eta)
                report = linearize(make_step_map(game, cfg), ORIGIN)
                eigs = sorted(report.eigenvalues, key=lambda z: z.imag)
                assert eigs[0] == pytest.approx(1 - 1j * eta * c, abs=1e-6)
                assert eigs[1] == pytest.approx(1 + 1j * eta * c, abs=1e-6)
                assert report.spectral_radius == pytest.approx(
                    np.sqrt(1 + eta ** 2 * c ** 2), abs=1e-9)
                assert report.classification == "unstable"

    def test_gda_f1_repeated_unstable(self):
        cfg = OptimizerConfig(algorithm="gda", eta=0.05)
        report = linearize(make_step_map(F1, cfg), ORIGIN)
        for ev in report.eigenvalues:
            assert ev == pytest.approx(1.1, abs=1e-6)
        assert report.classification == "unstable"

    def test_gda_f2_repeated_stable(self):
        cfg = OptimizerConfig(algorithm="gda", eta=0.05)
        report = linearize(make_step_map(F2, cfg), ORIGIN)
        for ev in report.eigenvalues:
            assert ev == pytest.approx(0.9, abs=1e-6)
        assert report.classification == "stable"

    def test_identity_map_is_marginal(self):
        report = linearize(lambda p: p, JointPoint.of(0.3, -0.2))
        assert report.classification == "marginal"
        assert all(ev == pytest.approx(1.0, abs=1e-9)
                   for ev in report.eigenvalues)

    def test_map_of_three_coordinates_uses_the_general_solver(self):
        m = np.array([[0.5, 0.3, 0.0], [0.0, -0.2, 0.1], [0.0, 0.0, 1.5]])

        def step(p):
            x = m @ p.concat()
            return JointPoint(x[:2], x[2:])

        report = linearize(step, JointPoint(np.zeros(2), np.zeros(1)))
        np.testing.assert_allclose(report.jacobian, m, atol=1e-9)
        assert sorted(ev.real for ev in report.eigenvalues) == pytest.approx(
            [-0.2, 0.5, 1.5], abs=1e-9)
        assert all(ev.imag == 0.0 for ev in report.eigenvalues)
        assert report.spectral_radius == pytest.approx(1.5, abs=1e-9)
        assert report.classification == "unstable"

    def test_non_fixed_point_rejected(self):
        cfg = OptimizerConfig(algorithm="gda", eta=0.05)
        with pytest.raises(NotAFixedPointError) as err:
            linearize(make_step_map(F1, cfg), JointPoint.of(1.0, 1.0))
        assert err.value.residual > 1e-8

    def test_2x2_eigen_solver_satisfies_characteristic_polynomial(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = rng.uniform(-2, 2, (2, 2))
            tr = m[0, 0] + m[1, 1]
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            for ev in eigenvalues_2x2(m):
                assert abs(ev * ev - tr * ev + det) < 1e-9


class TestDGUpdateMatrices:
    @pytest.mark.parametrize("eta", [0.01, 0.05, 0.1])
    def test_f1_matrix_matches_linearized_map(self, eta):
        gap = verify_dg_update_matrix(F1, dg_update_matrix_f1(eta), eta)
        assert gap <= 1e-8

    @pytest.mark.parametrize("eta", [0.01, 0.05, 0.1])
    def test_f2_matrix_matches_linearized_map(self, eta):
        gap = verify_dg_update_matrix(F2, dg_update_matrix_f2(eta), eta)
        assert gap <= 1e-8

    def test_f1_values_at_eta_005(self):
        m = dg_update_matrix_f1(0.05)
        assert m[0, 0] == pytest.approx(0.717, abs=1e-12)
        assert m[0, 1] == pytest.approx(0.176, abs=1e-12)
        assert m[1, 1] == pytest.approx(0.889, abs=1e-12)
        eigs = sorted(ev.real for ev in eigenvalues_2x2(m))
        assert eigs[0] == pytest.approx(0.60711, abs=1e-4)
        assert eigs[1] == pytest.approx(0.99889, abs=1e-4)
        assert max(abs(e) for e in eigs) < 1.0

    def test_f2_spectral_radius_above_one_past_third(self):
        # the escape claim holds for eta > 1/3; spot-checked numerically
        for eta in (0.35, 0.4, 0.6, 1.0):
            eigs = eigenvalues_2x2(dg_update_matrix_f2(eta))
            assert max(abs(ev) for ev in eigs) > 1.0
        # and fails below it: at small eta the map is a contraction
        for eta in (0.01, 0.05, 0.1):
            eigs = eigenvalues_2x2(dg_update_matrix_f2(eta))
            assert max(abs(ev) for ev in eigs) < 1.0

    def test_f1_small_eta_contracts_but_not_for_all_eta(self):
        # stability holds in the small-step regime yet fails by eta = 1
        for eta in (0.01, 0.05, 0.1):
            eigs = eigenvalues_2x2(dg_update_matrix_f1(eta))
            assert max(abs(ev) for ev in eigs) < 1.0
        eigs = eigenvalues_2x2(dg_update_matrix_f1(1.0))
        assert max(abs(ev) for ev in eigs) > 1.0


class TestStabilityPredictsTrajectories:
    @pytest.mark.parametrize("alg,game_spec,eta", [
        ("gda", "f1", 0.05), ("gda", "f2", 0.05), ("gda", "f2", 0.01),
        ("sga", "f1", 0.05), ("co", "f1", 0.05), ("fr", "f1", 0.05),
        ("fr", "f2", 0.05), ("eg", "f2", 0.05), ("gda", "f1", 0.01),
        ("sga", "f1", 0.01), ("eg", "f2", 0.01), ("dg", "f2", 0.01),
    ])
    def test_sign_of_radius_matches_outcome(self, alg, game_spec, eta):
        game = make_game(game_spec)
        cfg = OptimizerConfig(algorithm=alg, eta=eta)
        report = linearize(make_step_map(game, cfg), ORIGIN)
        traj = run_trajectory(game, cfg, JointPoint.of(0.05, 0.05),
                              steps=8000, targets=[ORIGIN])
        if report.spectral_radius < 1 - 1e-9:
            assert traj.classification == "converged"
        elif report.spectral_radius > 1 + 1e-9:
            assert traj.classification != "converged"


class TestExactDG:
    BOX = Box.square(-1.0, 1.0)

    def test_origin_is_zero(self):
        game = make_bilinear(3.0)
        fn, _ = dg_exact_grid(game, self.BOX, resolution=201)
        assert fn(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_corner_value_and_closed_form(self):
        game = make_bilinear(3.0)
        fn, grid = dg_exact_grid(game, self.BOX, resolution=201)
        assert fn(1.0, 1.0) == pytest.approx(6.0, abs=1e-9)
        assert bilinear_exact_dg(3.0, 1.0, 1.0, 1.0) == 6.0

    def test_grid_underestimates_by_at_most_spacing_times_lipschitz(self):
        game = make_bilinear(3.0)
        res = 201
        fn, grid = dg_exact_grid(game, self.BOX, res)
        spacing = 2.0 / (res - 1)
        lipschitz = 3.0  # |d/dv' c u v'| <= |c| on the box
        rng = np.random.default_rng(31)
        for _ in range(50):
            x, y = rng.uniform(-1, 1, 2)
            grid_val = fn(x, y)
            closed = bilinear_exact_dg(3.0, 1.0, x, y)
            assert grid_val <= closed + 1e-12
            assert grid_val >= closed - spacing * lipschitz

    def test_grid_values_non_negative(self):
        game = make_game("f2")
        _, grid = dg_exact_grid(game, self.BOX, resolution=51)
        assert np.all(grid.values >= -1e-9)

    def test_rejects_coarse_resolution(self):
        with pytest.raises(ValueError):
            dg_exact_grid(make_bilinear(3.0), self.BOX, resolution=2)


class TestLandscape:
    BOX = Box.square(-1.0, 1.0)

    def test_dg_exact_argmin_at_origin(self):
        game = make_bilinear(3.0)
        grid = landscape(game, self.BOX, 101, "dg_exact")
        _, node = grid.argmin_node()
        assert node == (0.0, 0.0)

    def test_dg_approx_argmin_at_origin(self):
        game = make_bilinear(3.0)
        cfg = DGConfig(k=50, gamma=0.05)
        grid = landscape(game, self.BOX, 41, "dg_approx", dg_cfg=cfg)
        _, node = grid.argmin_node()
        assert abs(node[0]) < 1e-12 and abs(node[1]) < 1e-12

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="measure must be one of"):
            landscape(make_bilinear(3.0), self.BOX, 11, "dg_unrolled")

    def test_dg_approx_needs_a_config(self):
        with pytest.raises(ValueError, match="dg_approx needs a DGConfig"):
            landscape(make_bilinear(3.0), self.BOX, 11, "dg_approx")

    def test_motivation_minimax_sign_structure(self):
        # x^2 dominance on the u-axis edges, -y^2 dominance on the v-axis
        game = make_motivation()
        grid = landscape(game, Box.square(-10.0, 10.0), 101, "minimax_value")
        assert np.all(np.isfinite(grid.values))
        mid = 50
        assert grid.values[0, mid] > 0 and grid.values[-1, mid] > 0
        assert grid.values[mid, 0] < 0 and grid.values[mid, -1] < 0

    def test_csv_and_sidecar(self, tmp_path):
        game = make_bilinear(3.0)
        grid = landscape(game, self.BOX, 11, "minimax_value")
        grid.write_csv(tmp_path / "grid.csv")
        grid.write_sidecar(tmp_path / "grid.meta.json")
        rows = (tmp_path / "grid.csv").read_text().splitlines()
        assert len(rows) == 11 and len(rows[0].split(",")) == 11
        import json
        meta = json.loads((tmp_path / "grid.meta.json").read_text())
        assert meta["resolution"] == 11 and meta["measure"] == "minimax_value"

        # the exact text of a headerless 2x2 grid with -0.0 and its sidecar
        hand = LandscapeGrid(box=Box.square(-1.0, 1.0), resolution=2,
                             measure="dg_exact", u_axis=np.array([-1.0, 1.0]),
                             v_axis=np.array([-1.0, 1.0]),
                             values=np.array([[-0.0, 0.1], [1e-300, 2.0]]))
        hand.write_csv(tmp_path / "grid.csv")
        hand.write_sidecar(tmp_path / "grid.meta.json")
        assert (tmp_path / "grid.csv").read_text() == "-0.0,0.1\n1e-300,2.0\n"
        assert (tmp_path / "grid.meta.json").read_text() == (
            '{\n'
            '  "box": {\n'
            '    "hi": [\n'
            '      1.0,\n'
            '      1.0\n'
            '    ],\n'
            '    "lo": [\n'
            '      -1.0,\n'
            '      -1.0\n'
            '    ]\n'
            '  },\n'
            '  "measure": "dg_exact",\n'
            '  "resolution": 2\n'
            '}\n')

    def test_stability_report_json_text(self, tmp_path):
        report = StabilityReport(
            fixed_point=JointPoint.of(0.0, -0.0),
            jacobian=np.array([[1.0, -0.5], [0.5, 1.0]]),
            eigenvalues=[complex(1.0, 0.5), complex(1.0, -0.5)],
            spectral_radius=1.118033988749895, classification="unstable")
        report.write_json(tmp_path / "stab.json")
        assert (tmp_path / "stab.json").read_text() == (
            '{\n'
            '  "classification": "unstable",\n'
            '  "eigenvalues": [\n'
            '    {\n'
            '      "im": 0.5,\n'
            '      "re": 1.0\n'
            '    },\n'
            '    {\n'
            '      "im": -0.5,\n'
            '      "re": 1.0\n'
            '    }\n'
            '  ],\n'
            '  "fixed_point": [\n'
            '    0.0,\n'
            '    -0.0\n'
            '  ],\n'
            '  "jacobian": [\n'
            '    1.0,\n'
            '    -0.5,\n'
            '    0.5,\n'
            '    1.0\n'
            '  ],\n'
            '  "spectral_radius": 1.118033988749895\n'
            '}\n')


def per_node(fn, u_axis, v_axis):
    """fn at each grid node through (1,) vectors, one call per node."""
    values = np.empty((len(u_axis), len(v_axis)))
    for i, ui in enumerate(u_axis):
        for j, vj in enumerate(v_axis):
            values[i, j] = fn(np.array([ui]), np.array([vj]))
    return values


class TestBatchedGrids:
    """The one-call grids equal a per-node loop bit for bit."""

    CASES = [("bilinear:c=3", 1.0), ("f1", 1.0), ("f3", 3.0),
             ("motivation", 10.0), ("ncnc:c=3,sep=1", 3.0)]
    RES = 21

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("spec,half_width", CASES)
    def test_landscape_equals_per_node_reference(self, spec, half_width,
                                                 measure):
        game = make_game(spec)
        box = Box.square(-half_width, half_width)
        cfg = DGConfig(k=10, gamma=0.05)
        grid = landscape(game, box, self.RES, measure, dg_cfg=cfg)
        axis = np.linspace(-half_width, half_width, self.RES)
        if measure == "dg_approx":
            expected = per_node(
                lambda u, v: dg_metric(game, JointPoint(u, v), 10, 0.05),
                axis, axis)
        else:
            table = per_node(game.value, axis, axis)
            expected = (table if measure == "minimax_value" else
                        table.max(axis=1)[:, None] - table.min(axis=0)[None, :])
        assert grid.values.shape == (self.RES, self.RES)
        assert np.array_equal(grid.values, expected)

    @pytest.mark.parametrize("spec,half_width", CASES)
    def test_exact_dg_spot_query_equals_per_node_reference(self, spec,
                                                           half_width):
        game = make_game(spec)
        axis = np.linspace(-half_width, half_width, self.RES)
        dg_fn, _ = dg_exact_grid(game, Box.square(-half_width, half_width),
                                 self.RES)
        for u, v in ((0.0, 0.0), (0.3 * half_width, -0.7 * half_width),
                     (half_width, half_width)):
            best_max = max(game.value(np.array([u]), np.array([vj]))
                           for vj in axis)
            best_min = min(game.value(np.array([ui]), np.array([v]))
                           for ui in axis)
            assert dg_fn(u, v) == best_max - best_min


class TestCriticalPoints:
    def test_f1_origin_dg_view_is_local_min(self):
        cfg = DGConfig(k=1, gamma=0.05, grad_mode="unrolled")
        report = classify_critical_point(F1, ORIGIN, dg_cfg=cfg)
        assert report.dg_label == "min"
        assert report.dg_eigs[0] > 0
        # minimax view: concave in the min player, so not a local NE
        assert not report.is_local_ne

    def test_f2_origin_dg_view_saddle_at_large_step(self):
        # the saddle structure appears for eta > 1/3; below that the DG
        # surface is locally convex at the origin
        report_large = classify_critical_point(
            F2, ORIGIN, dg_cfg=DGConfig(k=1, gamma=0.4, grad_mode="unrolled"))
        assert report_large.dg_label == "saddle"
        report_small = classify_critical_point(
            F2, ORIGIN, dg_cfg=DGConfig(k=1, gamma=0.05, grad_mode="unrolled"))
        assert report_small.dg_label == "min"

    def test_decoupled_quadratic_ne_detection(self):
        # convex for the min player, concave for the max player, H_uv=0:
        # a textbook local equilibrium
        from dgopt.games import GameOracle

        def mk(sign):
            return GameOracle(
                name="diag", dim_u=1, dim_v=1,
                value=lambda u, v: u[0] ** 2 + sign * v[0] ** 2,
                grad_u=lambda u, v: np.array([2 * u[0]]),
                grad_v=lambda u, v: np.array([2 * sign * v[0]]),
                second_order=lambda u, v: (np.array([[2.0]]), np.zeros((1, 1)),
                                           np.zeros((1, 1)),
                                           np.array([[2.0 * sign]])))

        ne_game = mk(-1.0)
        report = classify_critical_point(ne_game, ORIGIN)
        assert report.is_local_ne
        not_ne = mk(+1.0)
        report2 = classify_critical_point(not_ne, ORIGIN)
        assert not report2.is_local_ne

    def test_non_critical_point_rejected(self):
        with pytest.raises(ValueError, match="not a critical point"):
            classify_critical_point(F1, JointPoint.of(1.0, 1.0))
