"""Baseline update rules: frozen hand-computed steps and map properties.

Expected values for sga/co/fr were re-derived independently (matrix
algebra by hand, then cross-checked against central differences of the
relevant scalar potentials) before being frozen here.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from dgopt import dg as dgmod
from dgopt import optimizers
from dgopt.dg import DGConfig
from dgopt.games import (GameOracle, JointPoint, make_bilinear, make_game,
                         make_quadratic_f1, make_quadratic_f2)
from dgopt.optimizers import (OptimizerConfig, Trajectory,
                              co_step, eg_step, fr_step, gda_step,
                              make_step_map, ogda_step, run_trajectory,
                              sga_step, unrolled_step)

B3 = make_bilinear(3.0)
F1 = make_quadratic_f1()
F2 = make_quadratic_f2()
P10 = JointPoint.of(1.0, 0.0)


def assert_point(p, u, v, tol=1e-12):
    assert p.u[0] == pytest.approx(u, abs=tol)
    assert p.v[0] == pytest.approx(v, abs=tol)


class TestConfig:
    @pytest.mark.parametrize("kwargs,message", [
        ({"co_gamma": -5.0}, "co_gamma must be >= 0"),
        ({"eta_y": -1.0}, "eta_y must be positive"),
        ({"eta_y": 0.0}, "eta_y must be positive"),
    ])
    def test_out_of_range_setting_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            OptimizerConfig(algorithm="fr", **kwargs)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm 'adam'"):
            OptimizerConfig(algorithm="adam")

    def test_zero_consensus_weight_accepted(self):
        assert OptimizerConfig(algorithm="co", co_gamma=0.0).co_gamma == 0.0

    def test_dg_without_a_dg_config_rejected(self):
        with pytest.raises(ValueError, match="'dg' needs a DGConfig"):
            OptimizerConfig(algorithm="dg")

    def test_logged_dg_without_a_dg_config_rejected(self):
        with pytest.raises(ValueError, match="log_dg needs a DGConfig"):
            run_trajectory(F1, OptimizerConfig(), P10, steps=1, log_dg=True)


class TestGda:
    def test_bilinear_step(self):
        assert_point(gda_step(B3, P10, B3.grads(*P10), 0.1), 1.0, 0.3)

    def test_f1_step(self):
        # u' = 1 - 0.05(-6 + 4), v' = 1 + 0.05(-2 + 4)
        p = JointPoint.of(1.0, 1.0)
        assert_point(gda_step(F1, p, F1.grads(*p), 0.05), 1.1, 1.1)

    def test_stationary_point_is_fixed(self):
        p = JointPoint.of(0.0, 0.0)
        q = gda_step(F1, p, F1.grads(*p), 0.05)
        assert q.u[0] == 0.0 and q.v[0] == 0.0

    def test_bilinear_norm_grows_by_exact_factor(self):
        # ||p'||^2 = (1 + eta^2 c^2) ||p||^2 for the rotation dynamics
        eta, c = 0.05, 3.0
        p = JointPoint.of(0.7, -0.4)
        for _ in range(50):
            q = gda_step(B3, p, B3.grads(*p), eta)
            assert q.norm() ** 2 == pytest.approx(
                (1 + eta ** 2 * c ** 2) * p.norm() ** 2, rel=1e-12)
            p = q


class TestOgda:
    def test_step0_falls_back_to_gda(self):
        assert_point(ogda_step(B3, P10, B3.grads(*P10), None, 0.1), 1.0, 0.3)

    def test_constant_gradients_reduce_to_gda(self):
        prev = (B3.grad_u(P10.u, P10.v), B3.grad_v(P10.u, P10.v))
        assert_point(ogda_step(B3, P10, B3.grads(*P10), prev, 0.1), 1.0, 0.3)

    def test_second_step_hand_value(self):
        p1 = JointPoint.of(1.0, 0.3)
        prev = (B3.grad_u(P10.u, P10.v), B3.grad_v(P10.u, P10.v))
        assert_point(ogda_step(B3, p1, B3.grads(*p1), prev, 0.1), 0.82, 0.6)

    def test_hand_value_with_both_previous_gradients_non_zero(self):
        # from (1, 0.5) the previous gradients are (1.5, 3): u' = 0.8 -
        # 2(0.1)(1.8) + 0.1(1.5), v' = 0.6 + 2(0.1)(2.4) - 0.1(3)
        p0 = JointPoint.of(1.0, 0.5)
        prev = (B3.grad_u(p0.u, p0.v), B3.grad_v(p0.u, p0.v))
        p1 = JointPoint.of(0.8, 0.6)
        assert_point(ogda_step(B3, p1, B3.grads(*p1), prev, 0.1), 0.59, 0.78)
        # the step map: a gda step to (0.85, 0.8), then u' = 0.85 -
        # 2(0.1)(2.4) + 0.1(1.5), v' = 0.8 + 2(0.1)(2.55) - 0.1(3)
        step = make_step_map(B3, OptimizerConfig("ogda", eta=0.1))
        assert_point(step(step(p0)[0])[0], 0.52, 1.01)

    def test_step_map_evaluates_each_gradient_once_per_step(self):
        calls = {"u": 0, "v": 0}

        def counted(name, grad):
            def wrapped(u, v):
                calls[name] += 1
                return grad(u, v)
            return wrapped

        game = replace(B3, grad_u=counted("u", B3.grad_u),
                       grad_v=counted("v", B3.grad_v))
        step = make_step_map(game, OptimizerConfig("ogda", eta=0.1))
        p = P10
        for _ in range(5):
            p, _, _ = step(p)
        assert calls == {"u": 5, "v": 5}
        # the same iterates as stepping ogda_step by hand
        q, prev = P10, None
        for _ in range(5):
            q, prev = (ogda_step(B3, q, B3.grads(*q), prev, 0.1),
                       (B3.grad_u(q.u, q.v), B3.grad_v(q.u, q.v)))
        assert np.array_equal(p.concat(), q.concat())


class TestEg:
    def test_bilinear_two_stage(self):
        assert_point(eg_step(B3, P10, B3.grads(*P10), 0.1), 0.91, 0.3)

    def test_stationary_fixed(self):
        p = JointPoint.of(0.0, 0.0)
        q = eg_step(F2, p, F2.grads(*p), 0.05)
        assert q.u[0] == 0.0 and q.v[0] == 0.0

    def test_zero_game_is_identity(self):
        zero = make_bilinear(1.0)
        p = JointPoint.of(0.4, 0.2)
        # on the zero-gradient axis both stages vanish
        origin = JointPoint.of(0.0, 0.0)
        q = eg_step(zero, origin, zero.grads(*origin), 0.1)
        assert q.u[0] == 0.0 and q.v[0] == 0.0
        assert eg_step(zero, p, zero.grads(*p), 0.0).u[0] == p.u[0]


class TestSga:
    def test_lambda_zero_is_gda(self):
        p = JointPoint.of(0.3, -0.8)
        got = sga_step(F1, p, F1.grads(*p), 0.05, lam=0.0)
        want = gda_step(F1, p, F1.grads(*p), 0.05)
        assert_point(got, want.u[0], want.v[0])

    def test_bilinear_hand_value(self):
        # g = (0, -3); adjusted = (9, -3); p' = (1 - 0.9, 0 + 0.3)
        assert_point(sga_step(B3, P10, B3.grads(*P10), 0.1, lam=1.0), 0.1, 0.3)

    def test_decoupled_game_is_gda(self):
        # once H_uv = 0 the adjustment vanishes; emulate with lambda -> 0 on
        # f1 versus the analytic gda step at several points
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = JointPoint.of(*rng.uniform(-2, 2, 2))
            got = sga_step(F1, p, F1.grads(*p), 0.05, lam=0.0)
            want = gda_step(F1, p, F1.grads(*p), 0.05)
            assert_point(got, want.u[0], want.v[0])


class TestCo:
    def test_gamma_zero_is_gda(self):
        p = JointPoint.of(0.5, 0.5)
        got = co_step(F2, p, F2.grads(*p), 0.05, gamma=0.0)
        want = gda_step(F2, p, F2.grads(*p), 0.05)
        assert_point(got, want.u[0], want.v[0])

    def test_stationary_fixed(self):
        p = JointPoint.of(0.0, 0.0)
        q = co_step(F1, p, F1.grads(*p), 0.05, gamma=0.1)
        assert q.u[0] == 0.0 and q.v[0] == 0.0

    def test_bilinear_hand_value(self):
        # grad of 0.5 ||grad M||^2 = 0.5 (9y^2 + 9x^2) is (9x, 9y) = (9, 0)
        # at (1, 0); the penalty therefore pulls x toward zero:
        # p' = (1 - 0 - 0.1*0.1*9, 0 + 0.3) = (0.91, 0.3)
        assert_point(co_step(B3, P10, B3.grads(*P10), 0.1, gamma=0.1), 0.91, 0.3)

    def test_penalty_matches_fd_of_half_grad_norm(self):
        rng = np.random.default_rng(3)
        eta, gamma = 0.05, 0.1
        for game in (B3, F1, F2):
            p = JointPoint.of(*rng.uniform(-1.5, 1.5, 2))
            base = gda_step(game, p, game.grads(*p), eta)
            got = co_step(game, p, game.grads(*p), eta, gamma)
            pen_u = (base.u - got.u) / (gamma * eta)
            pen_v = (base.v - got.v) / (gamma * eta)

            def phi(x, y):
                gu = game.grad_u(np.array([x]), np.array([y]))
                gv = game.grad_v(np.array([x]), np.array([y]))
                return 0.5 * (gu[0] ** 2 + gv[0] ** 2)

            h = 1e-6
            fd_u = (phi(p.u[0] + h, p.v[0]) - phi(p.u[0] - h, p.v[0])) / (2 * h)
            fd_v = (phi(p.u[0], p.v[0] + h) - phi(p.u[0], p.v[0] - h)) / (2 * h)
            assert pen_u[0] == pytest.approx(fd_u, rel=1e-6, abs=1e-8)
            assert pen_v[0] == pytest.approx(fd_v, rel=1e-6, abs=1e-8)


class TestUnrolled:
    def test_bilinear_k1_hand_value(self):
        # y_1 = 0.3, d/du M(u, y_1(u)) = 3*0.3 + 3*1*0.3 = 1.8
        assert_point(unrolled_step(B3, P10, B3.grads(*P10), 0.1, k=1), 0.82, 0.3)

    def test_frozen_follower_reduces_to_gda(self):
        # a game with grad_v == 0 keeps y_k = v; emulate via the bilinear
        # game on the v-axis where grad_v = c*u = 0
        p = JointPoint.of(0.0, 0.7)
        got = unrolled_step(B3, p, B3.grads(*p), 0.1, k=7)
        want = gda_step(B3, p, B3.grads(*p), 0.1)
        assert_point(got, want.u[0], want.v[0])

    def test_total_derivative_matches_fd_on_f1(self):
        rng = np.random.default_rng(11)
        eta, k = 0.05, 3

        def unrolled_objective(x, y):
            yk = np.array([y])
            u = np.array([x])
            for _ in range(k):
                yk = yk + eta * F1.grad_v(u, yk)
            return F1.value(u, yk)

        for _ in range(50):
            x, y = rng.uniform(-2, 2, 2)
            p = JointPoint.of(x, y)
            got = unrolled_step(F1, p, F1.grads(*p), eta, k=k)
            total = (x - got.u[0]) / eta
            h = 1e-6
            fd = (unrolled_objective(x + h, y) - unrolled_objective(x - h, y)) / (2 * h)
            assert total == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestFr:
    def test_f1_hand_value(self):
        # grad_u = -2, grad_v = 2, H_vv = -2, H_vu = 4 at (1, 1):
        # u' = 1 + 0.1 = 1.1
        # v' = 1 + 0.1 + 0.05 * (-0.5) * 4 * (-2) = 1.3
        p = JointPoint.of(1.0, 1.0)
        assert_point(fr_step(F1, p, F1.grads(*p), 0.05, 0.05), 1.1, 1.3)

    def test_zero_cross_block_is_per_rate_gda(self):
        # bilinear at u = 0 has grad_u = c*v... use a point where the
        # correction H_vv^{-1} H_vu grad_u vanishes because grad_u = 0
        p = JointPoint.of(0.0, 0.8)
        got = fr_step(F1, p, F1.grads(*p), 0.02, 0.07)
        assert got.u[0] == pytest.approx(0.0 - 0.02 * F1.grad_u(p.u, p.v)[0])
        assert got.v[0] == pytest.approx(0.8 + 0.07 * F1.grad_v(p.u, p.v)[0]
                                         + 0.02 * (-0.5) * 4 * F1.grad_u(p.u, p.v)[0])

    def test_stationary_fixed(self):
        p = JointPoint.of(0.0, 0.0)
        q = fr_step(F1, p, F1.grads(*p), 0.05, 0.05)
        assert q.u[0] == 0.0 and q.v[0] == 0.0

    def test_singular_follower_hessian_raises(self):
        from dgopt.games import SingularHessianError
        with pytest.raises(SingularHessianError):
            # H_vv = 0 for the bilinear game
            fr_step(B3, P10, B3.grads(*P10), 0.05, 0.05)

    def test_overflowing_follower_correction_raises(self):
        # H_vv = 1e-310 is no zero pivot, but H_vu g_u / H_vv overflows
        from dgopt.games import SingularHessianError
        blocks = tuple(np.array([[h]]) for h in (-6.0, 4.0, 4.0, 1e-310))
        game = replace(F1, second_order=lambda u, v: blocks)
        with pytest.raises(SingularHessianError, match="non-finite values"):
            p = JointPoint.of(1.0, 1.0)
            fr_step(game, p, game.grads(*p), 0.05, 0.05)


class TestOnePairPerStep:
    """A step map evaluates the gradient pair at p once, and the
    trajectory's norm columns read the pair it hands back."""

    @pytest.mark.parametrize("alg,per_step", [
        ("gda", 1), ("ogda", 1), ("eg", 2), ("sga", 1), ("co", 1),
        ("unrolled", 2), ("dg", 0)])
    def test_grads_calls_of_a_trajectory(self, monkeypatch, alg, per_step):
        calls = []
        grads = GameOracle.grads

        def counted(game, u, v):
            calls.append(None)
            return grads(game, u, v)

        monkeypatch.setattr(GameOracle, "grads", counted)
        cfg = OptimizerConfig(alg, eta=0.05, unroll_k=3,
                              dg=DGConfig(k=3, gamma=0.05))
        traj = run_trajectory(make_game("bilinear:c=3"), cfg,
                              JointPoint.of(0.5, 0.5), steps=20)
        assert traj.steps == 20 and traj.error is None
        # the rule's own calls, and one for each row it hands no pair:
        # every dg row and the last row (gda 21, eg 41, dg 21)
        assert len(calls) == 20 * per_step + (21 if alg == "dg" else 1)

    @pytest.mark.parametrize("alg", ["gda", "ogda", "eg", "sga", "co",
                                     "unrolled", "fr"])
    def test_step_map_hands_back_the_pair_at_p(self, alg):
        step = make_step_map(F1, OptimizerConfig(alg, eta=0.05))
        for p in (JointPoint.of(0.3, -0.8), JointPoint(0.3, -0.8)):
            _, dg_val, (gu, gv) = step(p)
            want_u, want_v = F1.grads(p.u, p.v)
            assert dg_val is None
            assert np.array_equal(gu, want_u) and np.array_equal(gv, want_v)

    def test_dg_map_hands_back_no_pair(self):
        cfg = OptimizerConfig("dg", eta=0.05, dg=DGConfig(k=3, gamma=0.05))
        q, dg_val, grads = make_step_map(F1, cfg)(JointPoint.of(0.3, -0.8))
        assert grads is None
        want_q, want_val = dgmod.dg_descent_step(
            F1, JointPoint.of(0.3, -0.8), cfg.dg, 0.05)
        assert dg_val == want_val and np.array_equal(q.concat(),
                                                     want_q.concat())


class TestFixedPointPreservation:
    @pytest.mark.parametrize("alg", ["gda", "ogda", "eg", "sga", "co",
                                     "unrolled", "fr", "dg"])
    def test_zero_gradient_points_are_fixed(self, alg):
        # f1 and f2 have their only stationary point at the origin
        game = F1 if alg != "fr" else F2
        cfg = OptimizerConfig(algorithm=alg, eta=0.05,
                              dg=DGConfig(gamma=0.05))
        step = make_step_map(game, cfg)
        q, _, _ = step(JointPoint.of(0.0, 0.0))
        assert abs(q.u[0]) < 1e-12 and abs(q.v[0]) < 1e-12


class TestTrajectories:
    def test_f2_gda_converges_to_origin(self):
        cfg = OptimizerConfig(algorithm="gda", eta=0.05)
        traj = run_trajectory(F2, cfg, JointPoint.of(1.0, 1.0), steps=5000,
                              targets=[JointPoint.of(0.0, 0.0)])
        assert traj.classification == "converged"

    def test_f1_gda_diverges(self):
        cfg = OptimizerConfig(algorithm="gda", eta=0.05)
        traj = run_trajectory(F1, cfg, JointPoint.of(0.1, 0.1), steps=5000,
                              targets=[JointPoint.of(0.0, 0.0)])
        assert traj.classification == "diverged"
        assert traj.steps < 5000  # truncated at the divergence step

    def test_init_at_zero_gradient_target(self):
        cfg = OptimizerConfig(algorithm="gda", eta=0.05)
        traj = run_trajectory(F1, cfg, JointPoint.of(0.0, 0.0), steps=10,
                              targets=[JointPoint.of(0.0, 0.0)])
        assert traj.classification == "converged"
        assert len(traj.iterates) == 11

    def test_records_indexing_and_count(self):
        cfg = OptimizerConfig(algorithm="eg", eta=0.05)
        traj = run_trajectory(F2, cfg, JointPoint.of(0.5, -0.5), steps=20)
        assert traj.steps == 20 and len(traj.iterates) == 21

    def test_determinism_bit_identical(self):
        cfg = OptimizerConfig(algorithm="sga", eta=0.05)
        t1 = run_trajectory(F1, cfg, JointPoint.of(0.5, 0.5), steps=200)
        t2 = run_trajectory(F1, cfg, JointPoint.of(0.5, 0.5), steps=200)
        assert np.array_equal(t1.iterates, t2.iterates)
        assert t1.value == t2.value

    @pytest.mark.parametrize("game,alg,init,error", [
        (make_bilinear(1.0), "fr", 0.5, "H_vv is singular at u=[0.5], v=[0.5]"),
        # the dg metric logged at t=0 is non-finite, and so is the estimate
        # of the step that follows
        (F1, "dg", 1e200, "duality-gap value is non-finite"),
    ])
    def test_step_error_keeps_the_partial_trajectory(self, game, alg, init,
                                                     error):
        dg = DGConfig(k=10, gamma=0.05) if alg == "dg" else None
        cfg = OptimizerConfig(algorithm=alg, eta=0.05, dg=dg)
        traj = run_trajectory(game, cfg, JointPoint.of(init, init), steps=10,
                              log_dg=dg is not None)
        assert (traj.steps, traj.dg) == (0, [None])
        assert traj.error == error
        assert traj.classification == "non_convergent"

    def test_csv_and_summary_export(self, tmp_path):
        cfg = OptimizerConfig(algorithm="gda", eta=0.05)
        traj = run_trajectory(F2, cfg, JointPoint.of(1.0, 1.0), steps=50,
                              targets=[JointPoint.of(0.0, 0.0)])
        csv_path = tmp_path / "traj.csv"
        json_path = tmp_path / "traj.json"
        traj.write_csv(csv_path)
        traj.write_summary(json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,u0,v0,value,grad_u_norm,grad_v_norm,dg"
        assert len(lines) == 52
        summary = json.loads(json_path.read_text())
        assert set(summary) == {"algorithm", "game", "eta", "steps",
                                "classification", "final_point",
                                "final_distance"}
        assert summary["game"] == "f2" and summary["algorithm"] == "gda"

        # the exact text: an int step cell, an empty and a filled dg cell,
        # -0.0, JSON null and a nested list
        hand = Trajectory(game="f1", algorithm="dg", eta=0.05, dim_u=1,
                          iterates=np.array([[-0.0, 0.1], [0.25, -1e-300]]),
                          value=[0.5, -0.0], grad_u_norm=[1.0, 3.0],
                          grad_v_norm=[2.5, 0.0], dg=[None, 0.125])
        hand.write_csv(csv_path)
        hand.write_summary(json_path)
        assert csv_path.read_text() == (
            "t,u0,v0,value,grad_u_norm,grad_v_norm,dg\n"
            "0,-0.0,0.1,0.5,1.0,2.5,\n"
            "1,0.25,-1e-300,-0.0,3.0,0.0,0.125\n")
        assert json_path.read_text() == (
            '{\n'
            '  "algorithm": "dg",\n'
            '  "classification": "non_convergent",\n'
            '  "eta": 0.05,\n'
            '  "final_distance": null,\n'
            '  "final_point": [\n'
            '    0.25,\n'
            '    -1e-300\n'
            '  ],\n'
            '  "game": "f1",\n'
            '  "steps": 1\n'
            '}\n')

    @pytest.mark.parametrize("grad_mode", ["envelope", "unrolled"])
    def test_logged_dg_settings_checked_once_per_step(self, monkeypatch,
                                                      grad_mode):
        """A logged dg run checks k and gamma once, where its DGConfig is
        built; its steps and logged metrics make no settings check."""
        checked, calls = dgmod.checked, []

        def counting(name, *args, **kwargs):
            calls.append(name)
            return checked(name, *args, **kwargs)

        monkeypatch.setattr(dgmod, "checked", counting)
        monkeypatch.setattr(optimizers, "checked", counting)

        def checks(steps):
            dg = DGConfig(k=3, gamma=0.05, grad_mode=grad_mode)
            cfg = OptimizerConfig(algorithm="dg", eta=0.05, dg=dg)
            calls.clear()
            run_trajectory(B3, cfg, JointPoint.of(0.5, -0.5), steps=steps,
                           log_dg=True)
            return len(calls)

        assert checks(7) - checks(1) == 0


class TestTrajectoryTable:
    """Row t of a trajectory is iterate t: the t-th point of a fresh step
    map, with its oracle values and norms and, when logged, its DG."""

    STARTS = {
        "f1-float": ("f1", (0.3, -0.2), np.float64),
        "f1-float32": ("f1", (0.3, -0.2), np.float32),
        "bilinear-float": ("bilinear:c=3", (0.4, 0.25), np.float64),
        "bilinear-float32": ("bilinear:c=3", (0.4, 0.25), np.float32),
        "motivation-boxed": ("motivation", (0.4, -0.3), np.float64),
    }

    @pytest.mark.parametrize("log_dg", [False, True])
    @pytest.mark.parametrize("start", sorted(STARTS))
    @pytest.mark.parametrize("alg", optimizers.ALGORITHMS)
    def test_rows_are_the_stepped_points(self, alg, start, log_dg):
        spec, (x, y), dtype = self.STARTS[start]
        game = make_game(spec)
        cfg = OptimizerConfig(alg, eta=0.05, unroll_k=3,
                              dg=DGConfig(k=3, gamma=0.05))
        init = JointPoint(np.array([x], dtype=dtype),
                          np.array([y], dtype=dtype))
        traj = run_trajectory(game, cfg, init, steps=30,
                              targets=[JointPoint.of(0.0, 0.0)],
                              log_dg=log_dg)
        assert traj.steps == len(traj.iterates) - 1
        # fr's H_vv is singular on bilinear, and co diverges on motivation
        assert (traj.steps == 30) == (traj.error is None and
                                      traj.classification != "diverged")
        assert traj.dim_u == 1 and traj.iterates.dtype == np.float64
        columns = (traj.value, traj.grad_u_norm, traj.grad_v_norm, traj.dg)
        assert all(len(col) == len(traj.iterates) for col in columns)

        step, p = make_step_map(game, cfg), JointPoint.of(init.u, init.v)
        for t, row in enumerate(traj.iterates):
            assert row.tobytes() == p.concat().tobytes()
            gu, gv = game.grads(p.u, p.v)
            assert traj.value[t] == float(game.value(p.u, p.v))
            assert traj.grad_u_norm[t] == float(np.linalg.norm(gu))
            assert traj.grad_v_norm[t] == float(np.linalg.norm(gv))
            if log_dg:
                assert traj.dg[t] == dgmod.dg_metric(game, p, cfg.dg)
            else:
                assert traj.dg[t] is None
            if t < traj.steps:
                p, _, _ = step(p)

        last = traj.iterates[-1]
        final = traj.final_point
        assert (final.u.tobytes(), final.v.tobytes()) == (
            last[:1].tobytes(), last[1:].tobytes())
        summary = traj.summary()
        assert summary["steps"] == traj.steps
        assert summary["final_point"] == [float(last[0]), float(last[1])]
