"""Duality-gap estimation: inner responses, both gradient modes, AdaGrad."""

import contextlib
import sys
import threading
import time
from argparse import Namespace
from dataclasses import replace

import numpy as np
import pytest

from dgopt import parallel
from dgopt.cli import _dg_config
from dgopt.dg import (AdaGradState, DGConfig, adagrad_step, dg_descent_step,
                      dg_estimate, dg_metric, worst_case_responses)
from dgopt.games import (Box, GameOracle, JointPoint, NonFiniteValueError,
                         make_bilinear, make_game, make_poly_f3,
                         make_quadratic_f1, make_quadratic_f2)
from dgopt.optimizers import OptimizerConfig, gda_step, run_trajectory
from dgopt.parallel import concurrent_halves
from game_helpers import box_contains

B3 = make_bilinear(3.0)
F1 = make_quadratic_f1()
F2 = make_quadratic_f2()

# largest Hessian eigenvalue of the constant-curvature games
SMOOTHNESS = {"f1": 4 + np.sqrt(20), "f2": 4 + np.sqrt(20),
              "bilinear:c=3": 3.0, "bilinear:c=10": 10.0}


class TestWorstCaseResponses:
    def test_k0_is_identity(self):
        p = JointPoint.of(0.7, -0.2)
        uw, vw = worst_case_responses(B3, p, DGConfig(k=0, gamma=0.1))
        assert uw[0] == 0.7 and vw[0] == -0.2

    def test_bilinear_linear_accumulation(self):
        # the frozen opponent keeps the inner gradient constant, so k
        # steps accumulate linearly: v_w = v + k*gamma*c*u
        for c in (3.0, 10.0):
            game = make_bilinear(c)
            for k in (1, 5, 10):
                gamma = 0.05
                p = JointPoint.of(0.4, -1.1)
                uw, vw = worst_case_responses(game, p,
                                              DGConfig(k=k, gamma=gamma))
                assert vw[0] == pytest.approx(-1.1 + k * gamma * c * 0.4, rel=1e-12)
                assert uw[0] == pytest.approx(0.4 - k * gamma * c * -1.1, rel=1e-12)

    def test_equilibrium_is_inner_fixed_point(self):
        p = JointPoint.of(0.0, 0.0)
        uw, vw = worst_case_responses(F1, p, DGConfig(k=25, gamma=0.05))
        assert uw[0] == 0.0 and vw[0] == 0.0

    def test_nonfinite_inner_iterate_reports_step(self):
        # huge gamma on f1 makes the descent chain blow up fast
        p = JointPoint.of(1.0, 0.0)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteValueError, match="inner"):
                worst_case_responses(F1, p, DGConfig(k=500, gamma=1e100))


class TestDGEstimate:
    def test_equilibrium_gives_zero(self):
        for cfg in (DGConfig(k=10, gamma=0.05),
                    DGConfig(k=10, gamma=0.05, grad_mode="unrolled")):
            est = dg_estimate(B3, JointPoint.of(0.0, 0.0), cfg)
            assert est.value == 0.0
            assert est.grad_u[0] == 0.0 and est.grad_v[0] == 0.0

    def test_unrolled_f1_k1_matches_closed_form(self):
        # hand-derived total-derivative gradient for k=1, gamma=eta:
        # grad_u = 8 eta ((23 eta + 13) x - 8 (2 eta + 1) y)
        # grad_v = 8 eta ((11 eta + 5) y - 8 (2 eta + 1) x)
        rng = np.random.default_rng(5)
        for eta in (0.01, 0.05, 0.1):
            cfg = DGConfig(k=1, gamma=eta, grad_mode="unrolled")
            for _ in range(10):
                x, y = rng.uniform(-2, 2, 2)
                est = dg_estimate(F1, JointPoint.of(x, y), cfg)
                want_u = 8 * eta * ((23 * eta + 13) * x - 8 * (2 * eta + 1) * y)
                want_v = 8 * eta * ((11 * eta + 5) * y - 8 * (2 * eta + 1) * x)
                assert est.grad_u[0] == pytest.approx(want_u, rel=1e-10, abs=1e-12)
                assert est.grad_v[0] == pytest.approx(want_v, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("game,spec", [(F1, "f1"), (make_poly_f3(), "f3")])
    def test_unrolled_gradient_matches_fd_of_value(self, game, spec):
        cfg = DGConfig(k=4, gamma=0.05, grad_mode="unrolled")
        rng = np.random.default_rng(42)

        def value_at(x, y):
            return dg_estimate(game, JointPoint.of(x, y), cfg).value

        checked = 0
        for _ in range(50):
            x, y = rng.uniform(-1.5, 1.5, 2)
            est = dg_estimate(game, JointPoint.of(x, y), cfg)
            h = 1e-5
            fd_u = (value_at(x + h, y) - value_at(x - h, y)) / (2 * h)
            fd_v = (value_at(x, y + h) - value_at(x, y - h)) / (2 * h)
            for got, want in ((est.grad_u[0], fd_u), (est.grad_v[0], fd_v)):
                assert abs(got - want) <= max(1e-5 * abs(want), 1e-7)
            checked += 1
        assert checked == 50

    def test_unrolled_rejects_boxed_game(self):
        cfg = DGConfig(k=3, gamma=0.05, grad_mode="unrolled")
        with pytest.raises(ValueError, match="box domain"):
            dg_estimate(make_game("motivation"), JointPoint.of(1.0, 1.0), cfg)

    @pytest.mark.parametrize("spec", ["bilinear:c=3", "f1", "f3",
                                      "motivation", "ncnc:c=3,sep=1"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batched_envelope_equals_per_point_calls(self, spec, dtype):
        game = make_game(spec)
        rng = np.random.default_rng(11)
        u, v = rng.uniform(-1.5, 1.5, (2, 4, 3, 1)).astype(dtype)
        for k in (0, 2):
            cfg = DGConfig(k=k, gamma=0.05)
            est = dg_estimate(game, JointPoint(u, v), cfg)
            assert est.value.shape == (4, 3)
            assert est.grad_u.shape == est.grad_v.shape == u.shape
            for idx in np.ndindex(4, 3):
                one = dg_estimate(game, JointPoint(u[idx], v[idx]), cfg)
                assert np.array_equal(est.value[idx], one.value)
                for field in ("u_worst", "v_worst", "grad_u", "grad_v"):
                    assert np.array_equal(getattr(est, field)[idx],
                                          getattr(one, field))

    def test_batched_nonfinite_value_raises(self):
        u = np.array([[0.5], [1e200]])
        with pytest.raises(NonFiniteValueError, match="duality-gap value"):
            dg_estimate(F1, JointPoint(u, u.copy()), DGConfig(k=0, gamma=0.05))

    def test_unrolled_rejects_a_batch(self):
        p = JointPoint(np.zeros((3, 1)), np.ones((3, 1)))
        for k in (0, 2):
            cfg = DGConfig(k=k, gamma=0.05, grad_mode="unrolled")
            with pytest.raises(ValueError, match="batch"):
                dg_estimate(F1, p, cfg)

    def test_envelope_and_unrolled_agree_at_k0(self):
        p = JointPoint.of(0.8, -0.5)
        env = dg_estimate(F2, p, DGConfig(k=0, gamma=0.05))
        unr = dg_estimate(F2, p, DGConfig(k=0, gamma=0.05, grad_mode="unrolled"))
        assert env.grad_u[0] == unr.grad_u[0]
        assert env.grad_v[0] == unr.grad_v[0]

    @pytest.mark.parametrize("spec", ["bilinear:c=3", "bilinear:c=10", "f1", "f2"])
    @pytest.mark.parametrize("k", [1, 5, 10, 25])
    def test_warm_start_nonnegativity(self, spec, k):
        # gamma <= 1/L keeps every inner step monotone for the frozen
        # player, so the estimate cannot go negative
        game = make_game(spec)
        gamma = 1.0 / SMOOTHNESS[spec]
        cfg = DGConfig(k=k, gamma=gamma)
        rng = np.random.default_rng(99)
        for _ in range(200):
            p = JointPoint.of(*rng.uniform(-3, 3, 2))
            assert dg_estimate(game, p, cfg).value >= -1e-9

    def test_k_monotone_on_boxed_bilinear(self):
        # more inner ascent steps cannot hurt the frozen-opponent value
        # while iterates stay in the box
        gamma = 0.01
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = JointPoint.of(*rng.uniform(-0.2, 0.2, 2))
            v10 = dg_metric(B3, p, DGConfig(k=10, gamma=gamma))
            v50 = dg_metric(B3, p, DGConfig(k=50, gamma=gamma))
            assert v50 >= v10 >= 0.0


P_HALVES = JointPoint.of(0.3, -0.2)


def _half(player, u, v):
    """Which DG half makes a gradient call at P_HALVES: the descent
    chain freezes v and its tail evaluates grad_v away from u; the
    ascent chain freezes u and its tail evaluates grad_u away from v."""
    if player == "u":
        return "descent" if v[0] == P_HALVES.v[0] else "ascent"
    return "ascent" if u[0] == P_HALVES.u[0] else "descent"


def _failing_game(descent_fails_at, ascent_fails_at, descent_delay=0.0):
    """A 1-D game whose descent (ascent) chain gradient turns infinite at
    that inner step, None meaning never; descent steps can be slowed."""
    steps = {"descent": 0, "ascent": 0}
    fails_at = {"descent": descent_fails_at, "ascent": ascent_fails_at}

    def grad(player):
        def g(u, v):
            half = _half(player, u, v)
            if (half == "descent") != (player == "u"):
                return np.array([0.1])      # the other half's tail
            if half == "descent":
                time.sleep(descent_delay)
            steps[half] += 1
            return np.array([np.inf if steps[half] == fails_at[half] else 0.1])
        return g

    return GameOracle("failing", 1, 1, lambda u, v: 0.0, grad("u"), grad("v"))


class TestHalves:
    @pytest.mark.parametrize("concurrent", [False, True])
    @pytest.mark.parametrize("fails,message", [
        ((2, None), "inner descent iterate became non-finite at inner step 2"),
        ((None, 1), "inner ascent iterate became non-finite at inner step 1"),
        ((3, 1), "inner descent iterate became non-finite at inner step 3"),
    ])
    def test_nonfinite_half_surfaces_in_sequential_order(self, concurrent,
                                                         fails, message):
        # the slow descent chain fails after the ascent chain has: the
        # descent error still wins, as it does in sequence
        evaluations = (
            lambda game: dg_estimate(game, P_HALVES, DGConfig(k=4, gamma=0.1)),
            lambda game: dg_metric(game, P_HALVES, DGConfig(k=4, gamma=0.1)))
        for evaluate in evaluations:
            game = _failing_game(*fails, descent_delay=0.01)
            with (concurrent_halves() if concurrent
                  else contextlib.nullcontext()):
                with pytest.raises(NonFiniteValueError) as err:
                    evaluate(game)
            assert str(err.value) == message

    def test_descent_half_runs_on_the_executor(self):
        threads = {"descent": set(), "ascent": set()}

        def record(player, grad):
            def g(u, v):
                threads[_half(player, u, v)].add(threading.get_ident())
                return grad(u, v)
            return g

        game = GameOracle("f1-recorded", 1, 1, F1.value,
                          record("u", F1.grad_u), record("v", F1.grad_v))
        cfg = DGConfig(k=5, gamma=0.05)
        want = dg_estimate(F1, P_HALVES, cfg)
        with concurrent_halves():
            got = dg_estimate(game, P_HALVES, cfg)
        assert threads["ascent"] == {threading.get_ident()}
        assert len(threads["descent"]) == 1
        assert threading.get_ident() not in threads["descent"]
        assert got.value == want.value
        for field in ("u_worst", "v_worst", "grad_u", "grad_v"):
            assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_scope_is_per_thread_and_restored_on_exit(self):
        seen = []

        def record(u, v):
            seen.append(threading.current_thread().name)
            return F1.grad_u(u, v)

        game = GameOracle("f1-recorded", 1, 1, F1.value, record, F1.grad_v)

        def evaluate(k):
            dg_metric(game, P_HALVES, DGConfig(k=k, gamma=0.05))
            return seen.pop()

        main = threading.current_thread().name
        assert evaluate(1) == main
        with concurrent_halves():
            outer = parallel._halves.pool
            assert evaluate(2).startswith("dg-descent")
            with concurrent_halves():
                assert parallel._halves.pool is not outer
            assert parallel._halves.pool is outer
            # another thread has no scope open: its halves run on it
            names = []
            other = threading.Thread(target=lambda: names.append(evaluate(3)),
                                     name="other")
            other.start()
            other.join(timeout=30)
            assert not other.is_alive()
            assert names == ["other"]
        assert evaluate(4) == main
        assert getattr(parallel._halves, "pool", None) is None


def _counting(game):
    """game with grad_u/grad_v wrapped to count calls, and the counts."""
    counts = {"grad_u": 0, "grad_v": 0}

    def counted(name, fn):
        def g(u, v):
            counts[name] += 1
            return fn(u, v)
        return g

    return replace(game, grad_u=counted("grad_u", game.grad_u),
                   grad_v=counted("grad_v", game.grad_v)), counts


class TestSharedChains:
    """A DG value and the descent step at the same point share one pair
    of inner chains; each result equals a fresh evaluation's."""

    @pytest.mark.parametrize("steps", [1, 7])
    def test_logged_dg_trajectory_runs_each_chain_once(self, steps):
        k = 3
        game, counts = _counting(F2)
        cfg = OptimizerConfig(algorithm="dg", eta=0.05,
                              dg=DGConfig(k=k, gamma=0.05))
        traj = run_trajectory(game, cfg, JointPoint.of(0.4, -0.3),
                              steps=steps, log_dg=True)
        assert len(traj.records) == steps + 1
        # per step: both tails, the record's own gradient and the next
        # value's k-step chain; run twice, the chains would add k more
        want = steps * (k + 2) + k + 1
        assert counts == {"grad_u": want, "grad_v": want}

    @pytest.mark.parametrize("grad_mode", ["envelope", "unrolled"])
    def test_shared_trajectory_equals_unshared(self, grad_mode):
        cfg = OptimizerConfig(algorithm="dg", eta=0.05,
                              dg=DGConfig(k=4, gamma=0.05,
                                          grad_mode=grad_mode))
        init = JointPoint.of(0.4, -0.3)
        logged = run_trajectory(F2, cfg, init, steps=30, log_dg=True)
        plain = run_trajectory(F2, cfg, init, steps=30)
        for a, b in zip(logged.records, plain.records):
            assert a.u.tobytes() == b.u.tobytes()
            assert a.v.tobytes() == b.v.tobytes()
        for rec in logged.records:
            p = JointPoint(rec.u, rec.v)
            assert rec.dg == dg_metric(replace(F2), p, cfg.dg)

    def test_mutating_a_result_leaves_later_results(self):
        p = JointPoint.of(0.7, -0.4)
        cfg = DGConfig(k=3, gamma=0.05)
        want = dg_estimate(replace(F1), p, cfg)
        uw, vw = worst_case_responses(F1, p, cfg)
        uw[:] = 99.0
        vw[:] = -99.0
        est = dg_estimate(F1, p, cfg)
        assert est.value == want.value
        for field in ("u_worst", "v_worst", "grad_u", "grad_v"):
            assert np.array_equal(getattr(est, field), getattr(want, field))
        est.u_worst[:] = 99.0
        est.v_worst[:] = -99.0
        uw, vw = worst_case_responses(F1, p, cfg)
        assert np.array_equal(uw, want.u_worst)
        assert np.array_equal(vw, want.v_worst)

    def test_distinct_games_at_one_point_do_not_share(self):
        p = JointPoint.of(0.6, 0.2)
        cfg = DGConfig(k=3, gamma=0.05)
        want = dg_estimate(make_bilinear(10.0), p, cfg)
        b10, counts = _counting(make_bilinear(10.0))
        assert dg_metric(B3, p, cfg) != want.value
        got = dg_estimate(b10, p, cfg)
        assert counts == {"grad_u": 4, "grad_v": 4}
        assert got.value == want.value
        assert np.array_equal(got.u_worst, want.u_worst)

    @pytest.mark.parametrize("changed", ["k", "gamma", "dtype", "point"])
    def test_another_setting_runs_the_chains(self, changed):
        game, counts = _counting(F2)
        p = JointPoint.of(0.6, 0.2)
        dg_metric(game, p, DGConfig(k=3, gamma=0.05))
        k, gamma = 3, 0.05
        if changed == "k":
            k = 2
        elif changed == "gamma":
            gamma = 0.06
        elif changed == "dtype":
            p = JointPoint(p.u.astype(np.float32), p.v.astype(np.float32))
        else:
            p = JointPoint.of(0.6, np.nextafter(0.2, 1.0))
        counts.update(grad_u=0, grad_v=0)
        dg_estimate(game, p, DGConfig(k=k, gamma=gamma))
        assert counts == {"grad_u": k + 1, "grad_v": k + 1}

    def test_nonfinite_chain_raises_every_time(self):
        p = JointPoint.of(1.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(2):
                with pytest.raises(NonFiniteValueError, match="inner"):
                    dg_metric(F1, p, DGConfig(k=500, gamma=1e100))
                with pytest.raises(NonFiniteValueError, match="inner"):
                    dg_estimate(F1, p, DGConfig(k=500, gamma=1e100))

    def test_threads_keep_their_own_chains(self):
        games = [make_game(spec) for spec in ("f3", "motivation")]
        rng = np.random.default_rng(5)
        points = [JointPoint.of(*rng.uniform(-2.0, 2.0, 2)) for _ in range(4)]
        cfg = DGConfig(k=3, gamma=0.05)

        def evaluate(game, p):
            metric = dg_metric(game, p, cfg)
            est = dg_estimate(game, p, cfg)
            return metric, est.value, est.u_worst.tobytes(), est.grad_v.tobytes()

        want = [[evaluate(replace(g), p) for g in games] for p in points]
        got = [[] for _ in points]

        def worker(i):
            for _ in range(200):
                got[i].append([evaluate(g, points[i]) for g in games])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(points))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, runs in enumerate(got):
            assert len(runs) == 200
            assert all(run == want[i] for run in runs)


class TestDGDescent:
    def test_envelope_bilinear_update_matrix(self):
        # substituting the linear k-step responses into the envelope
        # gradients gives p' = [[1 - e^2 k c^2, -e c], [e c, 1 - e^2 k c^2]] p
        for c in (3.0, 10.0):
            game = make_bilinear(c)
            for k in (1, 10):
                eta = 0.05
                cfg = DGConfig(k=k, gamma=eta)
                m = np.array([[1 - eta ** 2 * k * c ** 2, -eta * c],
                              [eta * c, 1 - eta ** 2 * k * c ** 2]])
                rng = np.random.default_rng(3)
                for _ in range(10):
                    p = JointPoint.of(*rng.uniform(-2, 2, 2))
                    got, _ = dg_descent_step(game, p, cfg, eta)
                    want = m @ np.array([p.u[0], p.v[0]])
                    assert got.u[0] == pytest.approx(want[0], rel=1e-12, abs=1e-14)
                    assert got.v[0] == pytest.approx(want[1], rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("game", [B3, F1])
    def test_k0_reproduces_gda_bit_identical(self, game):
        cfg = DGConfig(k=0, gamma=0.05)
        p_dg = JointPoint.of(0.31, -0.64)
        p_gda = JointPoint.of(0.31, -0.64)
        for _ in range(1000):
            p_dg, _ = dg_descent_step(game, p_dg, cfg, 0.05)
            p_gda = gda_step(game, p_gda, 0.05)
            assert p_dg.u[0] == p_gda.u[0]
            assert p_dg.v[0] == p_gda.v[0]
            if max(abs(p_dg.u[0]), abs(p_dg.v[0])) > 1e200:
                break

    def test_equilibrium_fixed(self):
        cfg = DGConfig(k=10, gamma=0.05)
        q, _ = dg_descent_step(F2, JointPoint.of(0.0, 0.0), cfg, 0.05)
        assert q.u[0] == 0.0 and q.v[0] == 0.0

    def test_trajectory_determinism(self):
        cfg = OptimizerConfig(algorithm="dg", eta=0.05,
                              dg=DGConfig(k=10, gamma=0.05))
        runs = [run_trajectory(B3, cfg, JointPoint.of(0.5, 0.5), steps=300)
                for _ in range(2)]
        for a, b in zip(runs[0].records, runs[1].records):
            assert a.u[0] == b.u[0] and a.v[0] == b.v[0]

    def test_adagrad_outer_projects_and_converges(self):
        from dgopt.dg import AdaGradState
        box = Box.square(-1.0, 1.0)
        state = AdaGradState.fresh(diameter=box.diameter, box=box)
        cfg = DGConfig(k=10, gamma=0.05)
        p = JointPoint.of(0.9, -0.9)
        for _ in range(400):
            p, _ = dg_descent_step(B3, p, cfg, state)
            assert box_contains(box, p.concat(), tol=1e-12)
        assert p.norm() < 0.05
        assert state.sum_sq > 0.0

    def test_adagrad_outer_requires_explicit_gamma(self):
        # a DGConfig without gamma cannot be built, so no outer rule, the
        # adagrad one included, runs without an inner step
        with pytest.raises(TypeError, match="gamma"):
            DGConfig(k=3)


class TestConfigStrings:
    @pytest.mark.parametrize("eta", [-1.0, 0.0, float("nan")])
    def test_auto_gamma_rejects_a_non_positive_step(self, eta):
        args = Namespace(k=3, gamma=None, eta=eta, mode="envelope")
        with pytest.raises(ValueError, match="gamma must be positive"):
            _dg_config(args)

    def test_unknown_grad_mode_rejected(self):
        with pytest.raises(ValueError, match="grad_mode must be one of"):
            DGConfig(k=3, gamma=0.05, grad_mode="reverse")


class TestDGMetric:
    def test_equilibrium_zero(self):
        assert dg_metric(F2, JointPoint.of(0.0, 0.0),
                         DGConfig(k=10, gamma=0.05)) == 0.0

    def test_equals_estimate_value(self):
        p = JointPoint.of(1.0, 1.0)
        cfg = DGConfig(k=10, gamma=0.05)
        est = dg_estimate(F2, p, cfg)
        got = dg_metric(F2, p, cfg)
        assert got == est.value
        assert got > 0.0

    def test_bounded_by_exact_box_dg(self):
        from dgopt.dynamics import dg_exact_grid
        box = Box.square(-1.0, 1.0)
        exact_fn, _ = dg_exact_grid(B3, box, resolution=201)
        rng = np.random.default_rng(23)
        # small gamma*k keeps the inner iterates inside the box
        for _ in range(25):
            x, y = rng.uniform(-0.3, 0.3, 2)
            approx = dg_metric(B3, JointPoint.of(x, y),
                               DGConfig(k=10, gamma=0.01))
            assert approx <= exact_fn(x, y) + 1e-9

    def test_bounded_by_exact_dg_at_every_grid_node(self):
        # with the inner iterates clamped to the box, the k-step estimate
        # can never exceed the exact box DG anywhere on the grid
        from dataclasses import replace
        from dgopt.dynamics import dg_exact_grid
        box = Box.square(-1.0, 1.0)
        boxed = replace(B3, domain=box)
        _, grid = dg_exact_grid(boxed, box, resolution=41)
        for i, ui in enumerate(grid.u_axis):
            for j, vj in enumerate(grid.v_axis):
                approx = dg_metric(boxed, JointPoint.of(ui, vj),
                                   DGConfig(k=10, gamma=0.05))
                assert approx <= grid.values[i, j] + 1e-9


class TestAdaGrad:
    BOX = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))

    def test_first_step_effective_eta(self):
        state = AdaGradState.fresh(1.0, self.BOX)
        x = np.array([0.5, 0.5])
        g = np.array([2.0, 0.0])
        x2 = adagrad_step(state, x, g)
        # eta_1 = D / ||g|| = 1/2
        assert x2[0] == pytest.approx(0.5 - 0.5 * 2.0)
        assert state.sum_sq == 4.0

    def test_all_zero_first_gradient_skipped(self):
        state = AdaGradState.fresh(1.0, self.BOX)
        x = np.array([0.3, 0.3])
        x2 = adagrad_step(state, x, np.zeros(2))
        assert np.array_equal(x2, x)
        assert state.sum_sq == 0.0

    def test_zero_gradient_after_warmup_keeps_point(self):
        state = AdaGradState(sum_sq=5.0, diameter=1.0, box=self.BOX)
        x = np.array([0.3, -0.1])
        x2 = adagrad_step(state, x, np.zeros(2))
        assert np.array_equal(x2, x)
        assert state.sum_sq == 5.0

    def test_boundary_projection(self):
        state = AdaGradState(sum_sq=1.0, diameter=1.0, box=self.BOX)
        x = np.array([2.0, 0.0])        # on the boundary
        g = np.array([-3.0, 0.0])       # pushes outward
        x2 = adagrad_step(state, x, g)
        assert x2[0] == 2.0

    def test_effective_step_non_increasing(self):
        state = AdaGradState.fresh(1.0, self.BOX)
        rng = np.random.default_rng(8)
        x = np.array([1.0, -1.0])
        last_eta = np.inf
        for _ in range(100):
            g = rng.standard_normal(2)
            x = adagrad_step(state, x, g)
            eta = state.diameter / np.sqrt(state.sum_sq)
            assert eta <= last_eta + 1e-15
            last_eta = eta
