"""GAN game oracle: dataset statistics, backprop checks, training plumbing."""

import collections
import contextlib
import gc
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from dgopt import mog, optimizers, parallel
from dgopt.dg import DGConfig, dg_estimate, dg_metric
from dgopt.games import JointPoint, NonFiniteValueError
from dgopt.mog import (D_LAYOUT, G_LAYOUT, MogGanGame, MogTrainingLog,
                       _fd_hessian_vector, mlp_backward, mlp_forward,
                       mode_coverage, sample_dataset, train_mog)
from dgopt.optimizers import OptimizerConfig, make_step_map


def _allow_cpus(monkeypatch, count, mask=True):
    """Let the process use count CPUs as train_mog sees them: through its
    affinity mask or, with mask=False, an OS without one whose CPU count
    is count."""
    if mask:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)


def _moved_params(game, seed):
    """A generic point off the zero-bias initialization."""
    u, v = game.init_params()
    rng = np.random.default_rng(seed)
    return (u + (0.05 * rng.standard_normal(u.size)).astype(game.dtype),
            v + (0.05 * rng.standard_normal(v.size)).astype(game.dtype))


class TestDataset:
    def test_mode_counts_within_binomial_3_sigma(self):
        data = sample_dataset(seed=0, n=5000)
        expected = 5000 / 3
        sigma = np.sqrt(5000 * (1 / 3) * (2 / 3))
        for center in (-4.0, 0.0, 4.0):
            count = int(np.sum(np.abs(data - center) <= 0.5))
            assert abs(count - expected) <= 3 * sigma

    def test_samples_hug_the_centers(self):
        data = sample_dataset(seed=0, n=5000)
        dist = np.min(np.abs(data[:, None] - np.array([-4.0, 0.0, 4.0])), axis=1)
        outliers = int(np.sum(dist > 0.5))
        assert outliers <= 1  # > 4.9 sigma events

    def test_mean_near_zero(self):
        data = sample_dataset(seed=0, n=5000)
        assert abs(float(np.mean(data))) <= 0.2

    def test_deterministic(self):
        assert np.array_equal(sample_dataset(seed=3), sample_dataset(seed=3))


class TestModeCoverage:
    def test_point_mass(self):
        fracs = mode_coverage(np.zeros(100), window=0.5)
        assert fracs == (0.0, 1.0, 0.0)

    def test_real_dataset_is_balanced(self):
        data = sample_dataset(seed=1, n=5000)
        fracs = mode_coverage(data)
        for f in fracs:
            assert abs(f - 1 / 3) <= 0.03

    def test_uniform_spread(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-6, 6, 200000)
        fracs = mode_coverage(samples, window=0.5)
        for f in fracs:
            assert f == pytest.approx(1 / 12, abs=0.005)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mode_coverage(np.array([]))
        with pytest.raises(ValueError, match="window"):
            mode_coverage(np.zeros(3), window=0.0)


class TestGanOracle:
    def test_constant_half_discriminator_value(self):
        game = MogGanGame(seed=2, n=500, dtype=np.float64)
        u, v0 = game.init_params()
        # zero the final discriminator layer: logit = 0 -> D = 1/2
        v = v0.copy()
        (w0, w1, _), (b0, b1, _) = D_LAYOUT.slices[-1]
        v[w0:w1] = 0.0
        v[b0:b1] = 0.0
        assert game.value(u, v) == pytest.approx(2 * np.log(0.5), rel=1e-12)

    def test_backprop_matches_fd_on_20_coordinates(self):
        game = MogGanGame(seed=2, n=400, dtype=np.float64)
        u, v = game.init_params()
        # move off the all-zero-bias init to a generic point
        rng = np.random.default_rng(5)
        u = u + 0.05 * rng.standard_normal(u.size)
        v = v + 0.05 * rng.standard_normal(v.size)
        _, gu, gv = game.value_and_grads(u, v)
        h = 1e-6
        for params, grad, which in ((u, gu, "u"), (v, gv, "v")):
            coords = rng.choice(params.size, size=20, replace=False)
            for c in coords:
                e = np.zeros(params.size)
                e[c] = h
                if which == "u":
                    fd = (game.value(params + e, v) - game.value(params - e, v)) / (2 * h)
                else:
                    fd = (game.value(u, params + e) - game.value(u, params - e)) / (2 * h)
                assert abs(grad[c] - fd) <= max(1e-4 * abs(fd), 1e-9)

    def test_oracle_purity_bit_identical(self):
        game = MogGanGame(seed=4, n=300, dtype=np.float64)
        u, v = game.init_params()
        assert game.value(u, v) == game.value(u, v)
        assert np.array_equal(game.grad_u(u, v), game.grad_u(u, v))
        assert np.array_equal(game.grad_v(u, v), game.grad_v(u, v))

    def test_backprop_matches_fd_at_mid_training_checkpoint(self):
        # gradient check again after some training, away from the
        # zero-bias initialization geometry
        game = MogGanGame(seed=8, n=300, dtype=np.float64)
        log = train_mog("gda", game, iterations=50, log_interval=50,
                        lr=1e-2)
        u, v = log.final_u, log.final_v
        _, gu, gv = game.value_and_grads(u, v)
        rng = np.random.default_rng(3)
        h = 1e-6
        for c in rng.choice(u.size, size=10, replace=False):
            e = np.zeros(u.size)
            e[c] = h
            fd = (game.value(u + e, v) - game.value(u - e, v)) / (2 * h)
            assert abs(gu[c] - fd) <= max(1e-4 * abs(fd), 1e-9)
        for c in rng.choice(v.size, size=10, replace=False):
            e = np.zeros(v.size)
            e[c] = h
            fd = (game.value(u, v + e) - game.value(u, v - e)) / (2 * h)
            assert abs(gv[c] - fd) <= max(1e-4 * abs(fd), 1e-9)

    @staticmethod
    def _assert_fused_equal_separate(game):
        for u, v in (game.init_params(), _moved_params(game, 1)):
            value = game.value(u, v)
            gu, gv = game.grad_u(u, v), game.grad_v(u, v)
            val_u, fused_gu = game.value_and_grad_u(u, v)
            val_v, fused_gv = game.value_and_grad_v(u, v)
            val, all_gu, all_gv = game.value_and_grads(u, v)
            pair_gu, pair_gv = game.grads(u, v)
            assert val_u == value and val_v == value and val == value
            for fused in (fused_gu, all_gu, pair_gu):
                assert fused.tobytes() == gu.tobytes()
            for fused in (fused_gv, all_gv, pair_gv):
                assert fused.tobytes() == gv.tobytes()

    # the real and the fake D pass are the same in every entry point
    @pytest.mark.parametrize("n", [600, 601, 5000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_passes_equal_separate_calls_bit_for_bit(self, dtype, n):
        self._assert_fused_equal_separate(
            MogGanGame(seed=5, n=n, dtype=dtype))

    @pytest.mark.parametrize("n", [600, 601])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_concurrent_halves_equal_sequential_bit_for_bit(self, dtype, n):
        # in a concurrent_halves() scope the real rows' D pass runs on the
        # worker, with that thread's buffers, beside the fake rows' here
        game = MogGanGame(seed=6, n=n, dtype=dtype)
        threads, half = [], game._half
        game._half = lambda v, x, real, *rest: (
            threads.append((real, threading.current_thread().name))
            or half(v, x, real, *rest))

        def every_call():
            out = [getattr(game, name)(u, v)
                   for u, v in (game.init_params(), _moved_params(game, 6))
                   for name in ORACLE_CALLS]
            return [np.asarray(part).tobytes() for res in out
                    for part in (res if isinstance(res, tuple) else (res,))]

        want = every_call()
        main = threading.current_thread().name
        assert set(threads) == {(True, main), (False, main)}
        threads.clear()
        with parallel.concurrent_halves():
            got = every_call()
        assert got == want
        assert set(threads) == {(True, "dg-descent_0"), (False, main)}

    def test_hessian_blocks_are_refused(self):
        game = MogGanGame(seed=2, n=100, dtype=np.float64)
        with pytest.raises(NotImplementedError, match="first-order"):
            game.hessian_blocks(JointPoint(*game.init_params()))

    def test_concurrent_oracle_calls_match_sequential(self):
        # one game shared by more threads than cores, switching often,
        # with two generators against many discriminators: a generator
        # pass cached by one thread (whose activations a backward pass
        # consumes) must never serve another thread, and no returned
        # array may share a thread's reused pass buffers
        game = MogGanGame(seed=7, n=200, dtype=np.float64)
        points = [_moved_params(game, s) for s in range(6)]
        calls = [(name, i % 2, j)
                 for name in (*ORACLE_CALLS, "eval_samples", "disc_outputs")
                 for i in range(2) for j in range(len(points))]

        def call(name, i, j):
            u, v = points[i][0], points[j][1]
            if name == "eval_samples":
                return (game.eval_samples(u),)
            if name == "disc_outputs":
                return (game.disc_outputs(v, game.eval_samples(u)),)
            out = getattr(game, name)(u, v)
            return out if isinstance(out, tuple) else (out,)

        want = [np.hstack(call(*c)) for c in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(call, *c) for c in calls * 3]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        # compared only once every call is done: an array that aliased a
        # thread's buffers would have been overwritten by later calls
        for g, w in zip(got, want * 3):
            assert np.array_equal(np.hstack(g), w)

    def test_threads_with_their_own_halves_match_sequential(self):
        # four threads each open a scope, so eight share the game: each
        # real half runs on its caller's worker with that worker's buffers
        game = MogGanGame(seed=7, n=200, dtype=np.float64)
        points = [_moved_params(game, s) for s in range(4)]
        want = [np.hstack(game.value_and_grads(*p)) for p in points]

        def call(p):
            with parallel.concurrent_halves():
                return np.hstack(game.value_and_grads(*p))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(call, points * 3, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want * 3):
            assert np.array_equal(g, w)

    def test_loss_finite_under_extreme_discriminator(self):
        # saturate the discriminator head; clamping keeps logs finite
        game = MogGanGame(seed=2, n=200, dtype=np.float64)
        u, v = game.init_params()
        v = v.copy()
        v[-1] = 200.0  # final bias drives D towards 1 everywhere
        val = game.value(u, v)
        assert np.isfinite(val)

    def test_non_finite_objective_raises(self):
        game = MogGanGame(seed=2, n=200, dtype=np.float64)
        u, v = game.init_params()
        v = v.copy()
        v[-1] = np.nan   # D's output bias: every logit is NaN
        with pytest.raises(NonFiniteValueError, match="GAN objective"):
            game.value(u, v)

    def test_layer_shapes(self):
        assert G_LAYOUT.sizes == (16, 64, 64, 1)
        assert D_LAYOUT.sizes == (1, 64, 64, 1)
        assert G_LAYOUT.dim == 16 * 64 + 64 + 64 * 64 + 64 + 64 + 1
        assert D_LAYOUT.dim == 1 * 64 + 64 + 64 * 64 + 64 + 64 + 1

    def test_mlp_backward_input_gradient(self):
        rng = np.random.default_rng(9)
        params = G_LAYOUT.init(rng, np.float64)
        x = rng.standard_normal((7, 16))
        out, acts = mlp_forward(G_LAYOUT, params, x)
        dout = rng.standard_normal(7)
        _, dx = mlp_backward(G_LAYOUT, params, acts, dout, np.float64)
        h = 1e-6
        for i, j in ((0, 3), (4, 11), (6, 0)):
            xp = x.copy(); xp[i, j] += h
            xm = x.copy(); xm[i, j] -= h
            fd = ((mlp_forward(G_LAYOUT, params, xp)[0] * dout).sum()
                  - (mlp_forward(G_LAYOUT, params, xm)[0] * dout).sum()) / (2 * h)
            assert dx[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


ORACLE_CALLS = ("value", "grad_u", "grad_v", "value_and_grad_u",
                "value_and_grad_v", "value_and_grads", "grads")


def _every_output(game, u, v):
    """Each oracle entry point at (u, v), then the diagnostics: eval
    samples (a G pass on 1000 rows) and D on the data (n rows) and on
    those samples (1000 rows, after the n-row calls)."""
    out = [(name, getattr(game, name)(u, v)) for name in ORACLE_CALLS]
    samples = game.eval_samples(u)
    out += [("eval_samples", samples),
            ("disc_outputs", game.disc_outputs(v, game.data)),
            ("disc_outputs", game.disc_outputs(v, samples))]
    return [(name, part) for name, res in out
            for part in (res if isinstance(res, tuple) else (res,))]


class TestPassBuffers:
    """Each thread reuses its pass buffers across calls; the outputs
    must be those of fresh arrays, and no caller may see them move."""

    @pytest.mark.parametrize("seed", range(20))
    def test_bit_identical_to_unbuffered_passes(self, seed):
        dtype = np.float32 if seed % 2 == 0 else np.float64
        # n = 600 rows: the 1000-row calls grow the buffers, and the
        # n-row calls at the next point use part of them
        game = MogGanGame(seed=seed, n=600, dtype=dtype)
        ref = MogGanGame(seed=seed, n=600, dtype=dtype)
        ref._buffers = lambda name, rows, dtype: None  # fresh arrays
        for u, v in (game.init_params(), _moved_params(game, seed)):
            got, want = _every_output(game, u, v), _every_output(ref, u, v)
            assert [name for name, _ in got] == [name for name, _ in want]
            for (name, g), (_, w) in zip(got, want):
                assert np.asarray(g).dtype == np.asarray(w).dtype, name
                assert np.array_equal(g, w), name

    def test_other_dtype_parameters_use_fresh_arrays(self):
        # float64 parameters on a float32 game: a fresh game's results,
        # and this thread's pass buffers stay as the float32 call left them
        game = MogGanGame(seed=4, n=300, dtype=np.float32)
        game.value_and_grads(*game.init_params())
        bufs = {name: getattr(game._ws, name) for name in ("g", "d")}
        kept = {name: [b.copy() for b in bs] for name, bs in bufs.items()}
        u, v = (x.astype(np.float64) for x in _moved_params(game, 4))
        got = _every_output(game, u, v)
        want = _every_output(MogGanGame(seed=4, n=300, dtype=np.float32), u, v)
        for (name, g), (_, w) in zip(got, want):
            assert np.asarray(g).dtype == np.asarray(w).dtype, name
            assert np.array_equal(g, w), name
        for name, bs in bufs.items():
            assert getattr(game._ws, name) is bs
            assert all(np.array_equal(b, k) for b, k in zip(bs, kept[name]))

    def test_returned_arrays_survive_later_calls(self):
        game = MogGanGame(seed=3, n=500, dtype=np.float32)
        first = _every_output(game, *game.init_params())
        kept = [np.copy(part) for _, part in first]
        for s in range(3):
            _every_output(game, *_moved_params(game, s))
        for (name, part), copy in zip(first, kept):
            assert np.array_equal(part, copy), name

    def test_warm_calls_allocate_no_pass_sized_arrays(self):
        # protocol size: a fresh n x 64 float32 pass array is 1.28 MB, and
        # each of the pass's two D passes and G's backward run on n rows
        game = MogGanGame(seed=1, n=5000, dtype=np.float32)
        u, v = game.init_params()
        game.value_and_grads(u, v)
        for s, name in enumerate(ORACLE_CALLS):
            u2, v2 = _moved_params(game, s)
            tracemalloc.start()
            try:
                getattr(game, name)(u2, v2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, (name, peak)


class TestPassRows:
    """The rows each entry point's pass runs D on and backpropagates, and
    whether it goes on into G: the cost, which bit-equality cannot see."""

    # entry point: its mlp_forward/mlp_backward calls in order, each on n
    # rows: the real half's D calls, then G's forward and the fake half's
    REAL_D, REAL_D_BACK = ["fD"], ["fD", "bD"]
    FAKE_D, FAKE_D_BACK = ["fG", "fD"], ["fG", "fD", "bD"]
    ROWS = {"value": REAL_D + FAKE_D,
            "grad_u": FAKE_D_BACK + ["bG"],
            "grad_v": REAL_D_BACK + FAKE_D_BACK,
            "value_and_grad_u": REAL_D + FAKE_D_BACK + ["bG"],
            "value_and_grad_v": REAL_D_BACK + FAKE_D_BACK,
            "grads": REAL_D_BACK + FAKE_D_BACK + ["bG"],
            "value_and_grads": REAL_D_BACK + FAKE_D_BACK + ["bG"]}

    @pytest.mark.parametrize("name", ORACLE_CALLS)
    def test_rows_per_entry_point(self, monkeypatch, name):
        calls = []
        forward, backward = mog.mlp_forward, mog.mlp_backward

        def record_forward(layout, params, x, *rest):
            calls.append(("forward", layout, len(x)))
            return forward(layout, params, x, *rest)

        def record_backward(layout, params, acts, dout, *rest):
            calls.append(("backward", layout, len(dout)))
            return backward(layout, params, acts, dout, *rest)

        monkeypatch.setattr(mog, "mlp_forward", record_forward)
        monkeypatch.setattr(mog, "mlp_backward", record_backward)
        n = 200
        game = MogGanGame(seed=4, n=n, dtype=np.float64)
        getattr(game, name)(*_moved_params(game, 4))
        kinds = {"f": "forward", "b": "backward"}
        layouts = {"D": D_LAYOUT, "G": G_LAYOUT}
        assert calls == [(kinds[kind], layouts[net], n)
                         for kind, net in self.ROWS[name]]


class TestCoHessianVector:
    def test_fd_hvp_matches_exact_on_quadratic_micro_game(self):
        """A 2+2-parameter bilinear-quadratic game with a known Hessian:
        the FD product along the gradient must match H @ grad."""

        class MicroGame:
            dim_u = 2
            dim_v = 2

            def __init__(self):
                # M(u, v) = 0.5 u^T A u - 0.5 v^T B v + u^T C v
                self.A = np.array([[2.0, 0.5], [0.5, 1.0]])
                self.B = np.array([[1.5, -0.2], [-0.2, 0.8]])
                self.C = np.array([[0.7, -0.3], [0.1, 0.9]])

            def grad_u(self, u, v):
                return self.A @ u + self.C @ v

            def grad_v(self, u, v):
                return -self.B @ v + self.C.T @ u

            def grads(self, u, v):
                return self.grad_u(u, v), self.grad_v(u, v)

            def joint_grad(self, p):
                return np.concatenate(self.grads(p.u, p.v))

        game = MicroGame()
        rng = np.random.default_rng(2)
        u, v = rng.standard_normal(2), rng.standard_normal(2)
        p = JointPoint(u, v)
        g = game.joint_grad(p)
        hess = np.block([[game.A, game.C], [game.C.T, -game.B]])
        want = hess @ g
        got = _fd_hessian_vector(game, p, g)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_zero_direction_returns_zero(self):
        game = MogGanGame(seed=2, n=100, dtype=np.float64)
        u, v = game.init_params()
        out = _fd_hessian_vector(game, JointPoint(u, v),
                                 np.zeros(game.dim_u + game.dim_v))
        assert np.all(out == 0.0)


class TestTrainingPlumbing:
    def test_short_run_log_structure(self):
        log = train_mog("gda", MogGanGame(1, n=300), iterations=20,
                        log_interval=10)
        assert log.status == "ok"
        assert [int(r[0]) for r in log.rows] == [0, 10, 20]
        assert log.final_samples.shape == (1000,)
        assert log.final_histogram.shape == (121,)
        for row in log.rows:
            assert all(np.isfinite(x) for x in row[1:])

    def test_full_batch_determinism(self):
        runs = [train_mog("dg", MogGanGame(6, n=200), iterations=6,
                          log_interval=3, dg_k=3) for _ in range(2)]
        for r1, r2 in zip(runs[0].rows, runs[1].rows):
            assert r1 == r2
        assert np.array_equal(runs[0].final_samples, runs[1].final_samples)

    def test_progress_sees_each_log_row_and_changes_nothing(self, tmp_path):
        calls = []
        logs = [train_mog("eg", MogGanGame(2, n=200), iterations=7,
                          log_interval=3, progress=progress)
                for progress in (None, lambda *args: calls.append(args))]
        assert [(it, total) for it, total, _ in calls] == [
            (int(row[0]), 7) for row in logs[1].rows] == [
            (0, 7), (3, 7), (6, 7), (7, 7)]
        elapsed = [seconds for _, _, seconds in calls]
        assert 0 < elapsed[0] and elapsed == sorted(elapsed)
        blobs = []
        for i, log in enumerate(logs):
            log.write_csv(tmp_path / f"{i}.csv")
            log.write_samples_csv(tmp_path / f"{i}_samples.csv")
            log.write_histogram_csv(tmp_path / f"{i}_hist.csv")
            blobs.append([(tmp_path / f"{i}{suffix}").read_bytes()
                          for suffix in (".csv", "_samples.csv", "_hist.csv")])
        assert blobs[0] == blobs[1]

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            train_mog("adam", MogGanGame(0, n=50), iterations=1)

    def test_blas_thread_count_restored(self, monkeypatch):
        calls = parallel._openblas_thread_calls()
        if calls is None:
            pytest.skip("no OpenBLAS found in this process")
        get, _ = calls
        before = get()
        with parallel.thread_setup():
            assert get() == 1
        assert get() == before
        _allow_cpus(monkeypatch, 2)
        train_mog("dg", MogGanGame(1, n=100), iterations=1, dg_k=2)
        assert get() == before

    def test_co_output_independent_of_blas_threads(self):
        calls = parallel._openblas_thread_calls()
        if calls is None:
            pytest.skip("no OpenBLAS found in this process")
        get, put = calls
        before = get()
        runs = []
        try:
            for blas_threads in (1, 2):
                put(blas_threads)
                runs.append(train_mog("co", MogGanGame(0, n=1000),
                                      iterations=2))
        finally:
            put(before)
        assert runs[0].rows == runs[1].rows
        assert np.array_equal(runs[0].final_u, runs[1].final_u)
        assert np.array_equal(runs[0].final_v, runs[1].final_v)

    @pytest.mark.parametrize("algorithm", ["gda", "eg", "dg"])
    def test_runs_the_shared_step_map(self, monkeypatch, algorithm):
        _allow_cpus(monkeypatch, 2)
        # looked up on the module, where a tracer can wrap it
        made = []
        monkeypatch.setattr(optimizers, "make_step_map",
                            lambda game, cfg: made.append(cfg) or
                            make_step_map(game, cfg))
        log = train_mog(algorithm, MogGanGame(2, n=200), iterations=3,
                        log_interval=3, lr=1e-2, dg_k=3)
        assert [cfg.algorithm for cfg in made] == [algorithm]
        game = MogGanGame(seed=2, n=200, dtype=np.float32)
        step = make_step_map(game, OptimizerConfig(algorithm, eta=1e-2,
                                                   dg=DGConfig(k=3,
                                                               gamma=1e-2)))
        p = JointPoint(*game.init_params())
        with parallel.thread_setup():
            for _ in range(3):
                p, _ = step(p)
        assert log.status == "ok"
        assert np.array_equal(log.final_u, p.u)
        assert np.array_equal(log.final_v, p.v)

    def test_csv_outputs(self, tmp_path):
        log = train_mog("eg", MogGanGame(3, n=200), iterations=10,
                        log_interval=5)
        log.write_csv(tmp_path / "log.csv")
        log.write_samples_csv(tmp_path / "samples.csv")
        log.write_histogram_csv(tmp_path / "hist.csv")
        header = (tmp_path / "log.csv").read_text().splitlines()[0]
        assert header == ("iter,value,grad_u_norm,grad_v_norm,dg_metric,"
                          "mode_frac_m4,mode_frac_0,mode_frac_4,"
                          "disc_real_median,disc_fake_median")
        assert len((tmp_path / "samples.csv").read_text().splitlines()) == 1001
        assert len((tmp_path / "hist.csv").read_text().splitlines()) == 122

        # the exact text: int iteration and np.int64 count cells, -0.0,
        # and float32 cells at their float64 value
        hand = MogTrainingLog(
            algorithm="dg", seed=0, iterations=5,
            rows=[(0, -1.5, 0.5, 0.25, 0.125, 0.0, 1.0, -0.0, 0.5, 0.75),
                  (5, -1.25, 1e-300, 2.0, np.float32(0.1), 0.25, 0.5, 0.25,
                   0.5, 0.5)],
            final_samples=np.array([0.1, -0.0], dtype=np.float32),
            final_histogram=np.array([2, 0], dtype=np.int64),
            bin_edges=np.array([-0.5, 0.0, 0.1], dtype=np.float32))
        hand.write_csv(tmp_path / "log.csv")
        hand.write_samples_csv(tmp_path / "samples.csv")
        hand.write_histogram_csv(tmp_path / "hist.csv")
        assert (tmp_path / "log.csv").read_text() == (
            header + "\n"
            "0,-1.5,0.5,0.25,0.125,0.0,1.0,-0.0,0.5,0.75\n"
            "5,-1.25,1e-300,2.0,0.10000000149011612,0.25,0.5,0.25,0.5,0.5\n")
        assert (tmp_path / "samples.csv").read_text() == (
            "sample\n0.10000000149011612\n-0.0\n")
        assert (tmp_path / "hist.csv").read_text() == (
            "bin_left,bin_right,count\n"
            "-0.5,0.0,2\n"
            "0.0,0.10000000149011612,0\n")


class _NanGradU(MogGanGame):
    """A MoG game whose grad_u, through grad_u or grads, is NaN on the
    nan_call-th call of the two (counted together), or on every grads
    call made on thread nan_thread."""

    def __init__(self, nan_call=None, nan_thread=None, **kwargs):
        super().__init__(**kwargs)
        self.nan_call, self.nan_thread = nan_call, nan_thread
        self.calls = 0
        self._lock = threading.Lock()

    def _nan_now(self):
        with self._lock:
            self.calls += 1
            return self.calls == self.nan_call

    def grad_u(self, u, v):
        g = super().grad_u(u, v)
        return g * np.nan if self._nan_now() else g

    def grads(self, u, v):
        gu, gv = super().grads(u, v)
        nan = self._nan_now() or (threading.current_thread().name
                                  == self.nan_thread)
        return (gu * np.nan if nan else gu), gv


class _CountedCalls(MogGanGame):
    """A MoG game that counts its gradient entry points' calls by name
    and calling thread."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = collections.Counter()
        self._lock = threading.Lock()

    def _count(self, name):
        with self._lock:
            self.calls[name, threading.current_thread().name] += 1

    def grad_u(self, u, v):
        self._count("grad_u")
        return super().grad_u(u, v)

    def grad_v(self, u, v):
        self._count("grad_v")
        return super().grad_v(u, v)

    def grads(self, u, v):
        self._count("grads")
        return super().grads(u, v)

    def value_and_grads(self, u, v):
        self._count("value_and_grads")
        return super().value_and_grads(u, v)

    def total(self, name):
        return sum(c for (n, _), c in self.calls.items() if n == name)

    def threads(self, name):
        return {t for n, t in self.calls if n == name}


class _ThreadNames(MogGanGame):
    """A MoG game that records the names of the threads calling grad_u
    (only the descent chain does) and grad_v (only the ascent chain)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.names = {"grad_u": set(), "grad_v": set()}

    def grad_u(self, u, v):
        self.names["grad_u"].add(threading.current_thread().name)
        return super().grad_u(u, v)

    def grad_v(self, u, v):
        self.names["grad_v"].add(threading.current_thread().name)
        return super().grad_v(u, v)


class TestHalvesFollowTheAffinityMask:
    # cpu_count() is None where the OS cannot tell: one CPU then
    @pytest.mark.parametrize("cpus,mask", [(1, True), (2, True),
                                           (None, False), (2, False)])
    def test_descent_half_thread(self, monkeypatch, cpus, mask):
        if cpus == 2 and parallel._openblas_thread_calls() is None:
            pytest.skip("no OpenBLAS found: the halves run in sequence")
        _allow_cpus(monkeypatch, cpus, mask)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda t: (started.append(t.name), start(t)))
        game = _ThreadNames(seed=1, n=200, dtype=np.float32)
        log = train_mog("dg", game, iterations=2, log_interval=1, dg_k=2)
        assert log.status == "ok"
        assert log.thread_setup["cpu_mask"] == list(range(cpus or 1))
        assert log.thread_setup["concurrent_halves"] is (cpus == 2)
        main = threading.current_thread().name
        assert game.names["grad_v"] == {main}
        if cpus != 2:
            assert started == []
            assert game.names["grad_u"] == {main}
        else:
            assert started == ["dg-descent_0"]
            assert game.names["grad_u"] == {"dg-descent_0"}

    # with two CPUs every baseline step's passes are pairs, and a log
    # row's DG chains (dg_k=2) run pairs nested inside the halves
    @pytest.mark.parametrize("algorithm", ["gda", "eg", "co"])
    def test_baselines_equal_on_one_and_two_cpus(self, monkeypatch, tmp_path,
                                                 algorithm):
        if parallel._openblas_thread_calls() is None:
            pytest.skip("no OpenBLAS found: the halves run in sequence")
        runs = []
        for cpus in (1, 2):
            _allow_cpus(monkeypatch, cpus)
            log = train_mog(algorithm, MogGanGame(2, n=601), iterations=20,
                            log_interval=5, dg_k=2)
            assert log.status == "ok"
            assert log.thread_setup["concurrent_halves"] is (cpus == 2)
            log.write_csv(tmp_path / "log.csv")
            runs.append([(tmp_path / "log.csv").read_bytes(),
                         log.final_u.tobytes(), log.final_v.tobytes()])
        assert runs[0] == runs[1]


class TestSharedChains:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("concurrent", [False, True])
    def test_logged_metric_is_the_step_estimate_value(self, seed, concurrent):
        game = MogGanGame(seed, n=200, dtype=np.float32)
        p = JointPoint(*_moved_params(game, seed))
        cfg = DGConfig(k=3, gamma=1e-2)
        fresh = dg_estimate(MogGanGame(seed, n=200, dtype=np.float32), p,
                            cfg)
        with (parallel.concurrent_halves() if concurrent
              else contextlib.nullcontext()):
            metric = dg_metric(game, p, cfg)
            est = dg_estimate(game, p, cfg)
        assert metric == est.value == fresh.value
        for field in ("u_worst", "v_worst", "grad_u", "grad_v"):
            assert getattr(est, field).tobytes() == \
                getattr(fresh, field).tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_dropped_game_is_freed(self, monkeypatch, cpus):
        _allow_cpus(monkeypatch, cpus)
        game = MogGanGame(3, n=200, dtype=np.float32)
        log = train_mog("dg", game, iterations=2, log_interval=1, dg_k=2)
        assert log.status == "ok"
        ref = weakref.ref(game)
        del game
        gc.collect()
        assert ref() is None


class TestStepRuleCalls:
    # dg_k=0: a log row's metric takes no gradient, so value_and_grads
    # (once per row) is the only gradient call a log row makes
    @pytest.mark.parametrize("algorithm,per_iter", [("gda", 1), ("eg", 2),
                                                    ("co", 3)])
    def test_one_joint_pass_per_gradient_pair(self, monkeypatch, algorithm,
                                              per_iter):
        _allow_cpus(monkeypatch, 1)
        game = _CountedCalls(seed=1, n=200, dtype=np.float32)
        log = train_mog(algorithm, game, iterations=4, log_interval=2,
                        dg_k=0)
        assert log.status == "ok"
        assert game.total("grads") == 4 * per_iter
        assert game.total("value_and_grads") == len(log.rows) == 3
        assert game.total("grad_u") == game.total("grad_v") == 0

    def test_dg_rows_log_the_step_chains(self, monkeypatch):
        # dg_k=2: each step runs one pair of 2-step chains, and the rows
        # at 0 and 2 log the value their steps return; only the last row
        # (iteration 4) runs dg_metric's own chains: 4 * 2 + 2 calls each
        _allow_cpus(monkeypatch, 1)
        game = _CountedCalls(seed=1, n=200, dtype=np.float32)
        log = train_mog("dg", game, iterations=4, log_interval=2, dg_k=2)
        assert log.status == "ok"
        assert [row[0] for row in log.rows] == [0, 2, 4]
        assert game.total("grad_u") == game.total("grad_v") == 10

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_co_runs_one_finite_difference_side_on_the_worker(
            self, monkeypatch, cpus):
        if cpus == 2 and parallel._openblas_thread_calls() is None:
            pytest.skip("no OpenBLAS found: the sides run in sequence")
        _allow_cpus(monkeypatch, cpus)
        game = _CountedCalls(seed=1, n=200, dtype=np.float32)
        log = train_mog("co", game, iterations=2, log_interval=2, dg_k=0)
        assert log.status == "ok"
        main = threading.current_thread().name
        if cpus == 1:
            assert game.threads("grads") == {main}
        else:
            # per step: the gradient and the minus side here, plus there
            assert game.calls["grads", main] == 2 * 2
            assert game.calls["grads", "dg-descent_0"] == 2


class TestCoDivergence:
    # dg_k=1: the first log row's metric makes grad_u call 1; the first
    # co step makes grads call 2 at p, 3 and 4 in the Hessian-vector
    # product (plus side, then minus)
    @pytest.mark.parametrize("nan_call", [2, 3, 4])
    def test_nonfinite_gradient_stops_the_run(self, monkeypatch, nan_call):
        _allow_cpus(monkeypatch, 1)
        game = _NanGradU(nan_call, seed=1, n=200, dtype=np.float32)
        self.assert_stopped_at_the_start(
            train_mog("co", game, iterations=3, log_interval=1, dg_k=1))
        assert game.calls >= nan_call

    def test_nonfinite_worker_side_stops_the_run(self, monkeypatch):
        # with two CPUs the plus side runs on the worker; its failure
        # stops the run as the plus side's failure does on one CPU
        if parallel._openblas_thread_calls() is None:
            pytest.skip("no OpenBLAS found: the sides run in sequence")
        _allow_cpus(monkeypatch, 1)
        one_cpu = train_mog("co", _NanGradU(3, seed=1, n=200,
                                            dtype=np.float32),
                            iterations=3, log_interval=1, dg_k=1)
        _allow_cpus(monkeypatch, 2)
        game = _NanGradU(nan_thread="dg-descent_0", seed=1, n=200,
                         dtype=np.float32)
        log = train_mog("co", game, iterations=3, log_interval=1, dg_k=1)
        assert log.thread_setup["concurrent_halves"]
        assert log.rows == one_cpu.rows
        self.assert_stopped_at_the_start(log)

    @staticmethod
    def assert_stopped_at_the_start(log):
        assert log.status == "diverged"
        assert [int(row[0]) for row in log.rows] == [0]
        assert all(np.isfinite(x) for x in log.rows[0][1:])
        u0, v0 = MogGanGame(1, n=200, dtype=np.float32).init_params()
        assert np.array_equal(log.final_u, u0)
        assert np.array_equal(log.final_v, v0)
        assert np.all(np.isfinite(log.final_samples))

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match="iterations"):
            train_mog("gda", MogGanGame(0, n=50), iterations=-3)


class _NanAwayFrom(MogGanGame):
    """A MoG game whose grad_u is NaN at every u but start (at every u
    when start is None), so a DG descent chain fails wherever it starts
    away from start, in the step and in dg_metric alike."""

    def __init__(self, start=None, **kwargs):
        super().__init__(**kwargs)
        self.start = start

    def grad_u(self, u, v):
        g = super().grad_u(u, v)
        ok = self.start is not None and np.array_equal(u, self.start)
        return g if ok else g * np.nan


class TestDgDivergence:
    # dg_k=1: a chain evaluates grad_u at its start only
    def test_failing_step_drops_its_row(self, monkeypatch):
        _allow_cpus(monkeypatch, 1)
        u0, _ = MogGanGame(1, n=200, dtype=np.float32).init_params()
        game = _NanAwayFrom(u0, seed=1, n=200, dtype=np.float32)
        log = train_mog("dg", game, iterations=3, log_interval=1, dg_k=1)
        assert log.status == "diverged"
        # row 0 logs the first step's value; the step from the next
        # iterate fails, as dg_metric there would, so row 1 is dropped
        assert [int(row[0]) for row in log.rows] == [0]
        assert not np.array_equal(log.final_u, u0)

    @pytest.mark.parametrize("algorithm", ["gda", "dg"])
    def test_failing_first_row_raises(self, monkeypatch, algorithm):
        _allow_cpus(monkeypatch, 1)
        game = _NanAwayFrom(seed=1, n=200, dtype=np.float32)
        with pytest.raises(NonFiniteValueError, match="inner descent"):
            train_mog(algorithm, game, iterations=2, dg_k=1)


class TestAcceptanceScript:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
        "run_mog_acceptance.py"

    def run(self, out_dir, iters, algs="gda", seeds="1", flags=()):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), "--iters", str(iters),
             "--seeds", seeds, "--algs", algs, "--out", str(out_dir),
             *flags], capture_output=True, text=True, timeout=120)

    @staticmethod
    def write_artifact(out_dir, alg, iters, seed=1, dg_k=10, params=True):
        row = {"algorithm": alg, "seed": seed, "iterations": iters,
               "dg_k": dg_k, "wall_seconds": 1.5}
        (out_dir / f"{alg}_seed{seed}.json").write_text(json.dumps(row))
        if params:
            np.savez(out_dir / f"{alg}_seed{seed}_final.npz",
                     final_u=np.zeros(3), final_v=np.ones(2))
        return row

    def write_protocol(self, out_dir, alg, iters, seeds=(1, 2, 3, 4, 5)):
        return [self.write_artifact(out_dir, alg, iters, seed)
                for seed in seeds]

    def test_artifact_from_another_iteration_count_is_refused(self, tmp_path):
        self.write_artifact(tmp_path, "gda", 100)
        proc = self.run(tmp_path, 200)
        assert proc.returncode == 2
        assert "gda_seed1.json" in proc.stderr
        assert "100 iterations" in proc.stderr
        assert not (tmp_path / "verdict.json").exists()

    def test_artifact_from_another_k_is_refused(self, tmp_path):
        self.write_artifact(tmp_path, "gda", 200, dg_k=5)
        proc = self.run(tmp_path, 200)
        assert proc.returncode == 2
        assert "gda_seed1.json was made with k=5" in proc.stderr
        assert "requested k=10" in proc.stderr
        assert not (tmp_path / "verdict.json").exists()

    def test_k_reaches_the_run_and_its_json(self, tmp_path):
        proc = self.run(tmp_path, 0, flags=("--k", "3"))
        assert proc.returncode == 0, proc.stderr
        row = json.loads((tmp_path / "gda_seed1.json").read_text())
        assert row["dg_k"] == 3
        log = train_mog("gda", MogGanGame(1), iterations=0, dg_k=3)
        assert row["initial_dg_metric"] == float(log.column("dg_metric")[0])
        # one progress line per log row, on stderr
        assert proc.stderr.splitlines() == [
            "gda seed 1: iteration 0/0, 0.00 it/s, ETA ?"]
        proc = self.run(tmp_path, 0)
        assert proc.returncode == 2
        assert "made with k=3, not the requested k=10" in proc.stderr

    def test_matching_artifact_is_reused_and_only_requested_runs_listed(
            self, tmp_path):
        rows = self.write_protocol(tmp_path, "gda", 200)
        self.write_protocol(tmp_path, "dg", 200)
        proc = self.run(tmp_path, 200)
        assert proc.returncode == 0, proc.stderr
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["runs"] == rows
        assert verdict["iterations"] == 200
        assert verdict["seeds"] == [1, 2, 3, 4, 5]

    def test_baseline_artifact_is_reused_and_listed(self, tmp_path):
        rows = self.write_protocol(tmp_path, "eg", 200)
        proc = self.run(tmp_path, 200, algs="eg")
        assert proc.returncode == 0, proc.stderr
        assert "eg seed 1: reusing existing artifact" in proc.stdout
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["runs"] == rows

    def test_partial_run_writes_no_verdict(self, tmp_path):
        # one pinned process of a split run finishes with other seeds
        # still missing: it names them and writes no verdict
        self.write_protocol(tmp_path, "gda", 200, seeds=(1, 2, 3, 4))
        self.write_protocol(tmp_path, "dg", 200, seeds=(1, 2))
        proc = self.run(tmp_path, 200, algs="gda,dg", seeds="1,2")
        assert proc.returncode == 0, proc.stderr
        assert ("no verdict: missing gda_seed5.json, dg_seed3.json, "
                "dg_seed4.json, dg_seed5.json") in proc.stdout
        assert not (tmp_path / "verdict.json").exists()

    def test_last_missing_seed_completes_the_verdict(self, tmp_path):
        rows = self.write_protocol(tmp_path, "gda", 0, seeds=(1, 2, 3, 4))
        proc = self.run(tmp_path, 0, seeds="5")
        assert proc.returncode == 0, proc.stderr
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["runs"][:4] == rows
        assert verdict["runs"][4] == json.loads(
            (tmp_path / "gda_seed5.json").read_text())
        assert [r["seed"] for r in verdict["runs"]] == [1, 2, 3, 4, 5]
        assert verdict["total_wall_seconds"] == pytest.approx(
            6.0 + verdict["runs"][4]["wall_seconds"])
        assert not (tmp_path / "verdict.json.tmp").exists()

    def test_run_saves_its_final_parameters(self, tmp_path):
        proc = self.run(tmp_path, 2)
        assert proc.returncode == 0, proc.stderr
        log = train_mog("gda", MogGanGame(1), iterations=2)
        with np.load(tmp_path / "gda_seed1_final.npz") as saved:
            assert sorted(saved.files) == ["final_u", "final_v"]
            for name in ("final_u", "final_v"):
                assert saved[name].dtype == np.float32
                assert (saved[name].tobytes()
                        == getattr(log, name).tobytes())

    def test_artifact_without_final_parameters_is_run_again(self, tmp_path):
        stale = self.write_artifact(tmp_path, "gda", 0, params=False)
        proc = self.run(tmp_path, 0)
        assert proc.returncode == 0, proc.stderr
        assert "reusing" not in proc.stdout
        row = json.loads((tmp_path / "gda_seed1.json").read_text())
        assert row != stale and "manifest" in row
        assert (tmp_path / "gda_seed1_final.npz").exists()

    def test_verdict_waits_for_missing_final_parameters(self, tmp_path):
        self.write_protocol(tmp_path, "gda", 0, seeds=(1, 2, 3, 4))
        self.write_artifact(tmp_path, "gda", 0, seed=5, params=False)
        proc = self.run(tmp_path, 0)
        assert proc.returncode == 0, proc.stderr
        assert "no verdict: missing gda_seed5_final.npz" in proc.stdout
        assert not (tmp_path / "verdict.json").exists()

    def test_manifest_records_what_made_the_run(self, tmp_path):
        proc = self.run(tmp_path, 0)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads(
            (tmp_path / "gda_seed1.json").read_text())["manifest"]
        assert manifest["argv"] == [str(self.SCRIPT), "--iters", "0",
                                    "--seeds", "1", "--algs", "gda",
                                    "--out", str(tmp_path)]
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"],
                                  cwd=self.SCRIPT.parent, capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            head = None
        assert manifest["git_revision"] == head
        assert manifest["numpy_version"] == np.__version__
        # the script's process has this one's libraries and CPU mask
        pinned = parallel._openblas_thread_calls() is not None
        mask = sorted(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else list(range(os.cpu_count() or 1))
        assert manifest["openblas_pinned"] is pinned
        assert manifest["cpu_mask"] == mask
        assert manifest["concurrent_halves"] is (pinned and len(mask) >= 2)

    def test_unknown_algorithm_is_refused(self, tmp_path):
        # a typo must not overwrite the verdict with an empty run list
        proc = self.run(tmp_path, 200, algs="gda,DG")
        assert proc.returncode == 2
        assert "DG" in proc.stderr
        assert not (tmp_path / "verdict.json").exists()
