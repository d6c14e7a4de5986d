"""Realizable stochastic problems, AdaGrad rate, approximate realizability."""

import math
import os
import signal
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from dgopt import rates
from dgopt.games import Box
from dgopt.rates import (RateResult, adagrad_step, make_realizable_quadratic,
                         run_adagrad_rate, run_rates, run_sgd_baseline,
                         seeded_rng)
from game_helpers import (QuadraticSaddle, box_contains,
                          check_approx_realizability,
                          make_approx_realizable_family, sample_value,
                          verify_family_realizability)


class TestConstruction:
    def test_shared_minimizer_zeroes_every_gradient(self):
        prob = make_realizable_quadratic(8, 12, seed=3)
        for z in range(prob.family_size):
            g = prob.sample_grad(prob.x_star, z)
            assert np.all(g == 0.0)
            assert sample_value(prob, prob.x_star, z) == 0.0

    def test_values_nonnegative_psd(self):
        prob = make_realizable_quadratic(6, 10, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-1, 1, 6)
            z = rng.integers(0, prob.family_size)
            assert sample_value(prob, x, int(z)) >= 0.0

    def test_matrices_symmetric_psd(self):
        prob = make_realizable_quadratic(5, 8, seed=11)
        for a in prob.matrices:
            assert np.allclose(a, a.T)
            assert np.linalg.eigvalsh(a)[0] >= -1e-12

    def test_smoothness_lemma_quadratic(self):
        # ||grad Q||^2 <= 2 L (Q - Q*) with L the top eigenvalue
        rng = np.random.default_rng(21)
        for trial in range(20):
            prob = make_realizable_quadratic(7, 5, seed=trial)
            big_l = prob.smoothness
            for _ in range(50):
                x = rng.uniform(-1, 1, 7)
                z = int(rng.integers(0, prob.family_size))
                g = prob.sample_grad(x, z)
                q = sample_value(prob, x, z)
                assert g @ g <= 2 * big_l * q + 1e-9


class TestRateHarness:
    T_LIST = [100, 316, 1000, 3162, 10000]

    def test_adagrad_steps_non_increasing_and_projected(self):
        prob = make_realizable_quadratic(6, 10, seed=2)
        rng = seeded_rng(2, "test-run")
        x = rng.uniform(prob.box.lo, prob.box.hi)
        sum_sq, last_eta = 0.0, np.inf
        for t in range(500):
            g = prob.sample_grad(x, int(rng.integers(0, prob.family_size)))
            sum_sq, x = adagrad_step(sum_sq, x, g, prob.diameter, prob.box)
            assert box_contains(prob.box, x)
            if sum_sq > 0:
                eta = prob.diameter / np.sqrt(sum_sq)
                assert eta <= last_eta + 1e-15
                last_eta = eta

    def test_start_at_optimum_gives_zero_error(self):
        # every per-sample gradient vanishes at x*, so neither the AdaGrad
        # step nor the SGD step (eta_t = D / sqrt(t), as _repeat_errors
        # takes it) moves the iterate; the 1e-30 headroom covers
        # running-mean rounding
        prob = make_realizable_quadratic(4, 6, seed=9)
        for adagrad in (True, False):
            rng = seeded_rng(9, f"x-star-{adagrad}")
            x, sum_sq, running_sum = prob.x_star.copy(), 0.0, np.zeros(4)
            for t in range(1, 101):
                running_sum += x
                g = prob.sample_grad(x, int(rng.integers(prob.family_size)))
                if adagrad:
                    sum_sq, x = adagrad_step(sum_sq, x, g, prob.diameter,
                                             prob.box)
                else:
                    x = prob.box.clamp(x - prob.diameter / math.sqrt(t) * g)
                if t in (10, 100):
                    assert prob.expected_value(running_sum / t) <= 1e-30

    def test_adagrad_beats_sgd_and_obeys_bound(self):
        prob = make_realizable_quadratic(10, 20, seed=7)
        ada = run_adagrad_rate(prob, self.T_LIST, seed=7, repeats=4)
        sgd = run_sgd_baseline(prob, self.T_LIST, seed=7, repeats=4)
        assert ada.passes_bound
        assert ada.error_mean[-1] < sgd.error_mean[-1]
        # errors must decay
        assert ada.error_mean[-1] < ada.error_mean[0]
        assert sgd.error_mean[-1] < sgd.error_mean[0]

    def test_determinism(self):
        prob = make_realizable_quadratic(5, 8, seed=4)
        r1 = run_adagrad_rate(prob, [100, 1000], seed=4, repeats=3)
        r2 = run_adagrad_rate(prob, [100, 1000], seed=4, repeats=3)
        assert r1.error_mean == r2.error_mean

    def test_csv_json_outputs(self, tmp_path):
        prob = make_realizable_quadratic(4, 5, seed=1)
        res = run_adagrad_rate(prob, [100, 1000], seed=1, repeats=2)
        res.write_csv(tmp_path / "rate.csv")
        res.write_json(tmp_path / "rate.json")
        lines = (tmp_path / "rate.csv").read_text().splitlines()
        assert lines[0] == "T,error_mean,error_std,bound_4LD2_over_T"
        assert len(lines) == 3
        import json
        data = json.loads((tmp_path / "rate.json").read_text())
        assert set(data) == {"slope", "L", "D", "passes_bound"}

        # the exact text: int T cells, -0.0, and a JSON true
        hand = RateResult(t_values=[100, 316], error_mean=[0.5, -0.0],
                          error_std=[0.0, 1e-300], bound_values=[0.04, 0.0125],
                          slope=-1.0, smoothness=1.0, diameter=2.5,
                          passes_bound=True)
        hand.write_csv(tmp_path / "rate.csv")
        hand.write_json(tmp_path / "rate.json")
        assert (tmp_path / "rate.csv").read_text() == (
            "T,error_mean,error_std,bound_4LD2_over_T\n"
            "100,0.5,0.0,0.04\n"
            "316,-0.0,1e-300,0.0125\n")
        assert (tmp_path / "rate.json").read_text() == (
            '{\n'
            '  "D": 2.5,\n'
            '  "L": 1.0,\n'
            '  "passes_bound": true,\n'
            '  "slope": -1.0\n'
            '}\n')


class StepError(Exception):
    """An error whose constructor takes the step it failed at as well."""

    def __init__(self, message, step):
        super().__init__(message, step)
        self.step = step


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made in the test, which starts with two CPUs."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    set_cpus(monkeypatch, 2)
    return calls


class TestSplitRuns:
    """The runs of a rate call split over a forked child and the parent."""

    T_LIST = [10, 100, 1000]

    def result_bytes(self, results, tmp_path):
        blobs = []
        for i, res in enumerate(results):
            res.write_csv(tmp_path / f"{i}.csv")
            res.write_json(tmp_path / f"{i}.json")
            blobs += [(tmp_path / f"{i}{ext}").read_bytes()
                      for ext in (".csv", ".json")]
        return blobs

    @pytest.mark.parametrize("repeats", [1, 2, 3])
    def test_split_equals_one_cpu(self, forks, monkeypatch, tmp_path,
                                  repeats):
        prob = make_realizable_quadratic(4, 5, seed=3)
        blobs = []
        for cpus in (2, 1):
            set_cpus(monkeypatch, cpus)
            results = (*run_rates(prob, self.T_LIST, 3, repeats),
                       run_adagrad_rate(prob, self.T_LIST, 3, repeats),
                       run_sgd_baseline(prob, self.T_LIST, 3, repeats))
            blobs.append(self.result_bytes(results, tmp_path))
            assert no_child_left()
        # run_rates forks, and each single rule with two or more runs
        assert len(forks) == 1 + 2 * (repeats >= 2)
        assert blobs[0] == blobs[1]
        assert blobs[0][:4] == blobs[0][4:]

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_error_in_either_half_reraises_and_reaps(self, forks, monkeypatch,
                                                      failing):
        prob = make_realizable_quadratic(4, 5, seed=3)
        parent, grad = os.getpid(), rates.RealizableProblem.sample_grad

        def sample_grad(problem, x, z):
            if (os.getpid() == parent) == (failing == "parent"):
                raise FloatingPointError(f"injected in the {failing}")
            return grad(problem, x, z)

        monkeypatch.setattr(rates.RealizableProblem, "sample_grad",
                            sample_grad)
        with pytest.raises(FloatingPointError) as info:
            run_rates(prob, self.T_LIST, 3, repeats=1)
        assert str(info.value) == f"injected in the {failing}"
        assert len(forks) == 1
        assert no_child_left()

    def test_back_half_error_reraises_as_itself(self, forks, monkeypatch):
        # rebuilt from its type and message alone, this error would fail
        # to construct, and the parent would raise an unrelated TypeError
        prob = make_realizable_quadratic(4, 5, seed=3)
        parent, grad = os.getpid(), rates.RealizableProblem.sample_grad

        def sample_grad(problem, x, z):
            if os.getpid() != parent:
                raise StepError("injected in the child", 7)
            return grad(problem, x, z)

        monkeypatch.setattr(rates.RealizableProblem, "sample_grad",
                            sample_grad)
        with pytest.raises(StepError) as info:
            run_rates(prob, self.T_LIST, 3, repeats=1)
        assert info.value.args == ("injected in the child", 7)
        assert info.value.step == 7
        assert len(forks) == 1
        assert no_child_left()

    def test_back_half_without_a_result_raises_at_once(self, forks,
                                                       monkeypatch):
        # a worker that dies fails the call: it must not wait for ever
        # on a result that cannot come, so SIGALRM ends a hung wait
        prob = make_realizable_quadratic(4, 5, seed=3)
        parent, grad = os.getpid(), rates.RealizableProblem.sample_grad

        def sample_grad(problem, x, z):
            if os.getpid() != parent:
                os._exit(3)
            return grad(problem, x, z)

        def hung(signum, frame):
            raise TimeoutError("still waiting for the dead back half")

        monkeypatch.setattr(rates.RealizableProblem, "sample_grad",
                            sample_grad)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(BrokenProcessPool):
                run_rates(prob, self.T_LIST, 3, repeats=1)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 1
        assert no_child_left()

    def test_no_fork_on_one_cpu_or_beside_a_live_thread(self, forks,
                                                        monkeypatch):
        prob = make_realizable_quadratic(4, 5, seed=3)
        set_cpus(monkeypatch, 1)
        run_rates(prob, self.T_LIST, 3, repeats=2)
        assert not forks
        set_cpus(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            run_rates(prob, self.T_LIST, 3, repeats=2)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert not forks
        run_rates(prob, self.T_LIST, 3, repeats=2)
        assert len(forks) == 1
        assert no_child_left()

    def test_bad_settings_raise_before_any_fork(self, forks):
        prob = make_realizable_quadratic(4, 5, seed=3)
        with pytest.raises(ValueError, match="repeats"):
            run_rates(prob, self.T_LIST, 3, repeats=0)
        with pytest.raises(ValueError, match="two logged step counts"):
            run_rates(prob, [50], 3, repeats=2)
        assert not forks

    @pytest.mark.filterwarnings("error")
    def test_diameter_past_the_float_range_raises_before_any_fork(self,
                                                                  forks):
        # each width of the box is finite, its diagonal is not
        prob = replace(make_realizable_quadratic(2, 5, seed=3),
                       box=Box.square(-0.8e308, 0.8e308))
        with pytest.raises(ValueError, match="^AdaGrad diameter must be "
                           "positive and finite, got inf$"):
            run_adagrad_rate(prob, self.T_LIST, 3, repeats=2)
        assert not forks


class TestApproxRealizability:
    def test_epsilon_zero_family_shares_equilibrium(self):
        family = make_approx_realizable_family(0.0, size=6, seed=3)
        for m in family:
            assert m.box_dg(0.0, 0.0, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_epsilon_family_respects_bound(self):
        family = make_approx_realizable_family(0.1, size=6, seed=3)
        worst = max(m.box_dg(0.0, 0.0, -1.0, 1.0) for m in family)
        assert worst <= 0.1 + 1e-9
        # the scaling saturates the bound for the worst member
        assert worst >= 0.1 - 1e-6

    def test_lemma_check_epsilon_zero(self):
        family = make_approx_realizable_family(0.0, size=6, seed=3)
        report = check_approx_realizability(family, 0.0, resolution=201)
        assert report.passed
        assert report.full_dg_at_min <= report.slack

    def test_lemma_check_epsilon_01(self):
        family = make_approx_realizable_family(0.1, size=6, seed=3)
        report = check_approx_realizability(family, 0.1, resolution=201)
        assert report.passed
        assert report.full_dg_at_min <= 0.1 + report.slack
        # the averaged game's gap never exceeds the expected per-member
        # gap, so this chain of inequalities is meaningful
        assert report.full_dg_at_min <= report.expected_dg_at_min + 1e-9

    def test_violated_family_never_passes_silently(self):
        bad = [QuadraticSaddle(a=1.0, b=1.0, c=0.5, p=0.8, q=0.8)]
        assert bad[0].box_dg(0.0, 0.0, -1.0, 1.0) > 0.01
        with pytest.raises(RuntimeError, match="construction failed"):
            verify_family_realizability(bad, epsilon=0.01)

    def test_box_dg_matches_grid_search(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = QuadraticSaddle(a=rng.uniform(1, 2), b=rng.uniform(1, 2),
                                c=rng.uniform(0.3, 0.8),
                                p=rng.uniform(-0.3, 0.3),
                                q=rng.uniform(-0.3, 0.3))
            u, v = rng.uniform(-0.5, 0.5, 2)
            axis = np.linspace(-1, 1, 801)
            brute = (max(m.value(u, vv) for vv in axis)
                     - min(m.value(uu, v) for uu in axis))
            exact = m.box_dg(u, v, -1.0, 1.0)
            assert exact >= brute - 1e-12
            assert exact <= brute + 1e-4
