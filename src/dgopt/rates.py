"""Realizable stochastic convex problems and empirical convergence rates.

A realizable problem is a family of PSD quadratics sharing one global
minimizer: every per-sample gradient vanishes there, so the stochastic
noise is multiplicative and adaptive steps can reach an O(1/T) rate on
the average iterate instead of the generic O(1/sqrt(T)).
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import outputs
from .games import Array, Box, checked
from .parallel import split_runs


def seeded_rng(seed: int, label: str) -> np.random.Generator:
    """Independent named stream: hash(seed, label) keys the generator, so
    adding a new consumer never perturbs existing streams."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF] + words))


@dataclass
class RealizableProblem:
    """Finite family of PSD quadratics Q_z(x) = 0.5 (x-x*)^T A_z (x-x*)."""

    dimension: int
    x_star: Array
    matrices: list                    # the A_z family
    box: Box
    mean_matrix: Array = field(init=False)
    smoothness: float = field(init=False)

    def __post_init__(self):
        self.mean_matrix = np.mean(np.stack(self.matrices), axis=0)
        self.smoothness = max(float(np.linalg.eigvalsh(a)[-1])
                              for a in self.matrices)

    @property
    def family_size(self) -> int:
        return len(self.matrices)

    @property
    def diameter(self) -> float:
        return self.box.diameter

    def sample_grad(self, x: Array, z: int) -> Array:
        return self.matrices[z].dot(x - self.x_star)

    def expected_value(self, x: Array) -> float:
        e = x - self.x_star
        return 0.5 * float(e @ self.mean_matrix @ e)


CURVATURE_RANGE = (1e-5, 1.0)


def make_realizable_quadratic(n: int, family_size: int,
                              seed: int) -> RealizableProblem:
    """Random PSD family A_z = B_z^T B_z with a shared interior minimizer.

    B_z is seeded Gaussian with log-spaced per-column scales, so the mean
    curvature spectrum spans CURVATURE_RANGE.  The spread matters: with
    equal scales every mode decays geometrically within a few hundred
    steps and the average-iterate error of any reasonable method falls
    like 1/T^2, erasing the adaptive-vs-1/sqrt(t) rate separation this
    harness exists to measure.  Log-spaced curvatures keep mode
    timescales straddling the whole measurement window, which restores
    the 1/T versus 1/sqrt(T) contrast.  The box is [-1, 1]^n and x* is
    drawn from its inner half.
    """
    checked("dimension n", n, at_least=1)
    checked("family size", family_size, at_least=1)
    lo, hi = CURVATURE_RANGE
    rng = seeded_rng(seed, "realizable-family")
    scales = np.sqrt(np.logspace(math.log10(lo), math.log10(hi), n))
    mats = []
    for _ in range(family_size):
        b = (rng.standard_normal((n, n)) / math.sqrt(n)) * scales[None, :]
        mats.append(b.T @ b)
    x_star = rng.uniform(-0.5, 0.5, size=n)
    box = Box(np.full(n, -1.0), np.full(n, 1.0))
    return RealizableProblem(dimension=n, x_star=x_star, matrices=mats,
                             box=box)


@dataclass
class RateResult:
    """Average-iterate error curve plus the fitted log-log slope."""

    t_values: list
    error_mean: list
    error_std: list
    bound_values: list               # 4 L D^2 / T at each logged T
    slope: float
    smoothness: float
    diameter: float
    passes_bound: bool               # mean error <= 4 L D^2 / T everywhere

    def write_csv(self, path):
        outputs.write_csv(path, ["T", "error_mean", "error_std",
                                 "bound_4LD2_over_T"],
                          [self.t_values, self.error_mean, self.error_std,
                           self.bound_values])

    def write_json(self, path):
        outputs.write_json(path, {"slope": self.slope, "L": self.smoothness,
                                  "D": self.diameter,
                                  "passes_bound": self.passes_bound})


def _fit_loglog_slope(ts, errs) -> float:
    # guard against exact zeros from a lucky start at x*
    logt = np.log(np.asarray(ts, dtype=float))
    loge = np.log(np.maximum(np.asarray(errs, dtype=float), 1e-300))
    design = np.vstack([logt, np.ones_like(logt)]).T
    coef, *_ = np.linalg.lstsq(design, loge, rcond=None)
    return float(coef[0])


def adagrad_step(sum_sq: float, x: Array, g: Array, diameter: float,
                 box: Box) -> tuple:
    """One simplified-AdaGrad update on the joint vector: (S, x') for the
    running sum S = sum_sq + ||g||^2 and x' = clamp(x - (D / sqrt(S)) * g)
    onto the box, the exact orthogonal projection for a box.  The
    effective step D / sqrt(S) is non-increasing.  An all-zero gradient
    before any accumulation returns (sum_sq, x) unchanged (the step size
    would be undefined).  D is checked once per run, by _run_rates."""
    gsq = float(g.dot(g))
    if sum_sq == 0.0 and gsq == 0.0:
        return sum_sq, x
    sum_sq += gsq
    return sum_sq, box.clamp(x - (diameter / math.sqrt(sum_sq)) * g)


def _repeat_errors(problem: RealizableProblem, t_list: list, seed: int,
                   run: tuple) -> Array:
    """One (step rule, repeat) run's error row: the exact family-average
    suboptimality of the running-mean iterate at each logged T, from a
    start drawn uniformly in the box."""
    step_rule, r = run
    rng = seeded_rng(seed, f"rate-{step_rule}-repeat{r}")
    x = rng.uniform(problem.box.lo, problem.box.hi)
    z_draws = rng.integers(0, problem.family_size, size=t_list[-1])
    diameter = problem.diameter
    errors = np.zeros(len(t_list))
    running_sum = np.zeros(problem.dimension)
    sum_sq = 0.0
    adagrad = step_rule == "adagrad"
    box = problem.box
    sample_grad, clamp = problem.sample_grad, box.clamp
    log_idx, next_log = 0, t_list[0]
    for t, z in enumerate(z_draws.tolist(), start=1):
        running_sum += x
        g = sample_grad(x, z)
        if adagrad:
            sum_sq, x = adagrad_step(sum_sq, x, g, diameter, box)
        else:
            eta_t = diameter / math.sqrt(t)
            x = clamp(x - eta_t * g)
        if t == next_log:
            avg = running_sum / t
            errors[log_idx] = problem.expected_value(avg)
            log_idx += 1
            if log_idx == len(t_list):
                break
            next_log = t_list[log_idx]
    return errors


def _run_rates(problem: RealizableProblem, t_list: Sequence[int], seed: int,
               repeats: int, step_rules: tuple) -> tuple:
    """One RateResult per step rule, all rules' repeats split at once."""
    checked("repeats", repeats, at_least=1)
    t_list = sorted({int(checked("logged step count", t, at_least=1))
                     for t in t_list})
    if len(t_list) < 2:
        raise ValueError("a log-log slope needs at least two logged step "
                         "counts")
    diameter = checked("AdaGrad diameter", problem.diameter, positive=True)
    runs = [(rule, r) for rule in step_rules for r in range(repeats)]
    rows = split_runs(functools.partial(_repeat_errors, problem, t_list,
                                         seed), runs)
    l_const = problem.smoothness
    bounds = [4.0 * l_const * diameter * diameter / t for t in t_list]
    results = []
    for i in range(len(step_rules)):
        per_repeat = np.stack(rows[i * repeats:(i + 1) * repeats])
        err_mean = per_repeat.mean(axis=0)
        err_std = per_repeat.std(axis=0)
        results.append(RateResult(
            t_values=list(t_list), error_mean=err_mean.tolist(),
            error_std=err_std.tolist(), bound_values=list(bounds),
            slope=_fit_loglog_slope(t_list, err_mean), smoothness=l_const,
            diameter=diameter,
            passes_bound=bool(np.all(err_mean <= np.asarray(bounds)))))
    return tuple(results)


def run_adagrad_rate(problem: RealizableProblem, t_list: Sequence[int],
                     seed: int, repeats: int = 10) -> RateResult:
    """Simplified AdaGrad on single-sample gradients; the error is the
    exact family-average suboptimality of the running-mean iterate."""
    return _run_rates(problem, t_list, seed, repeats, ("adagrad",))[0]


def run_sgd_baseline(problem: RealizableProblem, t_list: Sequence[int],
                     seed: int, repeats: int = 10) -> RateResult:
    """Projected SGD with eta_t = D / sqrt(t); the slower comparison."""
    return _run_rates(problem, t_list, seed, repeats, ("sgd",))[0]


def run_rates(problem: RealizableProblem, t_list: Sequence[int], seed: int,
              repeats: int = 10) -> tuple:
    """(run_adagrad_rate(...), run_sgd_baseline(...)) with the same
    arguments, the two rules' 2 * repeats runs split at once: at
    repeats=1 each rule has a CPU."""
    return _run_rates(problem, t_list, seed, repeats, ("adagrad", "sgd"))
