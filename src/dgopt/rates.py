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
from .dg import AdaGradState, adagrad_step
from .dynamics import grid_duality_gap
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

    def sample_value(self, x: Array, z: int) -> float:
        e = x - self.x_star
        return 0.5 * float(e @ self.matrices[z] @ e)

    def sample_grad(self, x: Array, z: int) -> Array:
        return self.matrices[z].dot(x - self.x_star)

    def expected_value(self, x: Array) -> float:
        e = x - self.x_star
        return 0.5 * float(e @ self.mean_matrix @ e)


def make_realizable_quadratic(n: int, family_size: int, seed: int,
                              curvature_range=(1e-5, 1.0)) -> RealizableProblem:
    """Random PSD family A_z = B_z^T B_z with a shared interior minimizer.

    B_z is seeded Gaussian with log-spaced per-column scales, so the mean
    curvature spectrum spans curvature_range.  The spread matters: with
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
    lo, hi = curvature_range
    checked("largest curvature", hi,
            checked("smallest curvature", lo, positive=True))
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
                          zip(self.t_values, self.error_mean, self.error_std,
                              self.bound_values))

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


def _repeat_errors(problem: RealizableProblem, t_list: list, seed: int,
                   start: str, run: tuple) -> Array:
    """One (step rule, repeat) run's error row: the exact family-average
    suboptimality of the running-mean iterate at each logged T."""
    step_rule, r = run
    rng = seeded_rng(seed, f"rate-{step_rule}-repeat{r}")
    if start == "x_star":
        x = problem.x_star.copy()
    else:
        x = rng.uniform(problem.box.lo, problem.box.hi)
    z_draws = rng.integers(0, problem.family_size, size=t_list[-1])
    diameter = problem.diameter
    errors = np.zeros(len(t_list))
    running_sum = np.zeros(problem.dimension)
    state = AdaGradState.fresh(diameter, problem.box)
    adagrad = step_rule == "adagrad"
    sample_grad, clamp = problem.sample_grad, problem.box.clamp
    log_idx, next_log = 0, t_list[0]
    for t, z in enumerate(z_draws.tolist(), start=1):
        running_sum += x
        g = sample_grad(x, z)
        if adagrad:
            x = adagrad_step(state, x, g)
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
               repeats: int, step_rules: tuple, start: str) -> tuple:
    """One RateResult per step rule, all rules' repeats split at once."""
    checked("repeats", repeats, at_least=1)
    t_list = sorted({int(checked("logged step count", t, at_least=1))
                     for t in t_list})
    if len(t_list) < 2:
        raise ValueError("a log-log slope needs at least two logged step "
                         "counts")
    runs = [(rule, r) for rule in step_rules for r in range(repeats)]
    rows = split_runs(functools.partial(_repeat_errors, problem, t_list,
                                         seed, start), runs)
    diameter = problem.diameter
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
                     seed: int, repeats: int = 10,
                     start: str = "random") -> RateResult:
    """Simplified AdaGrad on single-sample gradients; the error is the
    exact family-average suboptimality of the running-mean iterate."""
    return _run_rates(problem, t_list, seed, repeats, ("adagrad",), start)[0]


def run_sgd_baseline(problem: RealizableProblem, t_list: Sequence[int],
                     seed: int, repeats: int = 10,
                     start: str = "random") -> RateResult:
    """Projected SGD with eta_t = D / sqrt(t); the slower comparison."""
    return _run_rates(problem, t_list, seed, repeats, ("sgd",), start)[0]


def run_rates(problem: RealizableProblem, t_list: Sequence[int], seed: int,
              repeats: int = 10, start: str = "random") -> tuple:
    """(run_adagrad_rate(...), run_sgd_baseline(...)) with the same
    arguments, the two rules' 2 * repeats runs split at once: at
    repeats=1 each rule has a CPU."""
    return _run_rates(problem, t_list, seed, repeats, ("adagrad", "sgd"),
                      start)


# ---------------------------------------------------------------------------
# approximate realizability on 1-D/1-D quadratic families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticSaddle:
    """Convex-concave 0.5 a (u-p)^2 - 0.5 b (v-q)^2 + c (u-p)(v-q)."""

    a: float
    b: float
    c: float
    p: float
    q: float

    def value(self, u: float, v: float) -> float:
        du, dv = u - self.p, v - self.q
        return 0.5 * self.a * du * du - 0.5 * self.b * dv * dv + self.c * du * dv

    def box_dg(self, u: float, v: float, lo: float, hi: float) -> float:
        """Exact box DG via the clamped 1-D optima."""
        du = u - self.p
        v_opt = min(max(self.q + self.c * du / self.b, lo), hi)
        best_max = self.value(u, v_opt)
        dv = v - self.q
        u_opt = min(max(self.p - self.c * dv / self.a, lo), hi)
        best_min = self.value(u_opt, v)
        return best_max - best_min


def make_approx_realizable_family(epsilon: float, size: int, seed: int,
                                  lo: float = -1.0, hi: float = 1.0) -> list:
    """Family whose members are eps-approximate equilibria of (0, 0).

    Equilibrium offsets are scaled so the worst per-member DG at the
    shared point equals epsilon; the construction is then re-verified
    with the exact box DG and refuses to return a violating family.
    """
    checked("family size", size, at_least=1)
    checked("epsilon", epsilon, at_least=0)
    rng = seeded_rng(seed, "approx-realizable")
    members = []
    for _ in range(size):
        a = rng.uniform(1.0, 2.0)
        b = rng.uniform(1.0, 2.0)
        c = rng.uniform(0.3, 0.8)
        p = rng.uniform(-1.0, 1.0)
        q = rng.uniform(-1.0, 1.0)
        members.append(QuadraticSaddle(a=a, b=b, c=c, p=p, q=q))

    if epsilon == 0.0:
        members = [QuadraticSaddle(m.a, m.b, m.c, 0.0, 0.0) for m in members]
    else:
        # DG at the origin = 0.5 (a + c^2/b) p^2 + 0.5 (b + c^2/a) q^2 for
        # interior responses; scale all offsets so the max equals epsilon
        raw = [0.5 * (m.a + m.c ** 2 / m.b) * m.p ** 2
               + 0.5 * (m.b + m.c ** 2 / m.a) * m.q ** 2 for m in members]
        worst = max(raw)
        scale = math.sqrt(epsilon / worst) if worst > 0 else 0.0
        members = [QuadraticSaddle(m.a, m.b, m.c, scale * m.p, scale * m.q)
                   for m in members]

    verify_family_realizability(members, epsilon, lo=lo, hi=hi)
    return members


def verify_family_realizability(members, epsilon: float, point=(0.0, 0.0),
                                lo: float = -1.0, hi: float = 1.0):
    """Raise unless every member's box DG at the shared point is <= eps."""
    for i, m in enumerate(members):
        got = m.box_dg(point[0], point[1], lo, hi)
        if got > epsilon + 1e-9:
            raise RuntimeError(
                f"approximate-realizability construction failed: member {i} "
                f"has DG {got:.6g} > epsilon {epsilon:.6g} at the shared point")


@dataclass
class ApproxRealizabilityReport:
    epsilon: float
    minimizer: tuple
    expected_dg_at_min: float
    full_dg_at_min: float
    slack: float
    passed: bool


def check_approx_realizability(family: Sequence[QuadraticSaddle],
                               epsilon: float, resolution: int = 201,
                               lo: float = -1.0, hi: float = 1.0,
                               slack: float = 0.01) -> ApproxRealizabilityReport:
    """Grid version of the approximate-realizability argument.

    Finds the grid minimizer of the expected per-member box DG, then
    checks the full problem's box DG there is at most epsilon plus a
    curvature-scale grid slack.  Also verifies, node by node, that the
    full DG never exceeds the expected per-member DG (max of an average
    is at most the average of maxes).
    """
    checked("epsilon", epsilon, at_least=0)
    checked("slack", slack, at_least=0)
    checked("grid resolution", resolution, at_least=1)
    axis = np.linspace(lo, hi, resolution)

    # per-member value tables on the shared grid (value() broadcasts)
    grid_u, grid_v = np.meshgrid(axis, axis, indexing="ij")
    tables = np.stack([m.value(grid_u, grid_v) for m in family])

    expected_dg = grid_duality_gap(tables).mean(axis=0)
    full_dg = grid_duality_gap(tables.mean(axis=0))

    if np.any(full_dg > expected_dg + 1e-9):
        raise AssertionError("grid check of max-of-average <= average-of-max "
                             "failed; the value tables are inconsistent")

    i, j = np.unravel_index(int(np.argmin(expected_dg)), expected_dg.shape)
    minimizer = (float(axis[i]), float(axis[j]))
    exp_at_min = float(expected_dg[i, j])
    full_at_min = float(full_dg[i, j])
    passed = full_at_min <= epsilon + slack
    return ApproxRealizabilityReport(epsilon=epsilon, minimizer=minimizer,
                                     expected_dg_at_min=exp_at_min,
                                     full_dg_at_min=full_at_min,
                                     slack=slack, passed=passed)
