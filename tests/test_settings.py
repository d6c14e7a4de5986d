"""The one settings check: every numeric setting is finite and in range.

The boundary table calls each checked setting at its bound, just inside
and just outside it, and at NaN and +-inf; a rejected value must raise a
ValueError that starts with the setting's name.
"""

import math
import re
import sys

import numpy as np
import pytest

from dgopt.cli import _parse_point
from dgopt.dg import AdaGradState, DGConfig, dg_metric, worst_case_responses
from dgopt.dynamics import (classify_critical_point, dg_exact_grid,
                            dg_update_matrix_f1, dg_update_matrix_f2,
                            landscape, linearize)
from dgopt.games import (Box, JointPoint, central_jacobian, checked,
                         make_bilinear, make_game, make_ncnc,
                         make_quadratic_f1)
from dgopt.mog import MogGanGame, mode_coverage, train_mog
from dgopt.optimizers import (OptimizerConfig, make_step_map, run_trajectory,
                              unrolled_step)
from dgopt.rates import (check_approx_realizability,
                         make_approx_realizable_family,
                         make_realizable_quadratic, run_adagrad_rate)

TINY = math.nextafter(0.0, 1.0)
NAN, INF = float("nan"), float("inf")
NORMAL_ROOT = math.sqrt(sys.float_info.min)   # x * x is subnormal below
B3 = make_bilinear(3.0)
F1 = make_quadratic_f1()
P = JointPoint.of(0.5, 0.5)
ORIGIN = JointPoint.of(0.0, 0.0)
BOX = Box.square(-1.0, 1.0)
PROBLEM = make_realizable_quadratic(2, 2, 0)
FAMILY = make_approx_realizable_family(0.1, 2, 0)


def _mog(**kwargs):
    # one log row of a 50-row game: the set-up runs, no training does
    return train_mog("gda", seed=0, n=50, **{"iterations": 0, **kwargs})


# (name, rule, bound, call): rule "positive" (> 0), "at_least" (>= bound),
# "nonzero", "finite", "square" (> 0 with x * x > 0) or "normal square"
# (>= bound, below which x * x is subnormal); call(x) builds or runs with
# the setting at x
SETTINGS = [
    ("box lower bound", "finite", None,
     lambda x: Box(np.array([x]), np.array([1.7e308]))),
    ("box upper bound", "at_least", 0.0,
     lambda x: Box(np.array([0.0]), np.array([x]))),
    ("finite-difference step", "positive", 0.0,
     lambda x: central_jacobian(lambda y: 2.0 * y, np.zeros(2),
                                np.array([1e-6, x]))),
    ("bilinear coupling c", "nonzero", 0.0, make_bilinear),
    ("ncnc coupling c", "nonzero", 0.0, make_ncnc),
    ("inner step count k", "at_least", 0, lambda x: DGConfig(k=x)),
    ("inner step size gamma", "positive", 0.0, lambda x: DGConfig(gamma=x)),
    ("inner step size gamma", "positive", 0.0,
     lambda x: DGConfig().resolved_gamma(x)),
    ("AdaGrad diameter", "positive", 0.0,
     lambda x: AdaGradState.fresh(x, BOX)),
    ("squared-gradient sum", "at_least", 0.0,
     lambda x: AdaGradState(sum_sq=x, diameter=1.0, box=BOX)),
    ("inner step count k", "at_least", 0,
     lambda x: dg_metric(B3, P, x, 0.1)),
    ("step size eta", "positive", 0.0, lambda x: OptimizerConfig(eta=x)),
    ("follower step size eta_y", "positive", 0.0,
     lambda x: OptimizerConfig(eta_y=x)),
    ("symplectic weight sga_lambda", "at_least", 0.0,
     lambda x: OptimizerConfig(sga_lambda=x)),
    ("consensus weight co_gamma", "at_least", 0.0,
     lambda x: OptimizerConfig(co_gamma=x)),
    ("unrolled step count unroll_k", "at_least", 1,
     lambda x: OptimizerConfig(unroll_k=x)),
    ("unrolled step count k", "at_least", 1,
     lambda x: unrolled_step(B3, P, 0.1, x)),
    ("step count steps", "at_least", 1,
     lambda x: run_trajectory(F1, OptimizerConfig(), P, steps=x)),
    ("convergence tolerance tol", "at_least", 0.0,
     lambda x: run_trajectory(F1, OptimizerConfig(), P, steps=1, tol=x)),
    ("divergence norm diverge_norm", "positive", 0.0,
     lambda x: run_trajectory(F1, OptimizerConfig(), P, steps=1,
                              diverge_norm=x)),
    ("finite-difference step", "positive", 0.0,
     lambda x: linearize(make_step_map(F1, OptimizerConfig()), ORIGIN,
                         h=x)),
    ("fixed-point tolerance fixed_tol", "at_least", 0.0,
     lambda x: linearize(make_step_map(F1, OptimizerConfig()), ORIGIN,
                         fixed_tol=x)),
    ("gradient tolerance grad_tol", "positive", 0.0,
     lambda x: classify_critical_point(F1, ORIGIN, grad_tol=x)),
    ("PSD tolerance psd_tol", "at_least", 0.0,
     lambda x: classify_critical_point(F1, ORIGIN, psd_tol=x)),
    ("grid resolution", "at_least", 1,
     lambda x: landscape(F1, BOX, x, "minimax_value")),
    ("exact-DG grid resolution", "at_least", 3,
     lambda x: dg_exact_grid(F1, BOX, x)),
    ("step size eta", "positive", 0.0, dg_update_matrix_f1),
    ("step size eta", "positive", 0.0, dg_update_matrix_f2),
    ("dimension n", "at_least", 1,
     lambda x: make_realizable_quadratic(x, 2, 0)),
    ("family size", "at_least", 1,
     lambda x: make_realizable_quadratic(2, x, 0)),
    ("smallest curvature", "positive", 0.0,
     lambda x: make_realizable_quadratic(2, 2, 0, curvature_range=(x, 1.0))),
    ("largest curvature", "at_least", 1e-5,
     lambda x: make_realizable_quadratic(2, 2, 0,
                                         curvature_range=(1e-5, x))),
    ("repeats", "at_least", 1,
     lambda x: run_adagrad_rate(PROBLEM, [1, 2], 0, repeats=x)),
    ("logged step count", "at_least", 1,
     lambda x: run_adagrad_rate(PROBLEM, [x, 3], 0, repeats=1)),
    ("family size", "at_least", 1,
     lambda x: make_approx_realizable_family(0.1, x, 0)),
    ("epsilon", "at_least", 0.0,
     lambda x: make_approx_realizable_family(x, 3, 0)),
    ("epsilon", "at_least", 0.0,
     lambda x: check_approx_realizability(FAMILY, x, resolution=3)),
    ("slack", "at_least", 0.0,
     lambda x: check_approx_realizability(FAMILY, 0.1, resolution=3,
                                          slack=x)),
    ("grid resolution", "at_least", 1,
     lambda x: check_approx_realizability(FAMILY, 0.1, resolution=x)),
    ("batch size n", "at_least", 1, lambda x: MogGanGame(0, n=x)),
    ("coverage window", "positive", 0.0,
     lambda x: mode_coverage(np.zeros(3), window=x)),
    ("log_interval", "at_least", 1, lambda x: _mog(log_interval=x)),
    ("iterations", "at_least", 0, lambda x: _mog(iterations=x)),
    ("learning rate lr", "positive", 0.0, lambda x: _mog(lr=x)),
    ("point coordinate", "finite", None, lambda x: _parse_point(f"{x},0")),
    ("finite-difference step h", "square", None,
     lambda x: classify_critical_point(F1, ORIGIN, h=x, dg_cfg=DGConfig(k=1),
                                       eta=0.05)),
    ("inner step size gamma", "positive", 0.0,
     lambda x: dg_metric(B3, P, 3, x)),
    ("inner step size gamma", "positive", 0.0,
     lambda x: worst_case_responses(B3, P, 3, x)),
    ("finite-difference step h", "normal square", NORMAL_ROOT,
     lambda x: classify_critical_point(F1, ORIGIN, h=x, dg_cfg=DGConfig(k=1),
                                       eta=0.05)),
]


def _cases(rule, bound):
    """(value, accepted) pairs: the bound, just inside, just outside,
    NaN and +-inf."""
    if rule == "finite":
        inside = [(1e308, True), (-1e308, True)]
    elif rule == "square":
        # h * h underflows to 0 below about 1.57e-162
        inside = [(0.0, False), (TINY, False), (1e-163, False),
                  (-1e-4, False), (1e-4, True)]
    elif rule == "normal square":
        # 1.6e-162 squares to a subnormal, where the second differences
        # labelled the f1 DG origin a saddle
        inside = [(1.6e-162, False), (math.nextafter(bound, 0.0), False),
                  (bound, True)]
    elif rule in ("positive", "nonzero"):
        inside = [(0.0, False), (TINY, True),
                  (-TINY, rule == "nonzero")]
    elif isinstance(bound, int):
        inside = [(bound, True), (bound + 1, True), (bound - 1, False)]
    else:
        inside = [(bound, True), (math.nextafter(bound, INF), True),
                  (math.nextafter(bound, -INF), False)]
    return inside + [(NAN, False), (INF, False), (-INF, False)]


TABLE = [pytest.param(name, call, value, ok,
                      id=f"{name}-{i}-{value!r}")
         for i, (name, rule, bound, call) in enumerate(SETTINGS)
         for value, ok in _cases(rule, bound)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name,call,value,accepted", TABLE)
def test_setting_boundary(name, call, value, accepted):
    if accepted:
        call(value)
    else:
        with pytest.raises(ValueError,
                           match=f"^{re.escape(name)} must be .*finite, "
                                 f"got {re.escape(str(value))}$"):
            call(value)


@pytest.mark.parametrize("kwargs,message", [
    ({"positive": True}, "x must be positive and finite, got nan"),
    ({"at_least": 1}, "x must be >= 1 and finite, got nan"),
    ({"nonzero": True}, "x must be non-zero and finite, got nan"),
    ({}, "x must be finite, got nan"),
])
def test_message_states_the_range_and_the_value(kwargs, message):
    with pytest.raises(ValueError) as err:
        checked("x", NAN, **kwargs)
    assert str(err.value) == message


def test_accepted_value_is_returned_unchanged():
    value = np.float32(0.25)
    assert checked("x", value, positive=True) is value


@pytest.mark.parametrize("sep", ["0.5", "nan", "-2", "inf"])
def test_ncnc_separable_switch_is_0_or_1(sep):
    with pytest.raises(ValueError, match="^ncnc parameter sep must be 0 or 1"):
        make_game(f"ncnc:c=3,sep={sep}")
