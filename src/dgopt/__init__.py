"""dgopt: duality-gap minimization for two-player zero-sum games."""

from .dg import DGConfig, DGEstimate, dg_descent_step, dg_estimate, dg_metric, worst_case_responses
from .games import Box, GameOracle, GameSpec, JointPoint, make_bilinear, make_game, make_motivation, make_ncnc, make_poly_f3, make_quadratic_f1, make_quadratic_f2, parse_game_spec, second_order_fd
from .optimizers import OptimizerConfig, Trajectory, co_step, eg_step, fr_step, gda_step, make_step_map, ogda_step, run_trajectory, sga_step, unrolled_step
from .rates import adagrad_step

__all__ = [
    "Box", "DGConfig", "DGEstimate", "GameOracle", "GameSpec",
    "JointPoint", "OptimizerConfig", "Trajectory", "adagrad_step", "co_step",
    "dg_descent_step", "dg_estimate", "dg_metric", "eg_step", "fr_step",
    "gda_step", "make_bilinear", "make_game", "make_motivation", "make_ncnc",
    "make_poly_f3", "make_quadratic_f1", "make_quadratic_f2", "make_step_map",
    "ogda_step", "parse_game_spec", "run_trajectory", "second_order_fd",
    "sga_step", "unrolled_step", "worst_case_responses",
]

__version__ = "0.1.0"
