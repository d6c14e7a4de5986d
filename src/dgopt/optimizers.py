"""Baseline minimax update rules and a generic trajectory runner.

All step maps are simultaneous (Jacobi) one-step updates: gradients are
evaluated at the incoming point and both players move at once; a rule
takes the pair there as grads, which its map (make_step_map) evaluates
once.  Every map but ogda's is a pure function, and every map fixes
points where both gradients vanish, since the second-order corrections
all carry a gradient factor.

run_trajectory returns a trajectory as one table: its iterates as one
array, built after its loop, beside one column per diagnostic, and the
CSV is written from those columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import dg as dgmod, outputs
from .games import (GameOracle, JointPoint, NonFiniteValueError,
                    SingularHessianError, checked, float_point_ok, matvec)

ALGORITHMS = ("gda", "ogda", "eg", "sga", "co", "unrolled", "fr", "dg")


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str = "gda"
    eta: float = 0.05
    eta_y: Optional[float] = None          # follow-the-ridge only
    sga_lambda: float = 1.0
    co_gamma: float = 0.1
    unroll_k: int = 10
    dg: Optional[dgmod.DGConfig] = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; "
                             f"known: {ALGORITHMS}")
        checked("step size eta", self.eta, positive=True)
        if self.eta_y is not None:
            checked("follower step size eta_y", self.eta_y, positive=True)
        checked("symplectic weight sga_lambda", self.sga_lambda, at_least=0)
        checked("consensus weight co_gamma", self.co_gamma, at_least=0)
        checked("unrolled step count unroll_k", self.unroll_k, at_least=1)
        if self.algorithm == "dg" and self.dg is None:
            raise ValueError("algorithm 'dg' needs a DGConfig (dg=...)")


def _checked_grads(game: GameOracle, p: JointPoint):
    gu, gv = game.grads(p.u, p.v)
    if isinstance(p.u, float):
        finite = math.isfinite(gu) and math.isfinite(gv)
    else:
        finite = np.isfinite(gu).all() and np.isfinite(gv).all()
    if not finite:
        raise NonFiniteValueError("non-finite gradient", point=p)
    return gu, gv


def _solve(H, b):
    """np.linalg.solve(H, b); at a float point the 1x1 solve is a
    division, which gives solve's float, and a zero H raises as LAPACK's
    zero pivot does."""
    if isinstance(b, float):
        if H == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        return b / H
    return np.linalg.solve(H, b)


def gda_step(game: GameOracle, p: JointPoint, grads, eta: float) -> JointPoint:
    """u descends, v ascends, both using the gradients at p."""
    gu, gv = grads
    return JointPoint(p.u - eta * gu, p.v + eta * gv)


def ogda_step(game: GameOracle, p: JointPoint, grads, prev_grads,
              eta: float) -> JointPoint:
    """Optimistic step: 2x the current signed gradient minus the previous.

    prev_grads is the (grad_u, grad_v) pair from the previous iterate;
    when absent (step 0) this falls back to a plain gda step.
    """
    gu, gv = grads
    if prev_grads is None:
        return JointPoint(p.u - eta * gu, p.v + eta * gv)
    pu, pv = prev_grads
    return JointPoint(p.u - 2 * eta * gu + eta * pu,
                      p.v + 2 * eta * gv - eta * pv)


def eg_step(game: GameOracle, p: JointPoint, grads, eta: float) -> JointPoint:
    """Extrapolate to a midpoint, then step from p with midpoint gradients."""
    gu, gv = grads
    mid = JointPoint(p.u - eta * gu, p.v + eta * gv)
    gu_m, gv_m = _checked_grads(game, mid)
    return JointPoint(p.u - eta * gu_m, p.v + eta * gv_m)


def sga_step(game: GameOracle, p: JointPoint, grads, eta: float,
             lam: float = 1.0) -> JointPoint:
    """Symplectic adjustment of the signed field g = (grad_u, -grad_v):

        p' = p - eta * [[I, -lam H_uv], [lam H_vu, I]] g
    """
    gu, gv = grads
    _, H_uv, H_vu, _ = game.hessian_blocks(p)
    gx, gy = gu, -gv
    adj_x = gx - lam * matvec(H_uv, gy)
    adj_y = lam * matvec(H_vu, gx) + gy
    return JointPoint(p.u - eta * adj_x, p.v - eta * adj_y)


def co_step(game: GameOracle, p: JointPoint, grads, eta: float,
            gamma: float = 0.1) -> JointPoint:
    """Gradient play plus a shared penalty descending 0.5*||grad M||^2.

    The penalty gradient is H @ grad M with H the full symmetric
    Hessian; equivalently J^T g for the signed field.  The conventional
    factor 1/2 is absorbed into gamma.
    """
    gu, gv = grads
    H_uu, H_uv, H_vu, H_vv = game.hessian_blocks(p)
    pen_u = matvec(H_uu, gu) + matvec(H_uv, gv)
    pen_v = matvec(H_vu, gu) + matvec(H_vv, gv)
    return JointPoint(p.u - eta * gu - gamma * eta * pen_u,
                      p.v + eta * gv - gamma * eta * pen_v)


def unrolled_step(game: GameOracle, p: JointPoint, grads, eta: float,
                  k: int) -> JointPoint:
    """Leader update through k unrolled follower ascent steps.

    The follower chain y_{i+1} = y_i + eta * grad_v M(u, y_i) is
    differentiated w.r.t. u by forward accumulation (S = dy/du), giving
    the leader the total derivative of u -> M(u, y_k(u)).  The follower
    itself takes a plain ascent step at the original point.  A float
    point steps the chain and S on Python floats.
    """
    checked("unrolled step count k", k, at_least=1)
    u, v = p
    _, gv = grads
    y, _, S_t = dgmod._differentiated_chain(game, p, eta, k)
    gu_y, gv_y = game.grads(u, y)
    total = gu_y + matvec(S_t, gv_y)
    return JointPoint(u - eta * total, v + eta * gv)


def _where(p: JointPoint) -> str:
    """p for an error message, each player as a list: u=[x], v=[y]."""
    return (f"u={np.atleast_1d(p.u).tolist()}, "
            f"v={np.atleast_1d(p.v).tolist()}")


def fr_step(game: GameOracle, p: JointPoint, grads, eta_x: float,
            eta_y: Optional[float] = None) -> JointPoint:
    """Follow-the-ridge: the follower adds a correction compensating the
    leader's move, H_vv^{-1} H_vu grad_u M scaled by the leader's rate."""
    if eta_y is None:
        eta_y = eta_x
    gu, gv = grads
    _, _, H_vu, H_vv = game.hessian_blocks(p)
    try:
        correction = _solve(H_vv, matvec(H_vu, gu))
    except np.linalg.LinAlgError:
        raise SingularHessianError(f"H_vv is singular at {_where(p)}",
                                   point=p) from None
    if not (math.isfinite(correction) if isinstance(correction, float)
            else np.isfinite(correction).all()):
        raise SingularHessianError(
            f"H_vv solve produced non-finite values at {_where(p)}", point=p)
    return JointPoint(p.u - eta_x * gu, p.v + eta_y * gv + eta_x * correction)


def make_step_map(game: GameOracle, cfg: OptimizerConfig):
    """Bind a config to a map p -> (p', DG value or None, pair or None).

    Only dg steps through a DG estimate at p, and it hands that value
    back.  Every other rule updates from the pair at p, which the map
    evaluates once and hands back; dg's chains evaluate no such pair.
    ogda is the one stateful map: it keeps that pair as its previous
    gradients in a closure cell, and a fresh map starts with the gda
    fallback.  That hidden state is a known defect: dynamics.linearize
    calls one map for its residual and every difference, so its ogda
    Jacobian belongs to no single map.
    """
    if cfg.algorithm == "dg":
        return lambda p: (*dgmod.dg_descent_step(game, p, cfg.dg, cfg.eta), None)
    prev = [None]   # ogda's previous pair
    rule = {
        "gda": lambda p, g: gda_step(game, p, g, cfg.eta),
        "ogda": lambda p, g: ogda_step(game, p, g, prev[0], cfg.eta),
        "eg": lambda p, g: eg_step(game, p, g, cfg.eta),
        "sga": lambda p, g: sga_step(game, p, g, cfg.eta, cfg.sga_lambda),
        "co": lambda p, g: co_step(game, p, g, cfg.eta, cfg.co_gamma),
        "unrolled": lambda p, g: unrolled_step(game, p, g, cfg.eta, cfg.unroll_k),
        "fr": lambda p, g: fr_step(game, p, g, cfg.eta, cfg.eta_y),
    }[cfg.algorithm]

    def step(p):
        grads = _checked_grads(game, p)
        out = rule(p, grads)
        prev[0] = grads
        return out, None, grads

    return step


@dataclass
class Trajectory:
    """A run as one table, row t for iterate t.

    iterates holds each iterate as [u | v] (dim_u columns of u), and
    value, grad_u_norm, grad_v_norm and dg are its diagnostic columns,
    dg None where no DG value was logged.  classification is one of
    converged / diverged / non_convergent, judged against the supplied
    target points and divergence norm.
    """

    game: str
    algorithm: str
    eta: float
    dim_u: int
    iterates: np.ndarray = field(repr=False)
    value: list
    grad_u_norm: list
    grad_v_norm: list
    dg: list
    classification: str = "non_convergent"
    final_distance: Optional[float] = None
    error: Optional[str] = None

    @property
    def steps(self) -> int:
        return len(self.iterates) - 1

    @property
    def final_point(self) -> JointPoint:
        last = self.iterates[-1]
        return JointPoint(last[:self.dim_u], last[self.dim_u:])

    def write_csv(self, path):
        dim_v = self.iterates.shape[1] - self.dim_u
        outputs.write_csv(
            path, ["t", *(f"u{i}" for i in range(self.dim_u)),
                   *(f"v{i}" for i in range(dim_v)),
                   "value", "grad_u_norm", "grad_v_norm", "dg"],
            [range(len(self.iterates)), *self.iterates.T, self.value,
             self.grad_u_norm, self.grad_v_norm, self.dg])

    def summary(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "game": self.game,
            "eta": self.eta,
            "steps": self.steps,
            "classification": self.classification,
            "final_point": self.iterates[-1].tolist(),
            "final_distance": self.final_distance,
        }

    def write_summary(self, path):
        outputs.write_json(path, self.summary())


def _norm(g) -> float:
    """||g||, inf where the squares overflow."""
    if isinstance(g, float):
        return math.sqrt(g * g)
    with np.errstate(over="ignore"):
        return float(np.sqrt(g.dot(g)))


def run_trajectory(game: GameOracle, cfg: OptimizerConfig, init: JointPoint,
                   steps: int, targets: Sequence[JointPoint] = (),
                   tol: float = 1e-3, diverge_norm: float = 1e3,
                   log_dg: bool = False) -> Trajectory:
    """Iterate a step map, with diagnostics at every iterate.

    Divergence (norm above diverge_norm) truncates the run at the
    offending iterate; step errors keep the partial trajectory and set
    the error field.  A row's gradient norms are the pair's that the step
    from that iterate hands back, or else game.grads' (dg, the last or a
    diverged iterate, or a step that raised).  With log_dg, every row
    carries the DG value under cfg.dg: the one the step from that
    iterate returns, or else dg_metric's (no estimate in the rule, the
    last or a diverged iterate, or a step that raised); a non-finite
    metric leaves that row's dg None and the run goes on.  Convergence
    means the final iterate lies within tol of one of the targets.

    A start that games.float_point_ok allows is stepped as two Python
    floats (JointPoint), with the same float64 operations as on (1,)
    arrays.  The iterates become one array after the loop.
    """
    checked("step count steps", steps, at_least=1)
    checked("convergence tolerance tol", tol, at_least=0)
    checked("divergence norm diverge_norm", diverge_norm, positive=True)
    if log_dg and cfg.dg is None:
        raise ValueError("log_dg needs a DGConfig in cfg.dg")
    step_map = make_step_map(game, cfg)
    us, vs, value, gu_norm, gv_norm, dg = [], [], [], [], [], []
    error = None

    # each iterate's row is filled after the step from it, which may hand
    # back its DG value and gradients; no step from the last or a diverged one
    p = JointPoint.of(init.u, init.v)
    if float_point_ok(game, *p):
        p = JointPoint(float(p.u[0]), float(p.v[0]))
    for t in range(steps + 1):
        nxt = dg_val = grads = None
        diverged = t > 0 and p.norm() > diverge_norm
        if t < steps and not diverged:
            try:
                nxt, dg_val, grads = step_map(p)
            except (NonFiniteValueError, SingularHessianError) as exc:
                error = str(exc)
        u, v = p
        gu, gv = game.grads(u, v) if grads is None else grads
        gu_norm.append(_norm(gu))
        gv_norm.append(_norm(gv))
        if not log_dg:
            dg_val = None
        elif dg_val is None:
            try:
                dg_val = dgmod.dg_metric(game, p, cfg.dg)
            except NonFiniteValueError:
                pass
        dg.append(dg_val)
        value.append(float(game.value(u, v)))
        us.append(u)
        vs.append(v)
        if nxt is None:
            break
        p = nxt

    n = len(us)
    u_cols = np.reshape(us, (n, -1))
    traj = Trajectory(
        game=game.name, algorithm=cfg.algorithm, eta=cfg.eta,
        dim_u=u_cols.shape[1],
        iterates=np.hstack([u_cols, np.reshape(vs, (n, -1))]), value=value,
        grad_u_norm=gu_norm, grad_v_norm=gv_norm, dg=dg, error=error)
    if diverged:
        traj.classification = "diverged"
    else:
        dists = [traj.final_point.distance_to(tgt) for tgt in targets]
        traj.final_distance = min(dists) if dists else None
        if dists and min(dists) <= tol:
            traj.classification = "converged"
    return traj
