"""Baseline minimax update rules and a generic trajectory runner.

All step maps are simultaneous (Jacobi) one-step updates: gradients are
evaluated at the incoming point and both players move at once.  Every
map is a pure function, and every map fixes points where both gradients
vanish, since the second-order corrections all carry a gradient factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import dg as dgmod, outputs
from .games import (Array, GameOracle, JointPoint, NonFiniteValueError,
                    SingularHessianError, checked)

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
    if not (np.isfinite(gu).all() and np.isfinite(gv).all()):
        raise NonFiniteValueError("non-finite gradient", point=p)
    return gu, gv


def gda_step(game: GameOracle, p: JointPoint, eta: float) -> JointPoint:
    """u descends, v ascends, both using gradients at the old point."""
    gu, gv = _checked_grads(game, p)
    return JointPoint(p.u - eta * gu, p.v + eta * gv)


def ogda_step(game: GameOracle, p: JointPoint, prev_grads, eta: float) -> JointPoint:
    """Optimistic step: 2x the current signed gradient minus the previous.

    prev_grads is the (grad_u, grad_v) pair from the previous iterate;
    when absent (step 0) this falls back to a plain gda step.
    """
    return _ogda_update(p, _checked_grads(game, p), prev_grads, eta)


def _ogda_update(p: JointPoint, grads, prev_grads, eta: float) -> JointPoint:
    """ogda_step from the gradients at p, already evaluated."""
    gu, gv = grads
    if prev_grads is None:
        return JointPoint(p.u - eta * gu, p.v + eta * gv)
    pu, pv = prev_grads
    return JointPoint(p.u - 2 * eta * gu + eta * pu,
                      p.v + 2 * eta * gv - eta * pv)


def eg_step(game: GameOracle, p: JointPoint, eta: float) -> JointPoint:
    """Extrapolate to a midpoint, then step from p with midpoint gradients."""
    gu, gv = _checked_grads(game, p)
    mid = JointPoint(p.u - eta * gu, p.v + eta * gv)
    gu_m, gv_m = _checked_grads(game, mid)
    return JointPoint(p.u - eta * gu_m, p.v + eta * gv_m)


def sga_step(game: GameOracle, p: JointPoint, eta: float,
             lam: float = 1.0) -> JointPoint:
    """Symplectic adjustment of the signed field g = (grad_u, -grad_v):

        p' = p - eta * [[I, -lam H_uv], [lam H_vu, I]] g
    """
    gu, gv = _checked_grads(game, p)
    _, H_uv, H_vu, _ = game.hessian_blocks(p)
    gx, gy = gu, -gv
    adj_x = gx - lam * (H_uv @ gy)
    adj_y = lam * (H_vu @ gx) + gy
    return JointPoint(p.u - eta * adj_x, p.v - eta * adj_y)


def co_step(game: GameOracle, p: JointPoint, eta: float,
            gamma: float = 0.1) -> JointPoint:
    """Gradient play plus a shared penalty descending 0.5*||grad M||^2.

    The penalty gradient is H @ grad M with H the full symmetric
    Hessian; equivalently J^T g for the signed field.  The conventional
    factor 1/2 is absorbed into gamma.
    """
    gu, gv = _checked_grads(game, p)
    H_uu, H_uv, H_vu, H_vv = game.hessian_blocks(p)
    pen_u = H_uu @ gu + H_uv @ gv
    pen_v = H_vu @ gu + H_vv @ gv
    return JointPoint(p.u - eta * gu - gamma * eta * pen_u,
                      p.v + eta * gv - gamma * eta * pen_v)


def unrolled_step(game: GameOracle, p: JointPoint, eta: float,
                  k: int) -> JointPoint:
    """Leader update through k unrolled follower ascent steps.

    The follower chain y_{i+1} = y_i + eta * grad_v M(u, y_i) is
    differentiated w.r.t. u by forward accumulation (S = dy/du), giving
    the leader the total derivative of u -> M(u, y_k(u)).  The follower
    itself takes a plain ascent step at the original point.
    """
    checked("unrolled step count k", k, at_least=1)
    gu, gv = _checked_grads(game, p)
    u, v = p
    y, _, S = dgmod._differentiated_chain(game, p, eta, k)
    gu_y, gv_y = game.grads(u, y)
    total = gu_y + S.T @ gv_y
    return JointPoint(u - eta * total, v + eta * gv)


def fr_step(game: GameOracle, p: JointPoint, eta_x: float,
            eta_y: Optional[float] = None) -> JointPoint:
    """Follow-the-ridge: the follower adds a correction compensating the
    leader's move, H_vv^{-1} H_vu grad_u M scaled by the leader's rate."""
    if eta_y is None:
        eta_y = eta_x
    gu, gv = _checked_grads(game, p)
    _, _, H_vu, H_vv = game.hessian_blocks(p)
    try:
        correction = np.linalg.solve(H_vv, H_vu @ gu)
    except np.linalg.LinAlgError:
        raise SingularHessianError(
            f"H_vv is singular at u={p.u.tolist()}, v={p.v.tolist()}",
            point=p) from None
    if not np.all(np.isfinite(correction)):
        raise SingularHessianError(
            f"H_vv solve produced non-finite values at u={p.u.tolist()}, "
            f"v={p.v.tolist()}", point=p)
    return JointPoint(p.u - eta_x * gu, p.v + eta_y * gv + eta_x * correction)


def make_step_map(game: GameOracle, cfg: OptimizerConfig):
    """Bind a config to a stateless callable p -> p'.

    ogda keeps its one-step gradient memory in a closure cell; fresh
    maps start with the gda fallback.
    """
    alg = cfg.algorithm
    if alg == "gda":
        return lambda p: gda_step(game, p, cfg.eta)
    if alg == "eg":
        return lambda p: eg_step(game, p, cfg.eta)
    if alg == "sga":
        return lambda p: sga_step(game, p, cfg.eta, cfg.sga_lambda)
    if alg == "co":
        return lambda p: co_step(game, p, cfg.eta, cfg.co_gamma)
    if alg == "unrolled":
        return lambda p: unrolled_step(game, p, cfg.eta, cfg.unroll_k)
    if alg == "fr":
        return lambda p: fr_step(game, p, cfg.eta, cfg.eta_y)
    if alg == "dg":
        return lambda p: dgmod.dg_descent_step(game, p, cfg.dg, cfg.eta)
    if alg == "ogda":
        memory = {"prev": None}

        def step(p):
            grads = _checked_grads(game, p)
            out = _ogda_update(p, grads, memory["prev"], cfg.eta)
            memory["prev"] = grads
            return out

        return step
    raise AssertionError(alg)


@dataclass
class TrajectoryRecord:
    t: int
    u: Array
    v: Array
    value: float
    grad_u_norm: float
    grad_v_norm: float
    dg: Optional[float] = None


@dataclass
class Trajectory:
    """Time-indexed iterates with per-step diagnostics.

    classification is one of converged / diverged / non_convergent,
    judged against the supplied target points and divergence norm.
    """

    game: str
    algorithm: str
    eta: float
    records: list = field(default_factory=list)
    classification: str = "non_convergent"
    final_distance: Optional[float] = None
    error: Optional[str] = None

    @property
    def final_point(self) -> JointPoint:
        r = self.records[-1]
        return JointPoint(r.u, r.v)

    def points(self) -> np.ndarray:
        return np.array([np.concatenate([r.u, r.v]) for r in self.records])

    def write_csv(self, path):
        r0 = self.records[0]
        outputs.write_csv(
            path, ["t", *(f"u{i}" for i in range(len(r0.u))),
                   *(f"v{i}" for i in range(len(r0.v))),
                   "value", "grad_u_norm", "grad_v_norm", "dg"],
            ([r.t, *r.u, *r.v, r.value, r.grad_u_norm, r.grad_v_norm, r.dg]
             for r in self.records))

    def summary(self) -> dict:
        final = self.records[-1]
        return {
            "algorithm": self.algorithm,
            "game": self.game,
            "eta": self.eta,
            "steps": self.records[-1].t,
            "classification": self.classification,
            "final_point": [float(x) for x in np.concatenate([final.u, final.v])],
            "final_distance": self.final_distance,
        }

    def write_summary(self, path):
        outputs.write_json(path, self.summary())


def run_trajectory(game: GameOracle, cfg: OptimizerConfig, init: JointPoint,
                   steps: int, targets: Sequence[JointPoint] = (),
                   tol: float = 1e-3, diverge_norm: float = 1e3,
                   log_dg: bool = False) -> Trajectory:
    """Iterate a step map, recording diagnostics at every iterate.

    Divergence (norm above diverge_norm) truncates the run at the
    offending record; step errors keep the partial trajectory and set
    the error field.  With log_dg, every record carries the DG metric
    under cfg.dg; a non-finite one leaves that record's dg empty and
    the run goes on.  Convergence means the final iterate lies within
    tol of one of the targets.
    """
    checked("step count steps", steps, at_least=1)
    checked("convergence tolerance tol", tol, at_least=0)
    checked("divergence norm diverge_norm", diverge_norm, positive=True)
    if log_dg and cfg.dg is None:
        raise ValueError("log_dg needs a DGConfig in cfg.dg")
    step_map = make_step_map(game, cfg)
    traj = Trajectory(game=game.name, algorithm=cfg.algorithm, eta=cfg.eta)

    def record(t, p):
        gu, gv = game.grads(p.u, p.v)
        dg_val = None
        if log_dg:
            try:
                dg_val = dgmod.dg_metric(game, p, cfg.dg)
            except NonFiniteValueError:
                pass
        traj.records.append(TrajectoryRecord(
            t=t, u=p.u.copy(), v=p.v.copy(),
            value=float(game.value(p.u, p.v)),
            grad_u_norm=float(np.sqrt(gu.dot(gu))),
            grad_v_norm=float(np.sqrt(gv.dot(gv))),
            dg=dg_val))

    p = JointPoint.of(init.u, init.v)
    record(0, p)
    diverged = False
    for t in range(1, steps + 1):
        try:
            p = step_map(p)
        except (NonFiniteValueError, SingularHessianError) as exc:
            traj.error = str(exc)
            break
        record(t, p)
        if p.norm() > diverge_norm:
            diverged = True
            break

    if diverged:
        traj.classification = "diverged"
    else:
        final = traj.final_point
        dists = [final.distance_to(tgt) for tgt in targets]
        if dists and min(dists) <= tol:
            traj.classification = "converged"
            traj.final_distance = min(dists)
        else:
            traj.classification = "non_convergent"
            traj.final_distance = min(dists) if dists else None
    return traj
