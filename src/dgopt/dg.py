"""Approximate duality-gap computation and the DG-descent outer step.

The duality gap of a strategy pair is

    DG(u, v) = max_{v'} M(u, v') - min_{u'} M(u', v),

estimated here by k warm-started gradient steps per inner problem.  Two
gradient modes are provided for the outer descent:

* ``envelope``   - the worst-case responses are treated as constants,
  so grad_u = grad_u M(u, v_w) and grad_v = -grad_v M(u_w, v).  Needs
  first-order information only.
* ``unrolled``   - the full total derivative through the k inner steps,
  accumulated forward with Hessian blocks.  Games with a box domain are
  rejected, since the clamped inner steps have no usable derivative.

Warm starting makes the estimate non-negative whenever the inner step
size is at most 1/L on an L-smooth game, since each ascent (descent)
step can only increase (decrease) the frozen-opponent objective.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .games import Array, Box, GameOracle, JointPoint, NonFiniteValueError

GRAD_MODES = ("envelope", "unrolled")
OUTER_MODES = ("constant_eta", "adagrad")


@dataclass(frozen=True)
class DGConfig:
    """Inner-loop parameters for the duality-gap estimate.

    gamma=None ties the inner step size to the outer learning rate at
    the point of use (the toy experiments run a single step size).
    """

    k: int = 10
    gamma: Optional[float] = None
    grad_mode: str = "envelope"
    outer: str = "constant_eta"

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("inner step count k must be >= 0")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("inner step size gamma must be positive")
        if self.grad_mode not in GRAD_MODES:
            raise ValueError(f"grad_mode must be one of {GRAD_MODES}")
        if self.outer not in OUTER_MODES:
            raise ValueError(f"outer must be one of {OUTER_MODES}")

    def resolved_gamma(self, eta: Optional[float]) -> float:
        if self.gamma is not None:
            return self.gamma
        if eta is None:
            raise ValueError("gamma is unset and no outer eta was supplied")
        return float(eta)

    def format(self) -> str:
        gamma = "auto" if self.gamma is None else repr(float(self.gamma))
        outer = "const" if self.outer == "constant_eta" else "adagrad"
        return f"dg:k={self.k},gamma={gamma},mode={self.grad_mode},outer={outer}"

    @staticmethod
    def parse(text: str) -> "DGConfig":
        """Parse 'dg:k=10,gamma=0.05,mode=envelope,outer=const'."""
        body = text.strip()
        if body.startswith("dg:"):
            body = body[3:]
        elif body == "dg":
            body = ""
        kwargs = {}
        for item in filter(None, body.split(",")):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"malformed dg config item {item!r}")
            key = key.strip()
            val = val.strip()
            if key == "k":
                kwargs["k"] = int(val)
            elif key == "gamma":
                kwargs["gamma"] = None if val == "auto" else float(val)
            elif key == "mode":
                kwargs["grad_mode"] = val
            elif key == "outer":
                kwargs["outer"] = "constant_eta" if val == "const" else val
            else:
                raise ValueError(f"unknown dg config key {key!r}")
        return DGConfig(**kwargs)


@dataclass
class DGEstimate:
    """DG value at a point plus the k-step responses and the DG gradient."""

    value: float
    u_worst: Array
    v_worst: Array
    grad_u: Array
    grad_v: Array


@dataclass
class AdaGradState:
    """Scalar-step AdaGrad accumulator with box projection.

    The effective step D / sqrt(sum of squared gradient norms) is
    non-increasing; the projection is the per-coordinate clamp, which is
    the exact orthogonal projection for a box.
    """

    sum_sq: float
    diameter: float
    box: Box

    def __post_init__(self):
        if self.diameter <= 0:
            raise ValueError("diameter must be positive")
        if self.sum_sq < 0:
            raise ValueError("squared-gradient sum cannot be negative")

    @staticmethod
    def fresh(diameter: float, box: Box) -> "AdaGradState":
        return AdaGradState(sum_sq=0.0, diameter=float(diameter), box=box)


def _inner_setup(game: GameOracle, p: JointPoint, k: int, gamma: float):
    """Checked k, the inner step in the iterates' dtype, and each
    player's box (None when the game is unbounded)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if hasattr(p.u, "dtype"):
        gamma = p.u.dtype.type(gamma)
    if game.domain is None:
        return gamma, None, None
    lo, hi, du = game.domain.lo, game.domain.hi, game.dim_u
    return gamma, (lo[:du], hi[:du]), (lo[du:], hi[du:])


def _chain(x, grad, step, box, k, kind, p):
    """k warm-started steps x <- x + step * grad(x) from a copy of x,
    clamped to the box if there is one: step -gamma descends, +gamma
    ascends (x - gamma g and x + (-gamma) g are the same float)."""
    x = x.copy()
    for i in range(1, k + 1):
        x = x + step * grad(x)
        if box is not None:
            x = x.clip(box[0], box[1])
        if not np.isfinite(x).all():
            raise NonFiniteValueError(
                f"inner {kind} iterate became non-finite at inner step {i}",
                point=p)
    return x


# Per thread, the chain endpoints of the last _inner_halves call: a logged
# DG value and the descent step from the same iterate share one pair of
# chains.  The game is held weakly, so a dropped game (and a MoG game's
# pass buffers) is freed, and its entry goes with it: kept past the game,
# the small arrays pinned the heap and a MoG run's peak RSS rose ~2 MB.
_last_chains = threading.local()


def _forget(game_ref):
    if getattr(_last_chains, "entry", (None,))[0] is game_ref:
        del _last_chains.entry


def _point_key(x):
    x = np.asarray(x)
    return x.tobytes(), x.shape, x.dtype.str


def _inner_halves(game, p, k, gamma, descent_tail, ascent_tail,
                  executor=None):
    """(descent_tail(u_k), ascent_tail(v_k)) for the two inner chains.

    u_k takes k descent steps on u -> M(u, p.v) from p.u, v_k k ascent
    steps on v -> M(p.u, v) from p.v.  The halves share no state.
    Without an executor they run in sequence, descent first; with one,
    descent runs on it while ascent runs on the caller.  Either way a
    descent error is the one raised when both halves fail.

    When the previous call on this thread had the same game, point bits,
    k and gamma, the halves reuse its (u_k, v_k) and run only the tails.
    Oracles are pure, so the result is the same; the tails get copies,
    and only chains that finished are kept, so a non-finite chain raises
    every time.
    """
    gamma, u_box, v_box = _inner_setup(game, p, k, gamma)
    u, v = p
    key = (_point_key(u), _point_key(v), k, gamma)
    last = getattr(_last_chains, "entry", None)
    hit = last is not None and last[0]() is game and last[1] == key

    def descent():
        if hit:
            x = last[2].copy()
        else:
            x = _chain(u, lambda x: game.grad_u(x, v), -gamma, u_box, k,
                       "descent", p)
        return x, descent_tail(x)

    def ascent():
        if hit:
            y = last[3].copy()
        else:
            y = _chain(v, lambda y: game.grad_v(u, y), gamma, v_box, k,
                       "ascent", p)
        return y, ascent_tail(y)

    if executor is None:
        (u_k, lowered), (v_k, raised) = descent(), ascent()
    else:
        future = executor.submit(descent)
        try:
            v_k, raised = ascent()
        except Exception:
            future.result()
            raise
        u_k, lowered = future.result()
    if not hit:
        _last_chains.entry = (weakref.ref(game, _forget), key, u_k.copy(),
                              v_k.copy())
    return lowered, raised


def worst_case_responses(game: GameOracle, p: JointPoint, k: int,
                         gamma: float) -> tuple:
    """k warm-started inner gradient steps against a frozen opponent.

    u_worst descends u -> M(u, p.v) starting from p.u; v_worst ascends
    v -> M(p.u, v) starting from p.v.  Each step uses the gradient at
    the previous inner iterate (plain explicit steps).  When the game
    carries a box domain the inner iterates are clamped to it, which
    keeps the estimate below the exact box duality gap.
    """
    return _inner_halves(game, p, k, gamma, lambda uw: uw, lambda vw: vw)


def _unrolled_grads(game, p, k, gamma):
    """Total derivative of M(u, v_k) - M(u_k, v) through both inner chains.

    Forward accumulation: for the ascent chain y_{i+1} = y_i + gamma *
    grad_v M(u, y_i) track A = dy/du and B = dy/dv; for the descent
    chain track C = dx/du and D = dx/dv.  Differentiating through a box
    projection needs its (discontinuous) Jacobian, so a game with a box
    domain is rejected rather than differentiated as if unbounded.
    """
    if game.domain is not None:
        raise ValueError(f"the unrolled DG gradient cannot differentiate "
                         f"through the box domain of {game.name}; use the "
                         f"envelope mode")
    u, v = p
    du, dv = game.dim_u, game.dim_v

    y = v.copy()
    A = np.zeros((dv, du))
    B = np.eye(dv)
    for _ in range(k):
        _, _, H_vu, H_vv = game.hessian_blocks(JointPoint(u, y))
        A = A + gamma * (H_vu + H_vv @ A)
        B = B + gamma * (H_vv @ B)
        y = y + gamma * game.grad_v(u, y)

    x = u.copy()
    C = np.eye(du)
    D = np.zeros((du, dv))
    for _ in range(k):
        H_uu, H_uv, _, _ = game.hessian_blocks(JointPoint(x, v))
        C = C - gamma * (H_uu @ C)
        D = D - gamma * (H_uv + H_uu @ D)
        x = x - gamma * game.grad_u(x, v)

    gu_first = game.grad_u(u, y)
    gv_first = game.grad_v(u, y)
    gu_second = game.grad_u(x, v)
    gv_second = game.grad_v(x, v)

    grad_u = gu_first + A.T @ gv_first - C.T @ gu_second
    grad_v = B.T @ gv_first - gv_second - D.T @ gu_second
    return x, y, grad_u, grad_v


def dg_estimate(game: GameOracle, p: JointPoint, cfg: DGConfig,
                eta: Optional[float] = None, executor=None) -> DGEstimate:
    """DG value and gradient at p under the configured inner loop.

    At k = 0 the estimate is identically zero, so the total derivative
    carries no information; both modes then return the envelope
    gradients (grad_u M(u,v), -grad_v M(u,v)), which is what makes
    k = 0 DG-descent coincide with plain gradient descent-ascent.

    The envelope estimate has two independent halves: descent (the
    u-chain, then M and grad_v at (u_k, v)) and ascent (the v-chain,
    then M and grad_u at (u, v_k)).  Given an executor, the descent
    half runs on it while the ascent half runs here; the result is the
    same either way.  The envelope mode also takes a batched point (see
    GameOracle): the value is then an array over the batch.
    """
    gamma = cfg.resolved_gamma(eta)
    u, v = p

    if cfg.grad_mode == "unrolled" and np.ndim(u) > 1:
        raise ValueError("the unrolled DG gradient takes one point, not a "
                         "batch; use the envelope mode")
    if cfg.grad_mode == "unrolled" and cfg.k > 0:
        uw, vw, grad_u, grad_v = _unrolled_grads(game, p, cfg.k, gamma)
        value = game.value(u, vw) - game.value(uw, v)
    else:
        (uw, low, gv), (vw, high, grad_u) = _inner_halves(
            game, p, cfg.k, gamma,
            lambda uw: (uw, *game.value_and_grad_v(uw, v)),
            lambda vw: (vw, *game.value_and_grad_u(u, vw)), executor)
        value = high - low
        grad_v = -gv

    return DGEstimate(value=_finite(value, "duality-gap value", p),
                      u_worst=uw, v_worst=vw, grad_u=grad_u, grad_v=grad_v)


def _finite(value, what, p):
    """value as a float, or as an array over a batched point; raises if
    any entry is non-finite."""
    if np.ndim(value):
        finite = np.all(np.isfinite(value))
    else:
        finite = math.isfinite(value)
        value = float(value)
    if not finite:
        raise NonFiniteValueError(f"{what} is non-finite", point=p)
    return value


def dg_metric(game: GameOracle, p: JointPoint, k: int, gamma: float,
              executor=None) -> float:
    """Monitoring metric: the k-step DG value only, no gradients.

    Runs in the same two halves as dg_estimate, on the executor if one
    is given.  For a batched point of a game that takes one (see
    GameOracle), the chains step every point at once and the metric is
    an array over the batch; it raises if any entry is non-finite."""
    low, high = _inner_halves(game, p, k, gamma,
                              lambda uw: game.value(uw, p.v),
                              lambda vw: game.value(p.u, vw), executor)
    return _finite(high - low, "duality-gap metric", p)


def adagrad_step(state: AdaGradState, x: Array, g: Array) -> Array:
    """One simplified-AdaGrad update on the joint vector.

    S += ||g||^2 advances state.sum_sq in place, then the new point is
    x' = clamp(x - (D / sqrt(S)) * g) onto the box.  An all-zero
    gradient before any accumulation returns x and leaves the state
    untouched (the step size would be undefined).
    """
    gsq = float(np.dot(g, g))
    if state.sum_sq == 0.0 and gsq == 0.0:
        return x
    state.sum_sq += gsq
    eta_t = state.diameter / math.sqrt(state.sum_sq)
    return state.box.clamp(x - eta_t * g)


def dg_descent_step(game: GameOracle, p: JointPoint, cfg: DGConfig,
                    step: Union[float, AdaGradState], executor=None):
    """One outer step: both players descend the DG gradient.

    With a float step (outer "constant_eta") this is plain gradient
    descent on the estimate; with an AdaGradState (outer "adagrad") the
    joint vector takes a projected adaptive step and the state is
    advanced in place.  The executor goes on to dg_estimate.
    """
    adaptive = isinstance(step, AdaGradState)
    if cfg.outer != ("adagrad" if adaptive else "constant_eta"):
        raise ValueError(f"DGConfig.outer is {cfg.outer!r} but the step is "
                         f"a {type(step).__name__}")
    if adaptive:
        if cfg.gamma is None:
            raise ValueError("the adagrad outer has no constant step to tie "
                             "gamma to; set DGConfig.gamma explicitly")
        est = dg_estimate(game, p, cfg, executor=executor)
        g = np.concatenate([est.grad_u, est.grad_v])
        return JointPoint.split(adagrad_step(step, p.concat(), g),
                                game.dim_u)
    eta = float(step)
    est = dg_estimate(game, p, cfg, eta=eta, executor=executor)
    return JointPoint(p.u - eta * est.grad_u, p.v - eta * est.grad_v)
