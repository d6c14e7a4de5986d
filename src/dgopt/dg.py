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

Every evaluation runs its own chains and keeps nothing.  A run that logs
the DG value at an iterate and then takes the DG step from it shares one
pair of chains explicitly: dg_descent_step returns the estimate's value
with the next point, and the runners log that value.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .games import (Array, Box, GameOracle, JointPoint, NonFiniteValueError,
                    checked, float_point_ok)
from .parallel import run_pair

GRAD_MODES = ("envelope", "unrolled")


@dataclass(frozen=True, kw_only=True)
class DGConfig:
    """Inner-loop parameters for every duality-gap evaluation: k
    warm-started steps of size gamma per player.

    gamma has no default: the caller that knows the outer step sets it
    (the CLI and train_mog tie it to eta and lr).  The checks here are
    the only ones k and gamma get.
    """

    k: int = 10
    gamma: float
    grad_mode: str = "envelope"

    def __post_init__(self):
        checked("inner step count k", self.k, at_least=0)
        checked("inner step size gamma", self.gamma, positive=True)
        if self.grad_mode not in GRAD_MODES:
            raise ValueError(f"grad_mode must be one of {GRAD_MODES}")


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
        checked("AdaGrad diameter", self.diameter, positive=True)
        checked("squared-gradient sum", self.sum_sq, at_least=0)

    @staticmethod
    def fresh(diameter: float, box: Box) -> "AdaGradState":
        return AdaGradState(sum_sq=0.0, diameter=float(diameter), box=box)


def _inner_setup(game: GameOracle, p: JointPoint, gamma: float):
    """The inner step in the iterates' dtype and each player's box (None
    when the game is unbounded)."""
    if hasattr(p.u, "dtype"):
        gamma = p.u.dtype.type(gamma)
    if game.domain is None:
        return gamma, None, None
    lo, hi, du = game.domain.lo, game.domain.hi, game.dim_u
    return gamma, (lo[:du], hi[:du]), (lo[du:], hi[du:])


def _chain(x, grad, step, box, k, kind, p):
    """k warm-started steps x <- x + step * grad(x), clamped to the box if
    there is one: step -gamma descends, +gamma ascends (x - gamma g and
    x + (-gamma) g are the same float).

    x is an array, stepped from a copy, or a Python float with step and
    grad(x) Python floats too (one coordinate, see _inner_halves); each
    step is the same float64 multiply and add either way.  An overflow
    is reported by the finiteness check alone: numpy's overflow and
    invalid warnings are off for array steps, and float steps raise none.
    """
    floats = isinstance(x, float)
    if not floats:
        x = x.copy()
    with (contextlib.nullcontext() if floats
          else np.errstate(over="ignore", invalid="ignore")):
        for i in range(1, k + 1):
            x = x + step * grad(x)
            if box is not None:
                x = x.clip(box[0], box[1])
            if not (math.isfinite(x) if floats else np.isfinite(x).all()):
                raise NonFiniteValueError(
                    f"inner {kind} iterate became non-finite at inner step "
                    f"{i}", point=p)
    return x


def _inner_halves(game, p, k, gamma, descent_tail, ascent_tail):
    """(descent_tail(u_k), ascent_tail(v_k)) for the two inner chains.

    u_k takes k descent steps on u -> M(u, p.v) from p.u, v_k k ascent
    steps on v -> M(p.u, v) from p.v.  The halves share no state, so
    they are a run_pair: descent first, on the worker when concurrent.
    Every call runs both chains; nothing is kept between calls.

    A point of two Python floats steps its chains on floats, and so
    does a (1,) point that games.float_point_ok allows: the same float64
    operations without a 1-element array per step.  The tails get each
    endpoint in the point's own form, a float or a (1,) float64 array.
    """
    gamma, u_box, v_box = _inner_setup(game, p, gamma)
    wrap = float_point_ok(game, *p)
    u, v = p.to_floats() if wrap else p
    step = float(gamma) if isinstance(u, float) else gamma

    def chain(start, grad, step, box, kind, tail):
        end = _chain(start, grad, step, box, k, kind, p)
        return tail(np.array([end]) if wrap else end)

    return run_pair(
        lambda: chain(u, lambda x: game.grad_u(x, v), -step, u_box,
                      "descent", descent_tail),
        lambda: chain(v, lambda y: game.grad_v(u, y), step, v_box,
                      "ascent", ascent_tail))


def worst_case_responses(game: GameOracle, p: JointPoint,
                         cfg: DGConfig) -> tuple:
    """cfg.k warm-started inner gradient steps against a frozen opponent.

    u_worst descends u -> M(u, p.v) starting from p.u; v_worst ascends
    v -> M(p.u, v) starting from p.v.  Each step uses the gradient at
    the previous inner iterate (plain explicit steps).  When the game
    carries a box domain the inner iterates are clamped to it, which
    keeps the estimate below the exact box duality gap.
    """
    return _inner_halves(game, p, cfg.k, cfg.gamma, lambda uw: uw,
                         lambda vw: vw)


def _differentiated_chain(game, p, step, k):
    """One player's k inner steps against the frozen opponent, with the
    endpoint's derivatives accumulated forward through Hessian blocks.

    Step +gamma ascends y <- y + gamma * grad_v M(p.u, y) from p.v, step
    -gamma descends x <- x - gamma * grad_u M(x, p.v) from p.u.  With
    H_own the player's own Hessian block and H_cross the derivative of
    its gradient w.r.t. the opponent, each step takes
    d_own <- d_own + step * H_own d_own and
    d_opp <- d_opp + step * (H_own d_opp + H_cross) before moving x, as
    one product on the stacked D = [d_own | d_opp].
    Returns (x_k, d_own = dx_k/d start, d_opp = dx_k/d opponent).
    """
    u, v = p
    ascent = step > 0
    x = (v if ascent else u).astype(float, copy=True)
    n = x.size
    D = np.eye(n, n + (game.dim_u if ascent else game.dim_v))
    for _ in range(k):
        H_uu, H_uv, H_vu, H_vv = game.hessian_blocks(
            JointPoint(u, x) if ascent else JointPoint(x, v))
        H_own, H_cross = (H_vv, H_vu) if ascent else (H_uu, H_uv)
        HD = H_own @ D
        HD[:, n:] += H_cross
        D = D + step * HD
        x = x + step * (game.grad_v(u, x) if ascent else game.grad_u(x, v))
    return x, D[:, :n], D[:, n:]


def _unrolled_grads(game, p, k, gamma):
    """Total derivative of M(u, v_k) - M(u_k, v) through both inner chains.

    The ascent chain gives A = dv_k/du and B = dv_k/dv, the descent
    chain C = du_k/du and D = du_k/dv (_differentiated_chain).
    Differentiating through a box projection needs its (discontinuous)
    Jacobian, so a game with a box domain is rejected rather than
    differentiated as if unbounded.
    """
    if game.domain is not None:
        raise ValueError(f"the unrolled DG gradient cannot differentiate "
                         f"through the box domain of {game.name}; use the "
                         f"envelope mode")
    u, v = p
    y, B, A = _differentiated_chain(game, p, gamma, k)
    x, C, D = _differentiated_chain(game, p, -gamma, k)

    gu_first, gv_first = game.grads(u, y)
    gu_second, gv_second = game.grads(x, v)

    grad_u = gu_first + A.T @ gv_first - C.T @ gu_second
    grad_v = B.T @ gv_first - gv_second - D.T @ gu_second
    return x, y, grad_u, grad_v


def dg_estimate(game: GameOracle, p: JointPoint, cfg: DGConfig) -> DGEstimate:
    """DG value and gradient at p under the configured inner loop.

    At k = 0 the estimate is identically zero, so the total derivative
    carries no information; both modes then return the envelope
    gradients (grad_u M(u,v), -grad_v M(u,v)), which is what makes
    k = 0 DG-descent coincide with plain gradient descent-ascent.

    The envelope estimate runs two independent halves (_inner_halves):
    descent (the u-chain, then M and grad_v at (u_k, v)) and ascent (the
    v-chain, then M and grad_u at (u, v_k)).  The envelope mode also
    takes a batched point (see GameOracle): the value is then an array
    over the batch.
    """
    u, v = p

    if cfg.grad_mode == "unrolled" and np.ndim(u) > 1:
        raise ValueError("the unrolled DG gradient takes one point, not a "
                         "batch; use the envelope mode")
    if cfg.grad_mode == "unrolled" and cfg.k > 0:
        if isinstance(u, float):
            uw, vw, grad_u, grad_v = (float(x[0]) for x in _unrolled_grads(
                game, JointPoint.of(*p), cfg.k, cfg.gamma))
        else:
            uw, vw, grad_u, grad_v = _unrolled_grads(game, p, cfg.k,
                                                     cfg.gamma)
        value = game.value(u, vw) - game.value(uw, v)
    else:
        (uw, low, gv), (vw, high, grad_u) = _inner_halves(
            game, p, cfg.k, cfg.gamma,
            lambda uw: (uw, *game.value_and_grad_v(uw, v)),
            lambda vw: (vw, *game.value_and_grad_u(u, vw)))
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


def dg_metric(game: GameOracle, p: JointPoint, cfg: DGConfig) -> float:
    """Monitoring metric: the cfg.k-step DG value only, no gradients.

    Runs in the same two halves as dg_estimate.  For a batched point of
    a game that takes one (see GameOracle), the chains step every point
    at once and the metric is an array over the batch; it raises if any
    entry is non-finite."""
    low, high = _inner_halves(game, p, cfg.k, cfg.gamma,
                              lambda uw: game.value(uw, p.v),
                              lambda vw: game.value(p.u, vw))
    return _finite(high - low, "duality-gap metric", p)


def adagrad_step(state: AdaGradState, x: Array, g: Array) -> Array:
    """One simplified-AdaGrad update on the joint vector.

    S += ||g||^2 advances state.sum_sq in place, then the new point is
    x' = clamp(x - (D / sqrt(S)) * g) onto the box.  An all-zero
    gradient before any accumulation returns x and leaves the state
    untouched (the step size would be undefined).
    """
    gsq = float(g.dot(g))
    if state.sum_sq == 0.0 and gsq == 0.0:
        return x
    state.sum_sq += gsq
    eta_t = state.diameter / math.sqrt(state.sum_sq)
    return state.box.clamp(x - eta_t * g)


def dg_descent_step(game: GameOracle, p: JointPoint, cfg: DGConfig,
                    step: Union[float, AdaGradState]):
    """One outer step: both players descend the DG gradient.  Returns
    (next point, DG value at p), the value being the estimate's, so a
    caller that logs the value at p need not run the chains again.

    The type of step picks the outer rule: a float is a constant step,
    plain gradient descent on the estimate; an AdaGradState makes the
    joint vector take a projected adaptive step and is advanced in
    place.
    """
    est = dg_estimate(game, p, cfg)
    if isinstance(step, AdaGradState):
        g = np.concatenate([est.grad_u, est.grad_v])
        return JointPoint.split(adagrad_step(step, p.concat(), g),
                                game.dim_u), est.value
    eta = float(step)
    return (JointPoint(p.u - eta * est.grad_u, p.v - eta * est.grad_v),
            est.value)
