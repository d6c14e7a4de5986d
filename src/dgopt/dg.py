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

Each chain calls the oracle's grad_u or grad_v itself, and each half's
tail is an oracle method (value_and_grad_v, value_and_grad_u or value),
so a step at a point of two Python floats pays for its oracle calls and
float arithmetic, with no wrapper, context manager or array check around
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import (Array, GameOracle, JointPoint, NonFiniteValueError,
                    checked, matvec)
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


def _inner_setup(game: GameOracle, p: JointPoint, gamma: float):
    """The inner step in the iterates' form and each player's box (None
    when the game is unbounded): a Python float at a float point, which
    has no box (games.float_point_ok), else a scalar of the arrays'
    dtype."""
    if isinstance(p.u, float):
        return float(gamma), None, None
    gamma = p.u.dtype.type(gamma)
    if game.domain is None:
        return gamma, None, None
    lo, hi, du = game.domain.lo, game.domain.hi, game.dim_u
    return gamma, (lo[:du], hi[:du]), (lo[du:], hi[du:])


def _chain(grad, x, opp, ascent, gamma, box, k, p):
    """k warm-started steps of one player against the frozen opponent
    opp, clamped to the box if there is one: x <- x + gamma * grad(opp, x)
    ascends, x <- x + (-gamma) * grad(x, opp) descends (the same float as
    x - gamma * grad(x, opp)).

    x is an array, stepped from a copy, or a Python float with gamma and
    the gradients Python floats too (one coordinate, see
    worst_case_responses); each step is the same float64 multiply and
    add either way.  An overflow is reported by the finiteness check
    alone: numpy's overflow and invalid warnings are off for array
    steps, and float steps raise none.
    """
    step = gamma if ascent else -gamma
    if isinstance(x, float):
        for i in range(1, k + 1):
            x = x + step * (grad(opp, x) if ascent else grad(x, opp))
            if not math.isfinite(x):
                raise _inner_error(ascent, i, p)
        return x
    x = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, k + 1):
            x = x + step * (grad(opp, x) if ascent else grad(x, opp))
            if box is not None:
                x = x.clip(box[0], box[1])
            if not np.isfinite(x).all():
                raise _inner_error(ascent, i, p)
    return x


def _inner_error(ascent, i, p):
    return NonFiniteValueError(
        f"inner {'ascent' if ascent else 'descent'} iterate became "
        f"non-finite at inner step {i}", point=p)


def worst_case_responses(game: GameOracle, p: JointPoint, cfg: DGConfig,
                         descent_tail=None, ascent_tail=None) -> tuple:
    """cfg.k warm-started inner gradient steps per player against a
    frozen opponent: (u_k, descent_tail(u_k, p.v)) and
    (v_k, ascent_tail(p.u, v_k)), or a bare endpoint for a half with no
    tail.  The chain pairs of dg_metric and of dg_estimate's envelope
    mode run here; the unrolled mode runs _differentiated_chain.

    u_k descends u -> M(u, p.v) from p.u, v_k ascends v -> M(p.u, v)
    from p.v, each step with the gradient at the previous inner iterate.
    When the game carries a box domain the inner iterates are clamped to
    it, which keeps the estimate below the exact box duality gap.  The
    halves share no state, so they are a run_pair: descent first, on
    the worker when concurrent.  Every call runs both chains; nothing is
    kept between calls.

    The chains step the point's own form: two Python floats (a point
    that run_trajectory steps on floats) or arrays, and the tails get
    each endpoint in that form.  The tails are oracle methods, called
    with the frozen opponent in its own argument place.
    """
    gamma, u_box, v_box = _inner_setup(game, p, cfg.gamma)
    u, v = p

    def descent():
        uk = _chain(game.grad_u, u, v, False, gamma, u_box, cfg.k, p)
        return uk if descent_tail is None else (uk, descent_tail(uk, v))

    def ascent():
        vk = _chain(game.grad_v, v, u, True, gamma, v_box, cfg.k, p)
        return vk if ascent_tail is None else (vk, ascent_tail(u, vk))

    return run_pair(descent, ascent)


def _differentiated_chain(game, p, step, k):
    """One player's k inner steps against the frozen opponent, with the
    endpoint's derivatives accumulated forward through Hessian blocks.

    Step +gamma ascends y <- y + gamma * grad_v M(p.u, y) from p.v, step
    -gamma descends x <- x - gamma * grad_u M(x, p.v) from p.u.  With
    H_own the player's own Hessian block and H_cross the derivative of
    its gradient w.r.t. the opponent, each step takes
    d_own <- d_own + step * H_own d_own and
    d_opp <- d_opp + step * (H_own d_opp + H_cross) before moving x: as
    one product on the stacked D = [d_own | d_opp], or on Python floats
    at a float point (see worst_case_responses).  Returns
    (x_k, d_own^T, d_opp^T) for d_own = dx_k/d start and
    d_opp = dx_k/d opponent.  As in _chain, a step that leaves x or its
    derivatives non-finite raises _inner_error, with numpy's overflow
    and invalid warnings off for array steps.
    """
    u, v = p
    ascent = step > 0
    x = v if ascent else u
    if isinstance(x, float):
        d_own, d_opp = 1.0, 0.0
        for i in range(1, k + 1):
            H_uu, H_uv, H_vu, H_vv = game.hessian_blocks(
                JointPoint(u, x) if ascent else JointPoint(x, v))
            H_own, H_cross = (H_vv, H_vu) if ascent else (H_uu, H_uv)
            d_own, d_opp = (d_own + step * matvec(H_own, d_own),
                            d_opp + step * (matvec(H_own, d_opp) + H_cross))
            x = x + step * (game.grad_v(u, x) if ascent
                            else game.grad_u(x, v))
            if not (math.isfinite(x) and math.isfinite(d_own)
                    and math.isfinite(d_opp)):
                raise _inner_error(ascent, i, p)
        return x, d_own, d_opp
    x = x.astype(float, copy=True)
    n = x.size
    D = np.eye(n, n + (game.dim_u if ascent else game.dim_v))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, k + 1):
            H_uu, H_uv, H_vu, H_vv = game.hessian_blocks(
                JointPoint(u, x) if ascent else JointPoint(x, v))
            H_own, H_cross = (H_vv, H_vu) if ascent else (H_uu, H_uv)
            HD = H_own @ D
            HD[:, n:] += H_cross
            D = D + step * HD
            x = x + step * (game.grad_v(u, x) if ascent
                            else game.grad_u(x, v))
            if not (np.isfinite(x).all() and np.isfinite(D).all()):
                raise _inner_error(ascent, i, p)
    return x, D[:, :n].T, D[:, n:].T


def _unrolled_grads(game, p, k, gamma):
    """Total derivative of M(u, v_k) - M(u_k, v) through both inner chains.

    The ascent chain gives A = dv_k/du and B = dv_k/dv, the descent
    chain C = du_k/du and D = du_k/dv, each transposed (_differentiated_chain).
    Differentiating through a box projection needs its (discontinuous)
    Jacobian, so a game with a box domain is rejected rather than
    differentiated as if unbounded.
    """
    if game.domain is not None:
        raise ValueError(f"the unrolled DG gradient cannot differentiate "
                         f"through the box domain of {game.name}; use the "
                         f"envelope mode")
    u, v = p
    y, B_t, A_t = _differentiated_chain(game, p, gamma, k)
    x, C_t, D_t = _differentiated_chain(game, p, -gamma, k)

    gu_first, gv_first = game.grads(u, y)
    gu_second, gv_second = game.grads(x, v)

    grad_u = gu_first + matvec(A_t, gv_first) - matvec(C_t, gu_second)
    grad_v = matvec(B_t, gv_first) - gv_second - matvec(D_t, gu_second)
    return x, y, grad_u, grad_v


def dg_estimate(game: GameOracle, p: JointPoint, cfg: DGConfig) -> DGEstimate:
    """DG value and gradient at p under the configured inner loop.

    At k = 0 the estimate is identically zero, so the total derivative
    carries no information; both modes then return the envelope
    gradients (grad_u M(u,v), -grad_v M(u,v)), which is what makes
    k = 0 DG-descent coincide with plain gradient descent-ascent.

    The envelope estimate runs two independent halves
    (worst_case_responses): descent (the u-chain, then M and grad_v at
    (u_k, v)) and ascent (the v-chain, then M and grad_u at (u, v_k)).
    The envelope mode also takes a batched point (see GameOracle): the
    value is then an array over the batch.
    """
    u, v = p

    if cfg.grad_mode == "unrolled" and np.ndim(u) > 1:
        raise ValueError("the unrolled DG gradient takes one point, not a "
                         "batch; use the envelope mode")
    if cfg.grad_mode == "unrolled" and cfg.k > 0:
        uw, vw, grad_u, grad_v = _unrolled_grads(game, p, cfg.k, cfg.gamma)
        high, low = game.value(u, vw), game.value(uw, v)
    else:
        (uw, (low, gv)), (vw, (high, grad_u)) = worst_case_responses(
            game, p, cfg, game.value_and_grad_v, game.value_and_grad_u)
        grad_v = -gv

    return DGEstimate(value=_gap(high, low, "duality-gap value", p),
                      u_worst=uw, v_worst=vw, grad_u=grad_u, grad_v=grad_v)


def _gap(high, low, what, p):
    """high - low as a float, or as an array over a batched point; raises
    if any entry is non-finite.  A numpy difference is taken with its
    overflow and invalid warnings off, so that check is the one report."""
    if type(high) is float and type(low) is float:
        value = high - low
        finite = math.isfinite(value)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            value = high - low
        finite = np.all(np.isfinite(value))
        if not np.ndim(value):
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
    (_, low), (_, high) = worst_case_responses(game, p, cfg, game.value,
                                               game.value)
    return _gap(high, low, "duality-gap metric", p)


def dg_descent_step(game: GameOracle, p: JointPoint, cfg: DGConfig,
                    eta: float):
    """One outer step: both players descend the DG gradient with the
    constant step eta.  Returns (next point, DG value at p), the value
    being the estimate's, so a caller that logs the value at p need not
    run the chains again."""
    est = dg_estimate(game, p, cfg)
    eta = float(eta)
    return (JointPoint(p.u - eta * est.grad_u, p.v - eta * est.grad_v),
            est.value)
