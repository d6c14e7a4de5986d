"""Two-player zero-sum game oracles and the analytic game catalog.

A game is a scalar objective M(u, v) that the u-player minimizes and the
v-player maximizes.  Every catalog game ships hand-coded gradients (no
symbolic differentiation anywhere) and, where cheap, closed-form Hessian
blocks.  Games without closed-form second-order information fall back to
central finite differences of their analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import parallel

Array = np.ndarray

HALF_PI = math.pi / 2.0


class NonFiniteValueError(RuntimeError):
    """An oracle or update produced a non-finite number."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class SingularHessianError(RuntimeError):
    """A second-order solve hit a (numerically) singular block."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


def checked(name: str, value, at_least: float = -math.inf,
            positive: bool = False, nonzero: bool = False):
    """value if it is finite and at least at_least (above 0 when
    positive, not 0 when nonzero); otherwise a ValueError that names the
    setting, its range and the value.  Every numeric setting is checked
    here, with comparisons only, so a per-step call stays cheap."""
    if (math.isfinite(value) and value >= at_least
            and (value > 0 or not positive) and (value != 0 or not nonzero)):
        return value
    rule = ("positive" if positive else "non-zero" if nonzero
            else f">= {at_least:g}" if at_least > -math.inf else "")
    raise ValueError(f"{name} must be {rule + ' and ' if rule else ''}"
                     f"finite, got {value}")


def as_vector(x) -> Array:
    """Coerce a scalar/sequence to a float64 1-D array."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D strategy vector, got shape {a.shape}")
    return a


class JointPoint(NamedTuple):
    """A strategy pair (u, v), each a real vector.

    One point of a game with the float form (GameOracle) may also be two
    Python floats, one coordinate per player; run_trajectory steps such
    a point when float_point_ok allows it.  to_floats makes one from a
    (1,) point and of makes a (1,) point from one; norm takes either
    form, concat, split and distance_to take arrays.
    """

    u: Array
    v: Array

    @staticmethod
    def of(u, v) -> "JointPoint":
        return JointPoint(as_vector(u), as_vector(v))

    def to_floats(self) -> "JointPoint":
        return JointPoint(float(self.u[0]), float(self.v[0]))

    def concat(self) -> Array:
        return np.concatenate([self.u, self.v])

    @staticmethod
    def split(x: Array, dim_u: int) -> "JointPoint":
        return JointPoint(np.asarray(x[:dim_u], dtype=float),
                          np.asarray(x[dim_u:], dtype=float))

    def norm(self) -> float:
        u, v = self
        if isinstance(u, float):
            return math.sqrt(u * u + v * v)
        return float(np.sqrt(u.dot(u) + v.dot(v)))

    def distance_to(self, other: "JointPoint") -> float:
        du = self.u - other.u
        dv = self.v - other.v
        return float(np.sqrt(du.dot(du) + dv.dot(dv)))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, used as a game domain or a projection set."""

    lo: Array
    hi: Array

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != self.hi.shape:
            raise ValueError("box bounds must have one shape")
        for lo, hi in zip(self.lo.flat, self.hi.flat):
            checked("box upper bound", hi, checked("box lower bound", lo))

    @staticmethod
    def square(lo: float, hi: float, dim: int = 2) -> "Box":
        return Box(np.full(dim, float(lo)), np.full(dim, float(hi)))

    def clamp(self, x: Array) -> Array:
        return np.minimum(np.maximum(x, self.lo), self.hi)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))


HessianBlocks = tuple  # (H_uu, H_uv, H_vu, H_vv)


@dataclass(frozen=True)
class GameOracle:
    """First-order (and optionally second-order) oracle for M(u, v).

    value/grad_u/grad_v are pure functions; repeated evaluation at the
    same point is bit-identical, so oracles are safe to share across
    threads.  A point is a pair of 1-D vectors: value returns a float,
    the gradients vectors.  The scalar catalog games also take a leading
    batch axis: u, v of one shape (..., 1) stand for a batch of points,
    value returns a (...) array and the gradients (..., 1) arrays, each
    entry bit-identical to the per-point call.  A game with float_form
    set (the scalar catalog games) also takes one point as two Python
    floats: value, grad_u and grad_v return a Python float, the same
    float as the (1,) call's one entry, and hessian_blocks returns four
    floats, the (1, 1) blocks' entries.  Batches, boxed games, float32
    points, the GAN and linearize's finite differences keep arrays.

    grads(u, v) is the joint-gradient entry point, (grad_u, grad_v) at
    one point, which the step rules call once per gradient pair.  Here
    it is the two calls in that order; the MoG GAN overrides it with one
    pass, bit-identical to the two calls.
    """

    name: str
    dim_u: int
    dim_v: int
    value: Callable[[Array, Array], float]
    grad_u: Callable[[Array, Array], Array]
    grad_v: Callable[[Array, Array], Array]
    second_order: Optional[Callable[[Array, Array], HessianBlocks]] = None
    domain: Optional[Box] = None
    float_form: bool = False

    def hessian_blocks(self, p: JointPoint) -> HessianBlocks:
        """Closed-form blocks when available, FD of the gradients
        otherwise; at a float point the FD blocks are computed on (1,)
        arrays and returned as floats."""
        if self.second_order is not None:
            return self.second_order(p.u, p.v)
        if isinstance(p.u, float):
            return tuple(float(h[0, 0]) for h in
                         second_order_fd(self, JointPoint.of(*p)))
        return second_order_fd(self, p)

    def grads(self, u: Array, v: Array):
        return self.grad_u(u, v), self.grad_v(u, v)

    def value_and_grad_u(self, u: Array, v: Array):
        return self.value(u, v), self.grad_u(u, v)

    def value_and_grad_v(self, u: Array, v: Array):
        return self.value(u, v), self.grad_v(u, v)


def float_point_ok(game, u, v) -> bool:
    """Whether the one point (u, v) of game may be stepped as two Python
    floats: the game has the float form and no box, and u and v each
    hold one float64 coordinate.  A float32 point keeps arrays, since
    numpy promotes it to float64 after its first step."""
    return (game.float_form and game.domain is None
            and getattr(u, "shape", None) == (1,) and u.dtype == np.float64
            and getattr(v, "shape", None) == (1,) and v.dtype == np.float64)


def central_difference(fn: Callable[[Array], Array], x: Array,
                       direction: Array, step: float) -> Array:
    """(fn(x + step d) - fn(x - step d)) / (2 step) for d = direction,
    its two sides one parallel.run_pair, plus side first."""
    plus, minus = parallel.run_pair(lambda: fn(x + step * direction),
                                    lambda: fn(x - step * direction))
    return (plus - minus) / (2 * step)


def central_jacobian(fn: Callable[[Array], Array], x: Array,
                     steps: Array) -> Array:
    """Jacobian of the vector map fn at x: column j is central_difference
    along e_j with step steps[j], which must be positive and finite."""
    for s in steps:
        checked("finite-difference step", s, positive=True)
    return np.stack([central_difference(fn, x, e, s)
                     for e, s in zip(np.eye(x.size), steps)], axis=1)


def second_order_fd(game: GameOracle, p: JointPoint, h: float = 1e-5) -> HessianBlocks:
    """Central-difference Hessian blocks from the analytic gradients.

    The Jacobian of the joint gradient (grad_u, grad_v) over the joint
    vector, with steps h * max(1, |x_j|).  Diagonal blocks are
    symmetrized by averaging with their transpose; the cross blocks are
    averaged so that H_vu == H_uv^T exactly.
    """
    x = p.concat().astype(float)
    du = game.dim_u
    jac = central_jacobian(
        lambda y: np.concatenate(game.grads(y[:du], y[du:])), x,
        h * np.maximum(1.0, np.abs(x)))
    H_uu, H_uv = jac[:du, :du], jac[:du, du:]
    H_vu, H_vv = jac[du:, :du], jac[du:, du:]
    H_uu = 0.5 * (H_uu + H_uu.T)
    H_vv = 0.5 * (H_vv + H_vv.T)
    cross = 0.5 * (H_uv + H_vu.T)
    return H_uu, cross, cross.T, H_vv


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _over_batch(fn, u, v) -> Array:
    """fn(x, y) at each point of a (..., 1) batch pair, as a (...) array.

    The scalar callable runs on each point's Python floats, so every
    entry is bit-identical to the per-point call."""
    if u.shape != v.shape:
        raise ValueError(f"batched u and v must share one shape, got "
                         f"{u.shape} and {v.shape}")
    xs = np.ravel(u[..., 0]).tolist()
    ys = np.ravel(v[..., 0]).tolist()
    out = [fn(x, y) for x, y in zip(xs, ys)]
    return np.array(out, dtype=float).reshape(u.shape[:-1])


def _scalar_game(name, value, gx, gy, second=None, domain=None) -> GameOracle:
    """Wrap scalar callables f(x, y) into a 1-D/1-D oracle.

    u, v of shape (1,) are one point; u, v of one shape (..., 1) are a
    batch of points, with value shaped (...) and gradients (..., 1).
    value, the gradients and the Hessian blocks also take one point as
    two Python floats (float_form).
    """

    def _value(u, v):
        if isinstance(u, float):
            return float(value(u, v))
        if u.ndim > 1 or v.ndim > 1:
            return _over_batch(value, u, v)
        return float(value(float(u[0]), float(v[0])))

    def _grad_u(u, v):
        if isinstance(u, float):
            return gx(u, v)
        if u.ndim > 1 or v.ndim > 1:
            return _over_batch(gx, u, v)[..., None]
        return np.array([gx(float(u[0]), float(v[0]))], dtype=float)

    def _grad_v(u, v):
        if isinstance(u, float):
            return gy(u, v)
        if u.ndim > 1 or v.ndim > 1:
            return _over_batch(gy, u, v)[..., None]
        return np.array([gy(float(u[0]), float(v[0]))], dtype=float)

    second_order = None
    if second is not None:
        def second_order(u, v):
            if isinstance(u, float):
                huu, huv, hvv = second(u, v)
                return huu, huv, huv, hvv
            huu, huv, hvv = second(float(u[0]), float(v[0]))
            return (np.array([[huu]]), np.array([[huv]]),
                    np.array([[huv]]), np.array([[hvv]]))

    return GameOracle(name=name, dim_u=1, dim_v=1, value=_value,
                      grad_u=_grad_u, grad_v=_grad_v,
                      second_order=second_order, domain=domain,
                      float_form=True)


def make_bilinear(c: float) -> GameOracle:
    """The game c*x*y.  Pure rotation under simultaneous gradient play."""
    c = float(checked("bilinear coupling c", c, nonzero=True))
    return _scalar_game(
        f"bilinear:c={c:g}",
        value=lambda x, y: c * x * y,
        gx=lambda x, y: c * y,
        gy=lambda x, y: c * x,
        second=lambda x, y: (0.0, c, 0.0),
    )


def make_quadratic_f1() -> GameOracle:
    """-3x^2 - y^2 + 4xy: the origin is the minimax solution but plain
    simultaneous gradient play repels from it."""
    return _scalar_game(
        "f1",
        value=lambda x, y: -3 * x * x - y * y + 4 * x * y,
        gx=lambda x, y: -6 * x + 4 * y,
        gy=lambda x, y: -2 * y + 4 * x,
        second=lambda x, y: (-6.0, 4.0, -2.0),
    )


def make_quadratic_f2() -> GameOracle:
    """3x^2 + y^2 + 4xy: the origin is an undesired stationary point that
    simultaneous gradient play is attracted to."""
    return _scalar_game(
        "f2",
        value=lambda x, y: 3 * x * x + y * y + 4 * x * y,
        gx=lambda x, y: 6 * x + 4 * y,
        gy=lambda x, y: 2 * y + 4 * x,
        second=lambda x, y: (6.0, 4.0, 2.0),
    )


def _f3_parts(x, y):
    w = y - 3 * x + 0.05 * x ** 3
    poly = 4 * x * x - w * w - 0.1 * y ** 4
    env = math.exp(-0.01 * (x * x + y * y))
    return w, poly, env


def make_poly_f3() -> GameOracle:
    """Sixth-order polynomial saddle damped by a Gaussian envelope."""

    def value(x, y):
        _, poly, env = _f3_parts(x, y)
        return poly * env

    def gx(x, y):
        w, poly, env = _f3_parts(x, y)
        dpoly = 8 * x - 2 * w * (-3 + 0.15 * x * x)
        return env * (dpoly - 0.02 * x * poly)

    def gy(x, y):
        w, poly, env = _f3_parts(x, y)
        dpoly = -2 * w - 0.4 * y ** 3
        return env * (dpoly - 0.02 * y * poly)

    return _scalar_game("f3", value=value, gx=gx, gy=gy)


def make_motivation() -> GameOracle:
    """x^2 - y^2 + xy + 10 sin(5x) + 12 sin(3y) on [-10, 10]^2; a rugged
    saddle landscape used for landscape demos."""
    return _scalar_game(
        "motivation",
        value=lambda x, y: x * x - y * y + x * y + 10 * math.sin(5 * x) + 12 * math.sin(3 * y),
        gx=lambda x, y: 2 * x + y + 50 * math.cos(5 * x),
        gy=lambda x, y: -2 * y + x + 36 * math.cos(3 * y),
        second=lambda x, y: (2 - 250 * math.sin(5 * x), 1.0, -2 - 108 * math.sin(3 * y)),
        domain=Box.square(-10.0, 10.0),
    )


def piecewise_f(x: float) -> float:
    """C^1 piecewise ramp used by the nonconvex-nonconcave game."""
    if x < -HALF_PI:
        return -3.0 * (x + HALF_PI)
    if x <= HALF_PI:
        return -3.0 * math.cos(x)
    return -math.cos(x) + 2.0 * x - math.pi


def piecewise_f_grad(x: float) -> float:
    # one-sided limits agree at +-pi/2, so the gradient is continuous
    if x < -HALF_PI:
        return -3.0
    if x <= HALF_PI:
        return 3.0 * math.sin(x)
    return math.sin(x) + 2.0


def piecewise_f_hess(x: float) -> float:
    if x < -HALF_PI:
        return 0.0
    if x <= HALF_PI:
        return 3.0 * math.cos(x)
    return math.cos(x)


def make_ncnc(c: float, include_separable: bool = False) -> GameOracle:
    """Coupling term c*x*y, optionally plus the piecewise ramp F(x) as the
    min player's separable term.

    The literal formula F(x) + cxy - F(x) cancels to cxy, which is the
    default here; ``include_separable=True`` keeps the +F(x) reading.
    """
    c = float(checked("ncnc coupling c", c, nonzero=True))
    if include_separable not in (0, 1):
        raise ValueError(f"ncnc parameter sep must be 0 or 1, got "
                         f"{include_separable}")
    sep = 1.0 if include_separable else 0.0
    name = f"ncnc:c={c:g}" + (",sep=1" if include_separable else "")
    return _scalar_game(
        name,
        value=lambda x, y: c * x * y + sep * piecewise_f(x),
        gx=lambda x, y: c * y + sep * piecewise_f_grad(x),
        gy=lambda x, y: c * x,
        second=lambda x, y: (sep * piecewise_f_hess(x), c, 0.0),
    )


# ---------------------------------------------------------------------------
# named specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameSpec:
    """A catalog name plus its numeric parameters, e.g. bilinear:c=3."""

    name: str
    parameters: dict = field(default_factory=dict)


# name -> (constructor, required parameters, optional parameters as
# spec key -> constructor keyword)
_CATALOG = {
    "bilinear": (make_bilinear, ("c",), {}),
    "f1": (make_quadratic_f1, (), {}),
    "f2": (make_quadratic_f2, (), {}),
    "f3": (make_poly_f3, (), {}),
    "motivation": (make_motivation, (), {}),
    "ncnc": (make_ncnc, ("c",), {"sep": "include_separable"}),
}


def parse_game_spec(text: str) -> GameSpec:
    text = text.strip()
    name, _, rest = text.partition(":")
    if name not in _CATALOG:
        raise ValueError(f"unknown game {name!r}; known: {sorted(_CATALOG)}")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValueError(f"malformed game parameter {item!r} in {text!r}")
            if key in params:
                raise ValueError(f"game parameter {key!r} repeats in {text!r}")
            try:
                params[key] = float(val)
            except ValueError:
                raise ValueError(f"game parameter {key!r} in {text!r} is not "
                                 f"a number: {val.strip()!r}") from None
    return GameSpec(name=name, parameters=params)


def make_game(spec) -> GameOracle:
    """Construct a catalog game from a GameSpec or a spec string."""
    if isinstance(spec, str):
        spec = parse_game_spec(spec)
    ctor, required, optional = _CATALOG[spec.name]
    params = spec.parameters
    missing = [k for k in required if k not in params]
    if missing:
        raise ValueError(f"game {spec.name!r} needs parameters {missing}")
    extra = set(params) - set(required) - set(optional)
    if extra:
        raise ValueError(f"game {spec.name!r} got unknown parameters {sorted(extra)}")
    return ctor(**{optional.get(k, k): v for k, v in params.items()})
