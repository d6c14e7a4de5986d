"""Stability analysis of update maps and duality-gap landscapes.

The one-step update map of any optimizer is linearized numerically at a
fixed point; the eigenvalues of that Jacobian decide local stability of
the discrete dynamics (spectral radius below one = locally attracting).
Jacobians are always numerical, even when closed forms exist.  The
closed-form DG update matrices, the bilinear box DG and the two-view
critical-point classifier are test references against these numerical
paths; they live in tests/game_helpers.py, since no command runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import dg as dgmod, outputs
from .games import (Array, Box, GameOracle, JointPoint, NonFiniteValueError,
                    central_jacobian, checked)
from .svgplot import finite_argmin

MARGINAL_TOL = 1e-9
FIXED_TOL = 1e-8

MEASURES = ("minimax_value", "dg_exact", "dg_approx")


class NotAFixedPointError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass
class StabilityReport:
    fixed_point: JointPoint
    jacobian: Array
    eigenvalues: list
    spectral_radius: float
    classification: str

    def to_json_dict(self) -> dict:
        return {
            "fixed_point": [float(x) for x in self.fixed_point.concat()],
            "jacobian": [float(x) for x in self.jacobian.ravel()],
            "eigenvalues": [{"re": float(ev.real), "im": float(ev.imag)}
                            for ev in self.eigenvalues],
            "spectral_radius": self.spectral_radius,
            "classification": self.classification,
        }

    def write_json(self, path):
        outputs.write_json(path, self.to_json_dict())


def eigenvalues_2x2(m: Array) -> list:
    """Exact eigenvalues of a real 2x2 matrix via trace and determinant."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        return [complex((tr + root) / 2.0), complex((tr - root) / 2.0)]
    root = math.sqrt(-disc)
    return [complex(tr / 2.0, root / 2.0), complex(tr / 2.0, -root / 2.0)]


def classify_radius(rho: float) -> str:
    if rho < 1.0 - MARGINAL_TOL:
        return "stable"
    if rho > 1.0 + MARGINAL_TOL:
        return "unstable"
    return "marginal"


def linearize(step_map: Callable[[JointPoint], tuple],
              fixed_point: JointPoint, h: float = 1e-6) -> StabilityReport:
    """Numerical Jacobian of a one-step map at a verified fixed point.

    step_map returns a tuple that starts with the next point, as the
    maps of optimizers.make_step_map (next point, DG value or None,
    gradient pair or None) and dg.dg_descent_step (next point, DG value)
    do; only the point is differentiated.  Column j comes from central
    differences along coordinate j of the joint vector; the point is
    fixed when one step moves it by at most FIXED_TOL.  Eigenvalues use
    the closed 2x2 form when possible and the QR solver otherwise.
    """
    checked("finite-difference step", h, positive=True)
    dim_u = len(fixed_point.u)
    x0 = fixed_point.concat()

    def apply(x: Array) -> Array:
        p = JointPoint.split(x, dim_u)
        return step_map(p)[0].concat()

    residual = float(np.linalg.norm(apply(x0) - x0))
    if residual > FIXED_TOL:
        raise NotAFixedPointError(
            f"point is not fixed under the map: residual {residual:.3e} "
            f"exceeds {FIXED_TOL:.1e}", residual=residual)

    jac = central_jacobian(apply, x0, np.full(x0.size, h))
    if not np.all(np.isfinite(jac)):
        raise NonFiniteValueError("non-finite Jacobian entry",
                                  point=fixed_point)

    if x0.size == 2:
        eigs = eigenvalues_2x2(jac)
    else:
        eigs = [complex(ev) for ev in np.linalg.eigvals(jac)]
    rho = max(abs(ev) for ev in eigs)
    return StabilityReport(fixed_point=fixed_point, jacobian=jac,
                           eigenvalues=eigs, spectral_radius=rho,
                           classification=classify_radius(rho))


# ---------------------------------------------------------------------------
# exact DG on a box and landscape grids
# ---------------------------------------------------------------------------


@dataclass
class LandscapeGrid:
    """Values of a scalar measure on a regular grid over a box.

    values[i, j] is the measure at (u_axis[i], v_axis[j]).
    """

    box: Box
    resolution: int
    measure: str
    u_axis: Array
    v_axis: Array
    values: Array

    def argmin_node(self):
        """(index, (u, v)) of the smallest finite value, by the heatmap
        marker's rule (svgplot.finite_argmin)."""
        idx = finite_argmin(self.values)
        if idx is None:
            raise ValueError(f"the {self.measure} grid has no finite value "
                             f"to take the argmin of")
        return idx, (float(self.u_axis[idx[0]]), float(self.v_axis[idx[1]]))

    def write_csv(self, path):
        outputs.write_csv(path, None, self.values.T)

    def write_sidecar(self, path):
        outputs.write_json(path, {
            "box": {"lo": [float(x) for x in self.box.lo],
                    "hi": [float(x) for x in self.box.hi]},
            "resolution": self.resolution,
            "measure": self.measure,
        })


def _box_axes(box: Box, resolution: int):
    u_axis = np.linspace(box.lo[0], box.hi[0], resolution)
    v_axis = np.linspace(box.lo[1], box.hi[1], resolution)
    return u_axis, v_axis


def value_grid(fn: Callable[[Array, Array], Array], u_axis, v_axis) -> Array:
    """fn(u, v) at every node (u_axis[i], v_axis[j]) of a 1-D/1-D grid.

    One call on the whole mesh: u and v are the (len(u_axis),
    len(v_axis), 1) batch of nodes, so fn must take a batched point
    (fn = game.value gives a catalog game's value grid)."""
    mesh_u, mesh_v = np.meshgrid(u_axis, v_axis, indexing="ij")
    return fn(mesh_u[..., None], mesh_v[..., None])


def grid_duality_gap(values: Array) -> Array:
    """Box duality gap at each node of values[..., i, j] = M(u_i, v_j):
    the max over the node's v row minus the min over its u column."""
    return (values.max(axis=-1)[..., :, None]
            - values.min(axis=-2)[..., None, :])


def landscape(game: GameOracle, box: Box, resolution: int, measure: str,
              dg_cfg: Optional[dgmod.DGConfig] = None) -> LandscapeGrid:
    """Evaluate a scalar measure at every grid node.

    minimax_value is the game's value.  dg_exact is the brute-force box
    duality gap of a 1-D/1-D game (grid_duality_gap of that value grid):
    each node's worst-case responses are searched among the grid's own
    nodes, so every entry is exactly non-negative.  dg_approx
    warm-starts the inner loop at each node, mirroring how the estimate
    is used inside training loops.  Every measure evaluates the whole
    grid in one batched call, so the game must take a batched point (the
    catalog's 1-D/1-D games do).
    """
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}")
    checked("grid resolution", resolution, at_least=1)
    if measure == "dg_exact":
        if game.dim_u != 1 or game.dim_v != 1:
            raise ValueError("exact-DG grids are defined for 1-D/1-D games")
        checked("exact-DG grid resolution", resolution, at_least=3)

    u_axis, v_axis = _box_axes(box, resolution)
    if measure == "minimax_value":
        values = value_grid(game.value, u_axis, v_axis)
    elif measure == "dg_exact":
        values = grid_duality_gap(value_grid(game.value, u_axis, v_axis))
    else:
        if dg_cfg is None:
            raise ValueError("dg_approx needs a DGConfig")
        values = value_grid(
            lambda u, v: dgmod.dg_metric(game, JointPoint(u, v), dg_cfg),
            u_axis, v_axis)
    return LandscapeGrid(box=box, resolution=resolution, measure=measure,
                         u_axis=u_axis, v_axis=v_axis, values=values)
