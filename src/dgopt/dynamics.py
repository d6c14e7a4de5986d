"""Stability analysis of update maps and duality-gap landscapes.

The one-step update map of any optimizer is linearized numerically at a
fixed point; the eigenvalues of that Jacobian decide local stability of
the discrete dynamics (spectral radius below one = locally attracting).
Jacobians are always numerical, even when closed forms exist; the
closed forms below serve as test oracles against the numerical path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import dg as dgmod, outputs
from .games import (Array, Box, GameOracle, JointPoint, NonFiniteValueError,
                    central_jacobian, checked)

MARGINAL_TOL = 1e-9

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


def classify_radius(rho: float, tol: float = MARGINAL_TOL) -> str:
    if rho < 1.0 - tol:
        return "stable"
    if rho > 1.0 + tol:
        return "unstable"
    return "marginal"


def linearize(step_map: Callable[[JointPoint], JointPoint],
              fixed_point: JointPoint, h: float = 1e-6,
              fixed_tol: float = 1e-8) -> StabilityReport:
    """Numerical Jacobian of a one-step map at a verified fixed point.

    Column j comes from central differences along coordinate j of the
    joint vector.  Eigenvalues use the closed 2x2 form when possible and
    the QR solver otherwise.
    """
    checked("finite-difference step", h, positive=True)
    checked("fixed-point tolerance fixed_tol", fixed_tol, at_least=0)
    dim_u = len(fixed_point.u)
    x0 = fixed_point.concat()

    def apply(x: Array) -> Array:
        p = JointPoint.split(x, dim_u)
        return step_map(p).concat()

    residual = float(np.linalg.norm(apply(x0) - x0))
    if residual > fixed_tol:
        raise NotAFixedPointError(
            f"point is not fixed under the map: residual {residual:.3e} "
            f"exceeds {fixed_tol:.1e}", residual=residual)

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
        idx = np.unravel_index(int(np.argmin(self.values)), self.values.shape)
        return idx, (float(self.u_axis[idx[0]]), float(self.v_axis[idx[1]]))

    def write_csv(self, path):
        outputs.write_csv(path, None, self.values.tolist())

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


def dg_exact_grid(game: GameOracle, box: Box, resolution: int):
    """Brute-force box duality gap for a 1-D/1-D game.

    Returns (dg_fn, grid): dg_fn(u, v) searches the same grid of
    candidate responses, so grid values and spot queries agree.  Grid
    entries are exactly non-negative because the node itself is among
    the candidates on both sides.
    """
    if game.dim_u != 1 or game.dim_v != 1:
        raise ValueError("exact-DG grids are defined for 1-D/1-D games")
    checked("exact-DG grid resolution", resolution, at_least=3)
    u_axis, v_axis = _box_axes(box, resolution)

    value_matrix = value_grid(game.value, u_axis, v_axis)
    row_max = value_matrix.max(axis=1)    # max over v' for each u
    col_min = value_matrix.min(axis=0)    # min over u' for each v
    grid_values = row_max[:, None] - col_min[None, :]

    def dg_fn(u: float, v: float) -> float:
        best_max = value_grid(game.value, [float(u)], v_axis).max()
        best_min = value_grid(game.value, u_axis, [float(v)]).min()
        return float(best_max - best_min)

    grid = LandscapeGrid(box=box, resolution=resolution, measure="dg_exact",
                         u_axis=u_axis, v_axis=v_axis, values=grid_values)
    return dg_fn, grid


def bilinear_exact_dg(c: float, half_width: float, u: float, v: float) -> float:
    """Closed-form box DG of the bilinear game on [-a, a]^2."""
    a = float(half_width)
    return abs(c) * a * abs(u) + abs(c) * a * abs(v)


def landscape(game: GameOracle, box: Box, resolution: int, measure: str,
              dg_cfg: Optional[dgmod.DGConfig] = None,
              eta: Optional[float] = None) -> LandscapeGrid:
    """Evaluate a scalar measure at every grid node.

    dg_approx warm-starts the inner loop at each node, mirroring how the
    estimate is used inside training loops.  Every measure evaluates
    the whole grid in one batched call, so the game must take a batched
    point (the catalog's 1-D/1-D games do).
    """
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}")
    checked("grid resolution", resolution, at_least=1)
    if measure == "dg_exact":
        _, grid = dg_exact_grid(game, box, resolution)
        return grid

    u_axis, v_axis = _box_axes(box, resolution)
    if measure == "minimax_value":
        values = value_grid(game.value, u_axis, v_axis)
    else:
        if dg_cfg is None:
            raise ValueError("dg_approx needs a DGConfig")
        gamma = dg_cfg.resolved_gamma(eta)
        values = value_grid(
            lambda u, v: dgmod.dg_metric(game, JointPoint(u, v), dg_cfg.k,
                                         gamma), u_axis, v_axis)
    return LandscapeGrid(box=box, resolution=resolution, measure=measure,
                         u_axis=u_axis, v_axis=v_axis, values=values)


# ---------------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------------


@dataclass
class CriticalPointReport:
    point: JointPoint
    grad_norm: float
    minimax_eigs_u: list          # eigenvalues of H_uu
    minimax_eigs_neg_v: list      # eigenvalues of -H_vv
    is_local_ne: bool
    dg_hessian: Optional[Array] = None
    dg_eigs: Optional[list] = None
    dg_label: Optional[str] = None


# classify_critical_point's smallest step h: its second differences
# divide by h * h, a normal float from here up (below, subnormal or 0)
H_MIN = math.sqrt(sys.float_info.min)


def classify_critical_point(game: GameOracle, p: JointPoint, h: float = 1e-4,
                            dg_cfg: Optional[dgmod.DGConfig] = None,
                            eta: Optional[float] = None,
                            grad_tol: float = 1e-6,
                            psd_tol: float = 1e-8) -> CriticalPointReport:
    """Classify a stationary point in the minimax and the DG views.

    Minimax view: a local equilibrium needs H_uu PSD for the minimizer
    and -H_vv PSD for the maximizer.  DG view (when a DGConfig is
    given): the numerical Hessian of the DG value map labels the point
    min / max / saddle / degenerate.
    """
    checked("finite-difference step h", h, at_least=H_MIN)
    checked("gradient tolerance grad_tol", grad_tol, positive=True)
    checked("PSD tolerance psd_tol", psd_tol, at_least=0)
    gnorm = float(np.linalg.norm(np.concatenate(game.grads(p.u, p.v))))
    if gnorm >= grad_tol:
        raise ValueError(f"not a critical point: joint gradient norm "
                         f"{gnorm:.3e} >= {grad_tol:.1e}")

    H_uu, _, _, H_vv = game.hessian_blocks(p)
    eigs_u = sorted(float(x) for x in np.linalg.eigvalsh(H_uu))
    eigs_nv = sorted(float(x) for x in np.linalg.eigvalsh(-H_vv))
    is_ne = eigs_u[0] >= -psd_tol and eigs_nv[0] >= -psd_tol

    report = CriticalPointReport(point=p, grad_norm=gnorm,
                                 minimax_eigs_u=eigs_u,
                                 minimax_eigs_neg_v=eigs_nv,
                                 is_local_ne=is_ne)
    if dg_cfg is None:
        return report

    gamma = dg_cfg.resolved_gamma(eta)

    def q(x: Array) -> float:
        pt = JointPoint.split(x, game.dim_u)
        return dgmod.dg_estimate(game, pt, dg_cfg, eta=gamma).value

    # q's own second-difference stencil: central_difference's would move bits
    x0 = p.concat()
    n = x0.size
    hess = np.zeros((n, n))
    q0 = q(x0)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        hess[i, i] = (q(x0 + ei) - 2.0 * q0 + q(x0 - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            cross = (q(x0 + ei + ej) - q(x0 + ei - ej)
                     - q(x0 - ei + ej) + q(x0 - ei - ej)) / (4.0 * h * h)
            hess[i, j] = cross
            hess[j, i] = cross
    dg_eigs = sorted(float(x) for x in np.linalg.eigvalsh(hess))
    if dg_eigs[0] > psd_tol:
        label = "min"
    elif dg_eigs[-1] < -psd_tol:
        label = "max"
    elif dg_eigs[0] < -psd_tol and dg_eigs[-1] > psd_tol:
        label = "saddle"
    else:
        label = "degenerate"
    report.dg_hessian = hess
    report.dg_eigs = dg_eigs
    report.dg_label = label
    return report


# ---------------------------------------------------------------------------
# closed-form DG update matrices (test oracles for the numerical path)
# ---------------------------------------------------------------------------


def dg_update_matrix_f1(eta: float) -> Array:
    """One-step matrix of unrolled DG descent (k=1, gamma=eta) on
    -3x^2 - y^2 + 4xy."""
    e = float(checked("step size eta", eta, positive=True))
    off = 64 * e * e * (2 * e + 1)
    return np.array([[1 - 8 * e * e * (23 * e + 13), off],
                     [off, 1 - 8 * e * e * (11 * e + 5)]])


def dg_update_matrix_f2(eta: float) -> Array:
    """Same map for 3x^2 + y^2 + 4xy."""
    e = float(checked("step size eta", eta, positive=True))
    off = 64 * e * e * (2 * e - 1)
    return np.array([[1 + 8 * e * e * (23 * e - 13), off],
                     [off, 1 + 8 * e * e * (11 * e - 5)]])


def verify_dg_update_matrix(game: GameOracle, closed_form: Array, eta: float,
                            tol: float = 1e-8) -> float:
    """Max entrywise gap between the closed form and the linearized map.

    Raises if the gap exceeds tol; returns the gap otherwise.
    """
    cfg = dgmod.DGConfig(k=1, gamma=eta, grad_mode="unrolled")
    origin = JointPoint.of(0.0, 0.0)
    report = linearize(lambda p: dgmod.dg_descent_step(game, p, cfg, eta),
                       origin)
    gap = float(np.max(np.abs(report.jacobian - closed_form)))
    if gap > tol:
        raise AssertionError(
            f"closed-form DG update matrix disagrees with the linearized "
            f"map by {gap:.3e} at eta={eta}")
    return gap
