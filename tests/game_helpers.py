"""Reference code that only the tests use.

Game helpers (box membership, the catalog's game names), criterion 4's
closed-form DG update matrices and the bilinear box DG, a spot query of
the exact box DG that landscape's dg_exact grid searches, the two-view
critical-point classifier, criterion 6's approximate-realizability
family with its grid check, and the CSV cell rule cell by cell.  No command runs any of it: the closed
forms check dgopt's numerical paths, which are what the commands run.
"""

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from dgopt import dg as dgmod
from dgopt.dynamics import grid_duality_gap, linearize, value_grid
from dgopt.games import (_CATALOG, Array, GameOracle, JointPoint,
                         central_jacobian, checked)
from dgopt.rates import RealizableProblem, seeded_rng


def box_contains(box, x, tol: float = 0.0) -> bool:
    """Whether x lies in the box, each bound widened by tol."""
    return bool(np.all(x >= box.lo - tol) and np.all(x <= box.hi + tol))


def catalog_names() -> list:
    return sorted(_CATALOG)


def sample_value(problem: RealizableProblem, x: Array, z: int) -> float:
    """Member z's value Q_z(x) = 0.5 (x-x*)^T A_z (x-x*)."""
    e = x - problem.x_star
    return 0.5 * float(e @ problem.matrices[z] @ e)


# ---------------------------------------------------------------------------
# closed-form DG update matrices and box DG (criterion 4's oracles)
# ---------------------------------------------------------------------------


def bilinear_exact_dg(c: float, half_width: float, u: float, v: float) -> float:
    """Closed-form box DG of the bilinear game on [-a, a]^2."""
    a = float(half_width)
    return abs(c) * a * abs(u) + abs(c) * a * abs(v)


def exact_dg_query(game: GameOracle, box, resolution: int):
    """dg_fn(u, v): the box DG of a 1-D/1-D game at any point, its
    worst-case responses searched among the nodes of the axes that
    dynamics.landscape(game, box, resolution, "dg_exact") grids, so a
    query at a grid node gives that node's grid value."""
    u_axis = np.linspace(box.lo[0], box.hi[0], resolution)
    v_axis = np.linspace(box.lo[1], box.hi[1], resolution)

    def dg_fn(u: float, v: float) -> float:
        best_max = value_grid(game.value, [float(u)], v_axis).max()
        best_min = value_grid(game.value, u_axis, [float(v)]).min()
        return float(best_max - best_min)

    return dg_fn


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


# classify_critical_point's smallest step h: its nested central
# differences divide by (2h)**2, a normal float from here up
H_MIN = math.sqrt(sys.float_info.min)


def classify_critical_point(game: GameOracle, p: JointPoint, h: float = 1e-4,
                            dg_cfg: Optional[dgmod.DGConfig] = None,
                            grad_tol: float = 1e-6,
                            psd_tol: float = 1e-8) -> CriticalPointReport:
    """Classify a stationary point in the minimax and the DG views.

    Minimax view: a local equilibrium needs H_uu PSD for the minimizer
    and -H_vv PSD for the maximizer.  DG view (when a DGConfig is
    given): the numerical Hessian of the DG value map, the symmetrized
    central_jacobian of its central-difference gradient, labels the
    point min / max / saddle / degenerate.
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

    def q(x: Array) -> Array:
        est = dgmod.dg_estimate(game, JointPoint.split(x, game.dim_u),
                                dg_cfg)
        return np.array([est.value])

    x0 = p.concat()
    steps = np.full(x0.size, h)
    hess = central_jacobian(lambda x: central_jacobian(q, x, steps)[0],
                            x0, steps)
    hess = 0.5 * (hess + hess.T)
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
# approximate realizability on 1-D/1-D quadratic families (criterion 6)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticSaddle:
    """Convex-concave 0.5 a (u-p)^2 - 0.5 b (v-q)^2 + c (u-p)(v-q)."""

    a: float
    b: float
    c: float
    p: float
    q: float

    def value(self, u: float, v: float) -> float:
        du, dv = u - self.p, v - self.q
        return 0.5 * self.a * du * du - 0.5 * self.b * dv * dv + self.c * du * dv

    def box_dg(self, u: float, v: float, lo: float, hi: float) -> float:
        """Exact box DG via the clamped 1-D optima."""
        du = u - self.p
        v_opt = min(max(self.q + self.c * du / self.b, lo), hi)
        best_max = self.value(u, v_opt)
        dv = v - self.q
        u_opt = min(max(self.p - self.c * dv / self.a, lo), hi)
        best_min = self.value(u_opt, v)
        return best_max - best_min


def make_approx_realizable_family(epsilon: float, size: int, seed: int,
                                  lo: float = -1.0, hi: float = 1.0) -> list:
    """Family whose members are eps-approximate equilibria of (0, 0).

    Equilibrium offsets are scaled so the worst per-member DG at the
    shared point equals epsilon; the construction is then re-verified
    with the exact box DG and refuses to return a violating family.
    """
    checked("family size", size, at_least=1)
    checked("epsilon", epsilon, at_least=0)
    rng = seeded_rng(seed, "approx-realizable")
    members = []
    for _ in range(size):
        a = rng.uniform(1.0, 2.0)
        b = rng.uniform(1.0, 2.0)
        c = rng.uniform(0.3, 0.8)
        p = rng.uniform(-1.0, 1.0)
        q = rng.uniform(-1.0, 1.0)
        members.append(QuadraticSaddle(a=a, b=b, c=c, p=p, q=q))

    if epsilon == 0.0:
        members = [QuadraticSaddle(m.a, m.b, m.c, 0.0, 0.0) for m in members]
    else:
        # DG at the origin = 0.5 (a + c^2/b) p^2 + 0.5 (b + c^2/a) q^2 for
        # interior responses; scale all offsets so the max equals epsilon
        raw = [0.5 * (m.a + m.c ** 2 / m.b) * m.p ** 2
               + 0.5 * (m.b + m.c ** 2 / m.a) * m.q ** 2 for m in members]
        worst = max(raw)
        scale = math.sqrt(epsilon / worst) if worst > 0 else 0.0
        members = [QuadraticSaddle(m.a, m.b, m.c, scale * m.p, scale * m.q)
                   for m in members]

    verify_family_realizability(members, epsilon, lo=lo, hi=hi)
    return members


def verify_family_realizability(members, epsilon: float, point=(0.0, 0.0),
                                lo: float = -1.0, hi: float = 1.0):
    """Raise unless every member's box DG at the shared point is <= eps."""
    for i, m in enumerate(members):
        got = m.box_dg(point[0], point[1], lo, hi)
        if got > epsilon + 1e-9:
            raise RuntimeError(
                f"approximate-realizability construction failed: member {i} "
                f"has DG {got:.6g} > epsilon {epsilon:.6g} at the shared point")


@dataclass
class ApproxRealizabilityReport:
    epsilon: float
    minimizer: tuple
    expected_dg_at_min: float
    full_dg_at_min: float
    slack: float
    passed: bool


def check_approx_realizability(family: Sequence[QuadraticSaddle],
                               epsilon: float, resolution: int = 201,
                               lo: float = -1.0, hi: float = 1.0,
                               slack: float = 0.01) -> ApproxRealizabilityReport:
    """Grid version of the approximate-realizability argument.

    Finds the grid minimizer of the expected per-member box DG, then
    checks the full problem's box DG there is at most epsilon plus a
    curvature-scale grid slack.  Also verifies, node by node, that the
    full DG never exceeds the expected per-member DG (max of an average
    is at most the average of maxes).
    """
    checked("epsilon", epsilon, at_least=0)
    checked("slack", slack, at_least=0)
    checked("grid resolution", resolution, at_least=1)
    axis = np.linspace(lo, hi, resolution)

    # per-member value tables on the shared grid (value() broadcasts)
    grid_u, grid_v = np.meshgrid(axis, axis, indexing="ij")
    tables = np.stack([m.value(grid_u, grid_v) for m in family])

    expected_dg = grid_duality_gap(tables).mean(axis=0)
    full_dg = grid_duality_gap(tables.mean(axis=0))

    if np.any(full_dg > expected_dg + 1e-9):
        raise AssertionError("grid check of max-of-average <= average-of-max "
                             "failed; the value tables are inconsistent")

    i, j = np.unravel_index(int(np.argmin(expected_dg)), expected_dg.shape)
    minimizer = (float(axis[i]), float(axis[j]))
    exp_at_min = float(expected_dg[i, j])
    full_at_min = float(full_dg[i, j])
    passed = full_at_min <= epsilon + slack
    return ApproxRealizabilityReport(epsilon=epsilon, minimizer=minimizer,
                                     expected_dg_at_min=exp_at_min,
                                     full_dg_at_min=full_at_min,
                                     slack=slack, passed=passed)


# ---------------------------------------------------------------------------
# the CSV format, one cell at a time (outputs.write_csv's reference)
# ---------------------------------------------------------------------------

def csv_cell(x) -> str:
    """str(int(x)) for an integer (Python or numpy), empty for None, and
    repr(float(x)) otherwise."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def reference_csv_text(header, columns) -> str:
    """The text of a CSV whose row i holds entry i of each column, built
    row by row and cell by cell, after the header unless it is None."""
    rows = zip(*[list(column) for column in columns])
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(csv_cell(x) for x in row) for row in rows]
    return "".join(line + "\n" for line in lines)
