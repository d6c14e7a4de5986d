"""Output checks applied to every job of every unit.

A job fails when the CLI call raises or exits non-zero, when an output
holds a non-finite number, when a MoG run reports anything but
``status ok``, or when an output disagrees with what it must be:

* for the seeds in ``reference.json``, the outputs recorded from the
  commit that defined this benchmark: catalog files byte for byte, MoG
  logs and sample statistics within ``MOG_RTOL``/``MOG_ATOL``;
* for every seed, a repeat unit within the run must reproduce the first
  unit's outputs the same way;
* for every seed, closed forms the outputs must satisfy (see
  ``_invariants``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import workloads

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# float32 MoG training may legitimately differ in the last bits when a
# change reorders reductions: summing the head's weight gradient in another
# order moves the logged values of a 10-iteration dg run by at most 6e-8
# absolute.  Scaling the real-data gradient by 5000/5001 moves grad_v_norm
# by 2.8e-5 relative, which these bounds reject.
MOG_RTOL = 1e-5
MOG_ATOL = 1e-6
TRAJ_CLASSES = ("converged", "diverged", "non_convergent")

# closed-form Hessian blocks (H_uu, H_uv, H_vv) of the linear catalog games
LINEAR_GAMES = {"f1": (-6.0, 4.0, -2.0), "f2": (6.0, 4.0, 2.0),
                "bilinear:c=1": (0.0, 1.0, 0.0),
                "bilinear:c=10": (0.0, 10.0, 0.0)}
DEFAULT_ETA = 0.05


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def job_digest(job) -> str:
    h = hashlib.sha256()
    for path in job.outputs():
        h.update(path.name.encode() + b"\0" + Path(path).read_bytes() + b"\0")
    return h.hexdigest()[:16]


def read_rows(path, allow_empty=False) -> list:
    """Numeric CSV rows (header skipped when present), checked finite."""
    rows = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if i == 0 and row and not _is_number(row[0]):
                continue
            vals = [math.nan if (allow_empty and x == "") else float(x)
                    for x in row]
            if any(not math.isfinite(v) for v, x in zip(vals, row) if x != ""):
                raise ValueError(f"non-finite value in {Path(path).name} row {i}")
            rows.append(vals)
    return rows


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def mog_summary(job) -> dict:
    """What a MoG job is compared on: its log and its sample statistics."""
    log = read_rows(f"{job.out}.csv")
    samples = np.array([r[0] for r in read_rows(f"{job.out}_samples.csv")])
    return {"log": log,
            "samples": [float(samples.mean()), float(samples.std()),
                        float(samples.min()), float(samples.max()),
                        float(np.median(samples))]}


def _mog_mismatch(got: dict, want: dict):
    a = np.array(got["log"], dtype=float)
    b = np.array(want["log"], dtype=float)
    if a.shape != b.shape:
        return f"log shape {a.shape} != {b.shape}"
    if not np.allclose(a, b, rtol=MOG_RTOL, atol=MOG_ATOL):
        bad = np.argwhere(~np.isclose(a, b, rtol=MOG_RTOL, atol=MOG_ATOL))[0]
        return (f"log row {bad[0]} col {bad[1]}: {a[tuple(bad)]!r} "
                f"!= {b[tuple(bad)]!r}")
    if not np.allclose(got["samples"], want["samples"], rtol=MOG_RTOL,
                       atol=MOG_ATOL):
        return f"sample stats {got['samples']} != {want['samples']}"
    return None


def signature(job):
    """What must repeat exactly (catalog) or within tolerance (MoG)."""
    return mog_summary(job) if job.kind == "mog" else job_digest(job)


def signatures_differ(job, got, want):
    if job.kind == "mog":
        return _mog_mismatch(got, want)
    return None if got == want else f"digest {got} != {want}"


class Checker:
    """Checks one run's jobs; remembers the first unit for repeat checks."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        ref = load_reference().get(workload, {})
        self.reference = ref.get(str(seed))
        self.first_unit = {}
        self._mog_value0 = None

    def check(self, job, result) -> list:
        """Failure messages for one finished job (empty when it passed)."""
        if result.error is not None:
            return [f"{job.name}: raised {result.error}"]
        if result.rc != 0:
            return [f"{job.name}: exit code {result.rc}: {result.stderr.strip()}"]
        try:
            problems = self._invariants(job, result)
            sig = signature(job)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{job.name}: unreadable output: {exc}"]
        seen = self.first_unit.setdefault(job.name, sig)
        if seen is not sig:
            diff = signatures_differ(job, sig, seen)
            if diff:
                problems.append(f"repeat differs from first unit: {diff}")
        if self.reference is not None:
            want = self.reference.get(job.name)
            if want is None:
                problems.append("no recorded output for this job")
            else:
                diff = signatures_differ(job, sig, want)
                if diff:
                    problems.append(f"differs from recorded output: {diff}")
        return [f"{job.name}: {p}" for p in problems]

    # -- per-kind closed-form checks ----------------------------------------

    def _invariants(self, job, result) -> list:
        return getattr(self, f"_check_{job.kind}")(job, result)

    def _check_mog(self, job, result):
        problems = []
        if "status ok" not in result.stdout:
            problems.append(f"status not ok: {result.stdout.strip()!r}")
        log = read_rows(f"{job.out}.csv")
        iters = job.label["iters"]
        want_iters = sorted({0, iters, *range(0, iters + 1,
                                             int(workloads.MOG_LOG_INTERVAL))})
        if [int(r[0]) for r in log] != want_iters:
            problems.append(f"log iterations {[int(r[0]) for r in log]}")
        for r in log:
            if not all(0.0 <= x <= 1.0 for x in r[5:10]):
                problems.append(f"mode fraction or median outside [0, 1] at "
                                f"iter {int(r[0])}")
        samples = read_rows(f"{job.out}_samples.csv")
        # bin edges are written as numpy reprs; only the counts are numbers
        with open(f"{job.out}_hist.csv") as fh:
            counts = [int(line.rsplit(",", 1)[1]) for line in fh.readlines()[1:]]
        if len(samples) != 1000 or sum(counts) > 1000:
            problems.append("sample or histogram counts wrong")
        if self._mog_value0 is None:
            self._mog_value0 = reference_mog_value(self.seed)
        if not math.isclose(log[0][1], self._mog_value0, rel_tol=1e-4):
            problems.append(f"initial objective {log[0][1]!r} != float64 "
                            f"reference {self._mog_value0!r}")
        return problems

    def _check_traj(self, job, result):
        problems = []
        rows = read_rows(f"{job.out}.csv", allow_empty=True)
        with open(f"{job.out}.json") as fh:
            summary = json.load(fh)
        init = [float(x) for x in job.label["init"].split(",")]
        if rows[0][1:3] != init:
            problems.append(f"first row {rows[0][1:3]} is not the start {init}")
        if summary["classification"] not in TRAJ_CLASSES:
            problems.append(f"classification {summary['classification']!r}")
        if summary["steps"] != int(rows[-1][0]) or len(rows) != summary["steps"] + 1:
            problems.append("summary steps disagree with the CSV")
        if job.label["alg"] == "gda":
            # gda on a quadratic game is linear: p_t = J^t p_0
            t = int(rows[-1][0])
            want = np.linalg.matrix_power(gda_jacobian(job.label["game"]), t) @ init
            got = np.array(rows[-1][1:3])
            if not np.allclose(got, want, rtol=1e-7,
                               atol=1e-9 * max(1.0, float(np.abs(want).max()))):
                problems.append(f"gda iterate {got} != closed form {want}")
        return problems

    def _check_stability(self, job, result):
        with open(f"{job.out}.json") as fh:
            report = json.load(fh)
        if not math.isfinite(report["spectral_radius"]):
            return ["non-finite spectral radius"]
        if job.label["alg"] == "gda":
            want = max(abs(np.linalg.eigvals(gda_jacobian(job.label["game"]))))
            if not math.isclose(report["spectral_radius"], want, rel_tol=1e-6):
                return [f"gda spectral radius {report['spectral_radius']!r} "
                        f"!= closed form {want!r}"]
        return []

    def _check_landscape(self, job, result):
        grid = np.array(read_rows(f"{job.out}.csv"))
        res = workloads.LANDSCAPE_RES
        if grid.shape != (res, res):
            return [f"grid shape {grid.shape}"]
        if job.label["measure"] == "dg_exact" and grid.min() < 0.0:
            return ["negative exact duality gap"]
        if job.label["measure"] == "dg_approx":
            # bilinear c=3, k=10 warm-started steps of size eta:
            # DG_k(u, v) = k * eta * c^2 * (u^2 + v^2)
            axis = np.linspace(-1.0, 1.0, res)
            want = 10 * DEFAULT_ETA * 9.0 * (axis[:, None] ** 2 + axis[None, :] ** 2)
            if not np.allclose(grid, want, rtol=1e-9, atol=1e-12):
                return ["dg_approx grid differs from its closed form"]
        return []

    def _check_rate(self, job, result):
        problems = []
        for suffix in ("", "_sgd"):
            rows = read_rows(f"{job.out}{suffix}.csv")
            ts = [int(r[0]) for r in rows]
            if ts[0] != 100 or ts[-1] != workloads.RATE_TMAX or ts != sorted(set(ts)):
                problems.append(f"logged T values {ts}")
            if any(r[1] < 0 or r[2] < 0 for r in rows):
                problems.append("negative error statistic")
            with open(f"{job.out}{suffix}.json") as fh:
                if not math.isfinite(json.load(fh)["slope"]):
                    problems.append("non-finite slope")
        return problems


def gda_jacobian(game: str, eta: float = DEFAULT_ETA) -> np.ndarray:
    huu, huv, hvv = LINEAR_GAMES[game]
    return np.array([[1.0 - eta * huu, -eta * huv],
                     [eta * huv, 1.0 + eta * hvv]])


def reference_mog_value(seed: int) -> float:
    """The GAN objective at the initial parameters, in float64, written
    independently of dgopt.mog's passes (only the inputs come from it)."""
    from dgopt import mog

    game = mog.MogGanGame(seed, n=workloads.MOG_N, dtype=np.float32)
    u, v = (p.astype(np.float64) for p in game.init_params())

    def forward(params, x, sizes):
        off = 0
        for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            w = params[off:off + fan_in * fan_out].reshape(fan_in, fan_out)
            off += fan_in * fan_out
            x = x @ w + params[off:off + fan_out]
            off += fan_out
            if layer < len(sizes) - 2:
                x = np.tanh(x)
        return x[:, 0]

    fake = forward(u, game.noise.astype(np.float64), (16, 64, 64, 1))
    real = game.data.astype(np.float64)

    def prob(x):
        p = 1.0 / (1.0 + np.exp(-forward(v, x[:, None], (1, 64, 64, 1))))
        return np.clip(p, 1e-7, 1.0 - 1e-7)

    return float(np.mean(np.log(prob(real))) + np.mean(np.log(1.0 - prob(fake))))
