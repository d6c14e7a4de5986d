"""The benchmark's three workloads, as lists of dgopt CLI calls.

A unit is one pass over a workload's job list at a fixed size; a run
repeats units until its time is spent.  Every input is derived from the
workload seed, and the program receives only the generated argv.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("mog_dg", "mog_baselines", "catalog")

# fixed sizes of one unit
MOG_N = 5000                  # protocol batch; dgopt mog has no flag for it
MOG_DG_ITERS = 10
MOG_BASELINE_ITERS = 30
MOG_BASELINES = ("gda", "eg", "co")
MOG_LR = "0.0002"
MOG_LOG_INTERVAL = "100"
TRAJ_STEPS = 500
TRAJ_ALGS = (("gda", ()), ("ogda", ()), ("eg", ()), ("sga", ()), ("co", ()),
             ("unrolled", ()), ("fr", ()),
             ("dg", ("--mode", "envelope")), ("dg", ("--mode", "unrolled")))
BILINEAR_ALGS = (("gda", ()), ("dg", ("--k", "1")), ("dg", ("--k", "10")))
LANDSCAPES = (("bilinear:c=3", "-1,1", "dg_approx"),
              ("motivation", "-10,10", "dg_exact"))
LANDSCAPE_RES = 101
RATE_DIM, RATE_FAMILY, RATE_TMAX, RATE_REPEATS = 10, 20, 100000, 1

OUTPUT_SUFFIXES = {
    "traj": (".csv", ".json"),
    "stability": (".json",),
    "landscape": (".csv", ".meta.json"),
    "rate": (".csv", ".json", "_sgd.csv", "_sgd.json"),
    "mog": (".csv", "_samples.csv", "_hist.csv"),
}


@dataclass
class Job:
    """One CLI call: its argv, output prefix and what it stands for."""

    name: str
    kind: str
    argv: list
    out: Path
    label: dict = field(default_factory=dict)

    def outputs(self) -> list:
        return [Path(f"{self.out}{s}") for s in OUTPUT_SUFFIXES[self.kind]]

    def work(self) -> int:
        """Work items completed: iterations, steps, nodes or samples
        (stability jobs are not counted in any throughput)."""
        if self.kind == "mog":
            return self.label["iters"]
        if self.kind == "traj":
            with open(f"{self.out}.json") as fh:
                return int(json.load(fh)["steps"])
        if self.kind == "landscape":
            return LANDSCAPE_RES * LANDSCAPE_RES
        return 2 * RATE_REPEATS * RATE_TMAX   # rate: both step rules


def _mog_job(alg: str, iters: int, seed: int, out_dir: Path, plot=True) -> Job:
    out = out_dir / f"mog_{alg}"
    argv = ["mog", "--alg", alg, "--k", "10", "--iters", str(iters),
            "--lr", MOG_LR, "--log-interval", MOG_LOG_INTERVAL,
            "--seed", str(seed), "--out", str(out)]
    if not plot:
        argv.append("--no-plot")
    return Job(f"mog_{alg}", "mog", argv, out,
               {"kind": "mog", "alg": alg, "iters": iters})


def _start_points(seed: int, count: int) -> list:
    """Start points at radius 0.25..1 around the origin, any direction."""
    rng = np.random.default_rng([seed % 2**32, 0x7A4])
    radius = rng.uniform(0.25, 1.0, size=count)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return [f"{float(r * np.cos(a))!r},{float(r * np.sin(a))!r}"
            for r, a in zip(radius, angle)]


def _catalog_jobs(seed: int, out_dir: Path) -> list:
    configs = [(g, alg, extra) for g in ("f1", "f2") for alg, extra in TRAJ_ALGS]
    configs += [(g, alg, extra) for g in ("bilinear:c=1", "bilinear:c=10")
                for alg, extra in BILINEAR_ALGS]
    jobs = []
    for (game, alg, extra), init in zip(configs, _start_points(seed, len(configs))):
        tag = f"{game.replace(':c=', 'c')}_{alg}{''.join(extra[1:])}"
        out = out_dir / f"traj_{tag}"
        argv = ["traj", "--game", game, "--alg", alg, *extra, f"--init={init}",
                "--steps", str(TRAJ_STEPS), "--seed", str(seed), "--out", str(out)]
        jobs.append(Job(f"traj_{tag}", "traj", argv, out,
                        {"kind": "traj", "game": game, "alg": alg,
                         "extra": list(extra), "init": init}))
    for game in ("f1", "f2"):
        for alg, extra in TRAJ_ALGS:
            tag = f"{game}_{alg}{''.join(extra[1:])}"
            out = out_dir / f"stab_{tag}"
            argv = ["stability", "--game", game, "--alg", alg, *extra,
                    "--point", "0,0", "--out", str(out)]
            jobs.append(Job(f"stab_{tag}", "stability", argv, out,
                            {"kind": "stability", "game": game, "alg": alg}))
    for game, box, measure in LANDSCAPES:
        out = out_dir / f"land_{measure}"
        argv = ["landscape", "--game", game, f"--box={box}", "--res",
                str(LANDSCAPE_RES), "--measure", measure, "--out", str(out)]
        jobs.append(Job(f"land_{measure}", "landscape", argv, out,
                        {"kind": "landscape", "game": game, "measure": measure}))
    out = out_dir / "rate"
    argv = ["rate", "--dim", str(RATE_DIM), "--family", str(RATE_FAMILY),
            "--Tmax", str(RATE_TMAX), "--repeats", str(RATE_REPEATS),
            "--seed", str(seed), "--out", str(out)]
    jobs.append(Job("rate", "rate", argv, out, {"kind": "rate"}))
    return jobs


def unit_jobs(workload: str, seed: int, out_dir: Path) -> list:
    """The job list of one unit of a workload."""
    if workload == "mog_dg":
        return [_mog_job("dg", MOG_DG_ITERS, seed, out_dir)]
    if workload == "mog_baselines":
        return [_mog_job(alg, MOG_BASELINE_ITERS, seed, out_dir)
                for alg in MOG_BASELINES]
    if workload == "catalog":
        return _catalog_jobs(seed, out_dir)
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def warmup_jobs(workload: str, seed: int, out_dir: Path) -> list:
    """Short untimed calls through the same code paths as a unit."""
    if workload == "mog_dg":
        return [_mog_job("dg", 1, seed, out_dir, plot=False)]
    if workload == "mog_baselines":
        return [_mog_job(alg, 1, seed, out_dir, plot=False)
                for alg in MOG_BASELINES]
    out = out_dir / "warm"
    return [Job("warm_traj", "traj",
                ["traj", "--game", "f1", "--alg", "dg", "--init", "0.5,0.5",
                 "--steps", "20", "--out", str(out)], out),
            Job("warm_land", "landscape",
                ["landscape", "--game", "bilinear:c=3", "--box=-1,1", "--res",
                 "11", "--measure", "dg_approx", "--out", str(out)], out),
            Job("warm_rate", "rate",
                ["rate", "--Tmax", "1000", "--repeats", "1", "--out", str(out)],
                out)]


def build_program_inputs(workload: str, seed: int):
    """Construct the inputs the program builds before its first step.

    Used by the set-up probe, so set-up time covers input generation.
    """
    from dgopt import games, mog, rates

    if workload in ("mog_dg", "mog_baselines"):
        return mog.MogGanGame(seed, n=MOG_N, dtype=np.float32).init_params()
    return ([games.make_game(g) for g in ("f1", "f2", "bilinear:c=1",
                                          "bilinear:c=10", "motivation")],
            rates.make_realizable_quadratic(RATE_DIM, RATE_FAMILY, seed))
