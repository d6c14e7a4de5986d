"""In-memory span tracer that patches dgopt's public functions in place.

Each patched callable is replaced, at the name where its callers look it
up, by a wrapper that records one span: name, start, end, parent span
and job id (one CLI call is one job).  Spans live in flat typed arrays
so a traced catalog unit (about a million spans) stays small; they are
written out once, when the run ends.  ``Tracer.install`` applies every
patch and ``Tracer.uninstall`` restores the originals, so untraced units
in the same process run the unmodified program.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.jobs = []            # job id -> label dict
        self._stack = []
        self._job = [-1]
        self._patches = []
        self._training_noise = []
        self._open_log = []       # [span index, disc_outputs calls left]

    # -- span recording ----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job[0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        now = time.perf_counter()
        # spans left open by an exception end with their enclosing span
        while self._stack and self._stack[-1] != idx:
            self.end[self._stack.pop()] = now
        if self._stack:
            self._stack.pop()
        self.end[idx] = now

    def begin_job(self, label: dict) -> int:
        self._job[0] = len(self.jobs)
        self.jobs.append(label)
        return self.open(self.name_id("job"))

    def end_job(self, idx: int):
        self.close(idx)
        self._open_log.clear()
        self._training_noise.clear()
        self._job[0] = -1

    def wrap(self, name: str, fn):
        # open/close inlined, since this runs around every traced call
        nid = self.name_id(name)
        start, end, names = self.start, self.end, self.name
        parent, job, stack, cur_job = self.parent, self.job, self._stack, self._job
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            start.append(perf())
            end.append(0.0)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(cur_job[0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                now = perf()
                while stack:
                    top = stack.pop()
                    end[top] = now
                    if top == idx:
                        break

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_traced(self, owner, attr: str, name: str):
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        """Patch every public entry point the CLI reaches."""
        from dgopt import (cli, dg, dynamics, games, mog, optimizers, rates,
                           svgplot)

        # mog: oracle methods on the class, MLP passes where mog looks
        # them up, and the periodic log row as one span
        for meth in ("value", "grad_u", "grad_v", "eval_samples"):
            self.patch_traced(mog.MogGanGame, meth, f"mog.{meth}")
        self._patch_mog_init(mog)
        self._patch_mlp(mog)
        self._patch_mog_log(mog)

        # dg: module attributes, which is where dg itself and its callers
        # (mog, optimizers, dynamics) look them up
        for fn in ("dg_estimate", "worst_case_responses", "dg_metric"):
            self.patch_traced(dg, fn, f"dg.{fn}")

        # games: the GameOracle callables of every game the CLI builds
        self.patch_traced(games.GameOracle, "hessian_blocks",
                          "games.hessian_blocks")
        make_game = cli.make_game
        wrap = self.wrap

        def traced_make_game(spec):
            game = make_game(spec)
            return dataclasses.replace(
                game, value=wrap("games.value", game.value),
                grad_u=wrap("games.grad_u", game.grad_u),
                grad_v=wrap("games.grad_v", game.grad_v))

        self.patch(cli, "make_game", traced_make_game)

        # optimizers: the step map make_step_map hands out, and the runner
        make_step_map = optimizers.make_step_map

        def traced_make_step_map(game, cfg):
            return wrap("optimizers.step", make_step_map(game, cfg))

        self.patch(optimizers, "make_step_map", traced_make_step_map)
        self.patch_traced(optimizers, "run_trajectory",
                          "optimizers.run_trajectory")

        # dynamics
        self.patch_traced(dynamics, "landscape", "dynamics.landscape")
        self.patch_traced(dynamics, "linearize", "dynamics.linearize")

        # rates: rates imported adagrad_step by name, so patch it there
        self.patch_traced(rates.RealizableProblem, "sample_grad",
                          "rates.sample_grad")
        self.patch_traced(rates, "adagrad_step", "rates.adagrad_step")
        self.patch_traced(rates, "run_adagrad_rate", "rates.run")
        self.patch_traced(rates, "run_sgd_baseline", "rates.run")

        # output writers and figures
        for owner, meths in ((optimizers.Trajectory, ("write_csv", "write_summary")),
                             (dynamics.LandscapeGrid, ("write_csv", "write_sidecar")),
                             (dynamics.StabilityReport, ("write_json",)),
                             (rates.RateResult, ("write_csv", "write_json")),
                             (mog.MogTrainingLog, ("write_csv", "write_samples_csv",
                                                   "write_histogram_csv"))):
            for meth in meths:
                self.patch_traced(owner, meth, "cli.outputs")
        for fn in ("heatmap", "line_chart"):
            self.patch_traced(svgplot, fn, "svgplot")
        self.patch_traced(svgplot.SvgCanvas, "save", "svgplot")
        for meth in ("__init__", "polyline", "marker"):
            self.patch_traced(svgplot.Axes, meth, "svgplot")

    def _patch_mog_init(self, mog):
        init = mog.MogGanGame.__init__
        noise = self._training_noise
        traced_init = self.wrap("mog.setup", init)

        @functools.wraps(init)
        def patched(game, *args, **kwargs):
            traced_init(game, *args, **kwargs)
            noise.append(game.noise)

        self.patch(mog.MogGanGame, "__init__", patched)

    def _patch_mlp(self, mog):
        g_layout = mog.G_LAYOUT
        noise = self._training_noise
        for fn, base in (("mlp_forward", "mog.mlp_forward"),
                         ("mlp_backward", "mog.mlp_backward")):
            orig = getattr(mog, fn)
            on_g = self.wrap(f"{base}.g", orig)
            on_d = self.wrap(f"{base}.d", orig)
            if fn == "mlp_forward":
                on_g_train = self.wrap(f"{base}.g.train_noise", orig)

                def dispatch(layout, params, x, *rest, _g=on_g, _d=on_d,
                             _gt=on_g_train):
                    if layout is not g_layout:
                        return _d(layout, params, x, *rest)
                    if any(x is z for z in noise):
                        return _gt(layout, params, x, *rest)
                    return _g(layout, params, x, *rest)
            else:
                def dispatch(layout, *rest, _g=on_g, _d=on_d):
                    return (_g if layout is g_layout else _d)(layout, *rest)
            self.patch(mog, fn, functools.wraps(orig)(dispatch))

    def _patch_mog_log(self, mog):
        """One ``mog.log`` span per log row of train_mog.

        A log row starts with value_and_grads, which training never
        calls otherwise, and ends with its second disc_outputs call; the
        span stays open in between so the row's oracle calls nest in it.
        """
        log_nid = self.name_id("mog.log")
        pending = self._open_log
        vag = self.wrap("mog.value_and_grads", mog.MogGanGame.value_and_grads)
        disc = self.wrap("mog.disc_outputs", mog.MogGanGame.disc_outputs)

        def traced_vag(game, u, v):
            pending[:] = [self.open(log_nid), 2]
            return vag(game, u, v)

        def traced_disc(game, v, x):
            out = disc(game, v, x)
            if pending:
                pending[1] -= 1
                if pending[1] == 0:
                    self.close(pending[0])
                    pending.clear()
            return out

        self.patch(mog.MogGanGame, "value_and_grads", traced_vag)
        self.patch(mog.MogGanGame, "disc_outputs", traced_disc)

    # -- export ------------------------------------------------------------

    def arrays(self) -> "SpanArrays":
        return SpanArrays(
            names=list(self.names),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            job=np.frombuffer(self.job, dtype=np.int32).copy(),
            jobs=list(self.jobs))


@dataclasses.dataclass
class SpanArrays:
    """Recorded spans as numpy columns, with the queries layers need."""

    names: list
    start: np.ndarray
    end: np.ndarray
    name: np.ndarray
    parent: np.ndarray
    job: np.ndarray
    jobs: list

    @property
    def dur(self) -> np.ndarray:
        return self.end - self.start

    def is_name(self, *names) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def prefix(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.name, ids)

    def has_ancestor(self, mask: np.ndarray) -> np.ndarray:
        """True where some strict ancestor of the span is in mask.

        Parents precede children, so repeated one-level propagation
        converges within the nesting depth.
        """
        has_parent = self.parent >= 0
        par = np.where(has_parent, self.parent, 0)
        anc = np.zeros(len(self.name), dtype=bool)
        while True:
            nxt = has_parent & (anc[par] | mask[par])
            if np.array_equal(nxt, anc):
                return anc
            anc = nxt

    def child_time(self) -> np.ndarray:
        """Summed duration of each span's direct children."""
        out = np.zeros(len(self.name))
        kids = self.parent >= 0
        np.add.at(out, self.parent[kids], self.dur[kids])
        return out

    def busy(self, mask: np.ndarray) -> float:
        """Time covered by the spans in mask, counting nested ones once."""
        outer = mask & ~self.has_ancestor(mask)
        return float(self.dur[outer].sum())

    def job_mask(self, **match) -> np.ndarray:
        ids = [i for i, label in enumerate(self.jobs)
               if all(label.get(k) == v for k, v in match.items())]
        return np.isin(self.job, ids)

    def save(self, path):
        np.savez(path, start=self.start, end=self.end, name=self.name,
                 parent=self.parent, job=self.job,
                 names=np.array(self.names),
                 jobs=np.array([repr(j) for j in self.jobs]))
