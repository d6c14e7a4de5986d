"""Saturating-loss GAN on a three-mode 1-D Gaussian mixture, full batch.

Generator 16 -> 64 -> 64 -> 1 and discriminator 1 -> 64 -> 64 -> 1, both
tanh MLPs, trained on one fixed batch of 5000 points with hand-written
reverse-mode backprop.  The game objective is

    M(u, v) = mean_i [ log D_v(x_i) + log(1 - D_v(G_u(z_i))) ]

which the discriminator ascends and the generator descends.  The module
exposes the game through the same oracle interface as the analytic
catalog, so the duality-gap machinery applies unchanged.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dg as dgmod
from . import optimizers
from .games import JointPoint, NonFiniteValueError, checked
from .optimizers import OptimizerConfig, _checked_grads
from .rates import seeded_rng

MODE_CENTERS = (-4.0, 0.0, 4.0)
MODE_STD = 0.1
NOISE_DIM = 16
HIDDEN = 64
PROB_EPS = 1e-7
HIST_BINS = 121
HIST_RANGE = (-6.0, 6.0)


def sample_dataset(seed: int, n: int = 5000) -> np.ndarray:
    """n mixture draws: a uniformly chosen center plus N(0, 0.01) noise."""
    rng = seeded_rng(seed, "mog-dataset")
    centers = rng.integers(0, len(MODE_CENTERS), size=n)
    return (np.asarray(MODE_CENTERS)[centers]
            + MODE_STD * rng.standard_normal(n))


def mode_coverage(samples, centers=MODE_CENTERS, window: float = 0.5):
    """Fraction of samples within +-window of each center."""
    checked("coverage window", window, positive=True)
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empty sample set")
    return tuple(float(np.mean(np.abs(samples - c) <= window))
                 for c in centers)


def stable_sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)) for t >= 0 and exp(t) / (1 + exp(t)) below, so
    exp never overflows; -|t| is -t or t exactly."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# flat-parameter MLPs
# ---------------------------------------------------------------------------


class MLPLayout:
    """Shape bookkeeping for a tanh MLP stored as one flat vector."""

    def __init__(self, sizes):
        self.sizes = tuple(sizes)
        self.slices = []
        offset = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = (offset, offset + fan_in * fan_out, (fan_in, fan_out))
            offset = w[1]
            b = (offset, offset + fan_out, (fan_out,))
            offset = b[1]
            self.slices.append((w, b))
        self.dim = offset

    def unpack(self, params: np.ndarray):
        layers = []
        for (w0, w1, wshape), (b0, b1, bshape) in self.slices:
            layers.append((params[w0:w1].reshape(wshape), params[b0:b1]))
        return layers

    def init(self, rng: np.random.Generator, dtype) -> np.ndarray:
        """Uniform +-sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
        params = np.zeros(self.dim, dtype=dtype)
        layers = self.unpack(params)
        for w, _ in layers:
            fan_in, fan_out = w.shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            w[:] = rng.uniform(-bound, bound, size=w.shape).astype(dtype)
        return params


G_LAYOUT = MLPLayout((NOISE_DIM, HIDDEN, HIDDEN, 1))
D_LAYOUT = MLPLayout((1, HIDDEN, HIDDEN, 1))


def mlp_forward(layout: MLPLayout, params, x, hidden=None):
    """Forward pass with tanh hiddens and a linear head.

    Returns the (n,) output and the activation stack for backprop.  The
    hidden activations are written into ``hidden`` (one (n, width)
    buffer per hidden layer) when given, else into fresh arrays; the
    output is always fresh.  A width-1 input layer is an outer product,
    so it broadcasts instead of calling BLAS.
    """
    layers = layout.unpack(params)
    acts = [x]
    h = x
    for i, (w, b) in enumerate(layers[:-1]):
        t = None if hidden is None else hidden[i]
        t = (np.multiply(h, w, out=t) if w.shape[0] == 1
             else np.matmul(h, w, out=t))
        t += b
        np.tanh(t, out=t)
        acts.append(t)
        h = t
    w, b = layers[-1]
    out = h @ w
    out += b
    return out[:, 0], acts


def _through_weights(g, w, out=None):
    """g @ w.T, broadcast as an outer product when w has one column."""
    if w.shape[1] == 1:
        return np.multiply(g, w[:, 0], out=out)
    return np.matmul(g, w.T, out=out)


def mlp_backward(layout: MLPLayout, params, acts, dout, dtype,
                 param_grads=True, input_grad=True, scratch=None):
    """Gradients of sum(dout * output) w.r.t. params and the input.

    Returns (param gradient, input gradient), each None when not asked
    for; both are fresh arrays.  The pass consumes ``acts``: it
    overwrites the hidden activations (never ``acts[0]``, the input)
    with the backpropagated signal, so they must come from a forward
    pass nobody reuses.  The signal through each weight matrix goes
    into ``scratch`` (an (n, width) buffer) when given, else into one
    fresh array.
    """
    layers = layout.unpack(params)
    grad = np.zeros(layout.dim, dtype=dtype) if param_grads else None
    glayers = layout.unpack(grad) if param_grads else None
    g = dout.astype(dtype, copy=False)[:, None]
    spare = scratch
    for idx in range(len(layers) - 1, -1, -1):
        w = layers[idx][0]
        if param_grads:
            gw, gb = glayers[idx]
            gw[:] = acts[idx].T @ g
            gb[:] = g.sum(axis=0)
        if idx == 0:
            return grad, (_through_weights(g, w) if input_grad else None)
        # through the weights, then the tanh whose output is acts[idx]
        if spare is not None and spare.shape[1] != w.shape[0]:
            spare = None
        up = _through_weights(g, w, spare)
        h = acts[idx]
        np.square(h, out=h)
        np.subtract(1.0, h, out=h)
        h *= up
        spare, g = up, h


# ---------------------------------------------------------------------------
# the GAN game
# ---------------------------------------------------------------------------


class MogGanGame:
    """Full-batch saturating GAN objective as a two-player game oracle.

    The dataset and the generator noise are drawn once at construction,
    so value and gradients are deterministic functions of (u, v).
    """

    def __init__(self, seed: int, n: int = 5000, dtype=np.float64):
        self.seed = seed
        self.n = checked("batch size n", n, at_least=1)
        self.dtype = np.dtype(dtype)
        self.name = f"mog:seed={seed}"
        self.dim_u = G_LAYOUT.dim
        self.dim_v = D_LAYOUT.dim
        self.domain = None
        self.data = sample_dataset(seed, n).astype(self.dtype)
        rng = seeded_rng(seed, "mog-train-noise")
        self.noise = rng.standard_normal((n, NOISE_DIM)).astype(self.dtype)
        eval_rng = seeded_rng(seed, "mog-eval-noise")
        self.eval_noise = eval_rng.standard_normal((1000, NOISE_DIM)).astype(self.dtype)
        # each thread's pass buffers and last generator pass (see _fake)
        self._ws = threading.local()

    def init_params(self):
        u = G_LAYOUT.init(seeded_rng(self.seed, "mog-init-g"), self.dtype)
        v = D_LAYOUT.init(seeded_rng(self.seed, "mog-init-d"), self.dtype)
        return u, v

    # -- generator / discriminator passes ---------------------------------

    def _buffers(self, name, rows, dtype):
        """(rows, HIDDEN) views of this thread's buffers, reused from call
        to call so that a warm call maps no new memory; None (fresh
        arrays) for a pass outside the game's dtype.

        "g" is G's two hidden layers on the training noise; "d" is the
        two hidden layers of every other pass plus the backprop scratch,
        sized for the largest batch seen (at least the 2n real+fake rows).
        """
        if dtype != self.dtype:
            return None
        bufs = getattr(self._ws, name, None)
        if bufs is None or len(bufs[0]) < rows:
            size = self.n if name == "g" else max(rows, 2 * self.n)
            bufs = [np.empty((size, HIDDEN), dtype)
                    for _ in range(2 if name == "g" else 3)]
            setattr(self._ws, name, bufs)
        return [b[:rows] for b in bufs]

    def _scratch(self, acts):
        bufs = self._buffers("d", len(acts[-1]), acts[-1].dtype)
        return None if bufs is None else bufs[2]

    def _fake(self, u, for_backward=False):
        """G(u) on the training noise, and its activations.

        A DG inner chain evaluates one generator against many
        discriminators, so each thread keeps its last pass and reuses it
        while u is unchanged.  Backward consumes activations: handing
        them out for a backward pass leaves only the output cached.
        """
        key = u.tobytes()
        last = getattr(self._ws, "fake", None)
        if (last is not None and last[0] == key
                and (last[2] is not None or not for_backward)):
            out, acts = last[1], last[2]
        else:
            out, acts = mlp_forward(G_LAYOUT, u, self.noise, self._buffers(
                "g", self.n, np.result_type(u, self.noise)))
        self._ws.fake = (key, out, None if for_backward else acts)
        return out, acts

    def _forward(self, layout, params, x):
        """A pass on the thread's "d" buffers: D's, or G's on eval noise."""
        return mlp_forward(layout, params, x, self._buffers(
            "d", len(x), np.result_type(x, params)))

    def discriminate(self, v, x):
        return self._forward(D_LAYOUT, v, x[:, None])

    @staticmethod
    def _clamped_probs(logits):
        p = stable_sigmoid(logits)
        clamped = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
        inside = (p > PROB_EPS) & (p < 1.0 - PROB_EPS)
        return clamped, inside

    def _on_batch(self, u, v, for_backward=False):
        """D on the real data followed by G(u)'s fakes: clamped
        probabilities, the unclamped mask and both nets' activations."""
        fake, gacts = self._fake(u, for_backward)
        logits, dacts = self.discriminate(v, np.concatenate([self.data, fake]))
        p, inside = self._clamped_probs(logits)
        return p, inside, dacts, gacts

    def _objective(self, p) -> float:
        real_term = float(np.mean(np.log(p[:self.n])))
        fake_term = float(np.mean(np.log(1.0 - p[self.n:])))
        total = real_term + fake_term
        if not math.isfinite(total):
            raise NonFiniteValueError("GAN objective is non-finite")
        return total

    def _backward_v(self, v, p, inside, dacts, input_grad=False):
        """D's parameter gradient over the whole batch (and, if asked,
        the gradient w.r.t. D's inputs)."""
        dlogit = np.empty_like(p)
        dlogit[:self.n] = (1.0 - p[:self.n]) / self.n
        dlogit[self.n:] = -p[self.n:] / self.n
        dlogit[~inside] = 0.0
        return mlp_backward(D_LAYOUT, v, dacts, dlogit, self.dtype, True,
                            input_grad, self._scratch(dacts))

    def _backward_u(self, u, v, p, inside, dacts, gacts):
        """G's parameter gradient from D's pass over the fake rows only."""
        dlogit = -p / self.n
        dlogit[~inside] = 0.0
        _, dx = mlp_backward(D_LAYOUT, v, dacts, dlogit, self.dtype, False,
                             True, self._scratch(dacts))
        return self._backward_g(u, gacts, dx)

    def _backward_g(self, u, gacts, dx):
        grad, _ = mlp_backward(G_LAYOUT, u, gacts, dx[:, 0], self.dtype, True,
                               False, self._scratch(gacts))
        return grad

    # -- oracle surface ----------------------------------------------------

    def value(self, u, v) -> float:
        p, _, _, _ = self._on_batch(u, v)
        return self._objective(p)

    def grad_v(self, u, v) -> np.ndarray:
        p, inside, dacts, _ = self._on_batch(u, v)
        return self._backward_v(v, p, inside, dacts)[0]

    def grad_u(self, u, v) -> np.ndarray:
        # only the fake term depends on the generator
        fake, gacts = self._fake(u, for_backward=True)
        logits, dacts = self.discriminate(v, fake)
        p, inside = self._clamped_probs(logits)
        return self._backward_u(u, v, p, inside, dacts, gacts)

    def value_and_grad_v(self, u, v):
        """value(u, v) and grad_v(u, v) from one pass."""
        p, inside, dacts, _ = self._on_batch(u, v)
        return self._objective(p), self._backward_v(v, p, inside, dacts)[0]

    def value_and_grad_u(self, u, v):
        """value(u, v) and grad_u(u, v) from one pass; D's backward
        covers only the fake rows."""
        p, inside, dacts, gacts = self._on_batch(u, v, for_backward=True)
        n = self.n
        return self._objective(p), self._backward_u(
            u, v, p[n:], inside[n:], [a[n:] for a in dacts], gacts)

    def value_and_grads(self, u, v):
        """value, grad_u and grad_v at (u, v) from one pass."""
        p, inside, dacts, gacts = self._on_batch(u, v, for_backward=True)
        value = self._objective(p)
        grad_v, dx = self._backward_v(v, p, inside, dacts, input_grad=True)
        return value, self._backward_g(u, gacts, dx[self.n:]), grad_v

    def hessian_blocks(self, p, h=1e-5):
        raise NotImplementedError("the GAN game exposes first-order "
                                  "information only")

    # -- diagnostics -------------------------------------------------------

    def eval_samples(self, u) -> np.ndarray:
        out, _ = self._forward(G_LAYOUT, u, self.eval_noise)
        return out

    def disc_outputs(self, v, x) -> np.ndarray:
        logits, _ = self.discriminate(v, np.asarray(x, dtype=self.dtype))
        return stable_sigmoid(logits)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

MOG_ALGORITHMS = ("gda", "eg", "co", "dg")

LOG_COLUMNS = ("iter", "value", "grad_u_norm", "grad_v_norm", "dg_metric",
               "mode_frac_m4", "mode_frac_0", "mode_frac_4",
               "disc_real_median", "disc_fake_median")


@dataclass
class MogTrainingLog:
    algorithm: str
    seed: int
    iterations: int
    rows: list = field(default_factory=list)
    status: str = "ok"
    final_samples: Optional[np.ndarray] = None
    final_histogram: Optional[np.ndarray] = None
    bin_edges: Optional[np.ndarray] = None
    final_u: Optional[np.ndarray] = None
    final_v: Optional[np.ndarray] = None
    final_disc_union_median: Optional[float] = None

    def column(self, name: str) -> np.ndarray:
        idx = LOG_COLUMNS.index(name)
        return np.array([row[idx] for row in self.rows])

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(LOG_COLUMNS) + "\n")
            for row in self.rows:
                fh.write(f"{int(row[0])},"
                         + ",".join(repr(float(x)) for x in row[1:]) + "\n")

    def write_samples_csv(self, path):
        with open(path, "w") as fh:
            fh.write("sample\n")
            for x in self.final_samples:
                fh.write(repr(float(x)) + "\n")

    def write_histogram_csv(self, path):
        with open(path, "w") as fh:
            fh.write("bin_left,bin_right,count\n")
            for left, right, count in zip(self.bin_edges[:-1],
                                          self.bin_edges[1:],
                                          self.final_histogram):
                fh.write(f"{float(left)!r},{float(right)!r},{int(count)}\n")


def _fd_hessian_vector(game: MogGanGame, p: JointPoint, direction,
                       base_step: float = 1e-4):
    """Central-difference product of the full objective Hessian with a
    direction, via the joint raw gradient; a non-finite gradient raises
    NonFiniteValueError."""
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return np.zeros_like(direction)
    delta = base_step / norm
    d_u = direction[:game.dim_u]
    d_v = direction[game.dim_u:]
    plus = JointPoint(p.u + delta * d_u, p.v + delta * d_v)
    minus = JointPoint(p.u - delta * d_u, p.v - delta * d_v)
    return ((np.concatenate(_checked_grads(game, plus))
             - np.concatenate(_checked_grads(game, minus))) / (2.0 * delta))


def _co_step(game: MogGanGame, p: JointPoint, eta, gamma: float) -> JointPoint:
    """Consensus optimization through the finite-difference Hessian
    product: optimizers.co_step needs Hessian blocks the GAN lacks, and
    its summation order moves MoG co outputs off the recorded references.
    """
    gu, gv = _checked_grads(game, p)
    hvp = _fd_hessian_vector(game, p, np.concatenate([gu, gv]))
    return JointPoint(p.u - eta * (gu + gamma * hvp[:game.dim_u]),
                      p.v + eta * gv - eta * gamma * hvp[game.dim_u:])


@functools.cache
def _openblas_thread_calls():
    """(get, set) for the thread count of the OpenBLAS this process has
    loaded, or None when there is none to find (another BLAS, or no
    /proc/self/maps to list the loaded libraries)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh
                            if "openblas" in line.rpartition("/")[2]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread inside the block, then restore it.

    BLAS threads would compete with the two DG halves for the cores,
    and the thread count changes how BLAS splits some reductions.  The
    block gets False, and nothing changes, without a known OpenBLAS.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield False
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


def train_mog(algorithm: str, seed: int, iterations: int = 20000,
              lr: float = 2e-4, co_gamma: float = 1.0,
              dg_k: int = 10, log_interval: int = 100,
              dtype=np.float32, game: Optional[MogGanGame] = None,
              n: int = 5000) -> MogTrainingLog:
    """Full-batch training with one of gda / eg / co / dg at step size lr.

    gda, eg and dg are optimizers.make_step_map's step maps; dg descends
    the envelope gradient of a dg_k-step duality-gap estimate (inner
    step size lr).  Logging happens every log_interval steps on a fixed
    1000-draw noise evaluation set.

    The whole run holds OpenBLAS at one thread, so no output depends on
    the host's BLAS thread count.  If it can, and the process may use two
    or more CPUs (its affinity mask, else the machine's CPU count), the
    run is a dg.concurrent_halves() scope; the output is the same.
    """
    if algorithm not in MOG_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"known: {MOG_ALGORITHMS}")
    checked("log_interval", log_interval, at_least=1)
    checked("iterations", iterations, at_least=0)
    checked("learning rate lr", lr, positive=True)
    cfg = OptimizerConfig(algorithm, eta=lr, co_gamma=co_gamma,
                          dg=dgmod.DGConfig(k=dg_k))
    if game is None:
        game = MogGanGame(seed, n=n, dtype=dtype)
    log = MogTrainingLog(algorithm=algorithm, seed=seed, iterations=iterations)
    cpus = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else range(os.cpu_count() or 1))
    with _one_blas_thread() as pinned, (
            dgmod.concurrent_halves() if pinned and len(cpus) >= 2
            else contextlib.nullcontext()):
        if algorithm == "co":
            step = functools.partial(_co_step, game,
                                     eta=game.dtype.type(cfg.eta),
                                     gamma=cfg.co_gamma)
        else:
            step = optimizers.make_step_map(game, cfg)

        def log_row(it, p):
            value, gu, gv = game.value_and_grads(p.u, p.v)
            dg_val = dgmod.dg_metric(game, p, dg_k, lr)
            samples = game.eval_samples(p.u)
            fracs = mode_coverage(samples)
            disc_real = float(np.median(game.disc_outputs(p.v, game.data)))
            disc_fake = float(np.median(game.disc_outputs(p.v, samples)))
            log.rows.append((it, value, float(np.linalg.norm(gu)),
                             float(np.linalg.norm(gv)), dg_val,
                             fracs[0], fracs[1], fracs[2], disc_real,
                             disc_fake))

        p = JointPoint(*game.init_params())
        log_row(0, p)
        try:
            for it in range(1, iterations + 1):
                p = step(p)
                if it % log_interval == 0 or it == iterations:
                    log_row(it, p)
        except NonFiniteValueError:
            log.status = "diverged"

        log.final_samples = game.eval_samples(p.u)
        log.final_histogram, log.bin_edges = np.histogram(
            log.final_samples, bins=HIST_BINS, range=HIST_RANGE)
        log.final_u = p.u.copy()
        log.final_v = p.v.copy()
        union = np.concatenate([game.disc_outputs(p.v, game.data),
                                game.disc_outputs(p.v, log.final_samples)])
        log.final_disc_union_median = float(np.median(union))
    return log
