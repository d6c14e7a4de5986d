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

import functools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dg as dgmod
from . import optimizers, outputs, parallel
from .games import JointPoint, NonFiniteValueError, central_difference, checked
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
    output is always fresh.  A width-1 input layer is one K=2 GEMM
    [x, 1] @ [w; b] (w and b are adjacent in params); its (n, 2) input,
    ones in column 1, is ``hidden[-1]`` when hidden is given.
    """
    layers = layout.unpack(params)
    acts = [x]
    h = x
    for i, (w, b) in enumerate(layers[:-1]):
        t = None if hidden is None else hidden[i]
        if w.shape[0] == 1:
            xin = (np.ones((2, len(h)), np.result_type(h, params)).T
                   if hidden is None else hidden[-1])
            xin[:, 0] = h[:, 0]
            (w0, _, _), (_, b1, _) = layout.slices[i]
            t = np.matmul(xin, params[w0:b1].reshape(2, -1), out=t)
        else:
            t = np.matmul(h, w, out=t)
            t += b
        np.tanh(t, out=t)
        acts.append(t)
        h = t
    w, b = layers[-1]
    # row by row: a BLAS GEMV's bits for a row depend on where the row
    # sits in h, so a row's output would depend on its batch
    out = np.einsum("ij,j->i", h, w[:, 0])
    out += b
    return out, acts


def mlp_backward(layout: MLPLayout, params, acts, dout, dtype,
                 param_grads=True, input_grad=True, scratch=None):
    """Gradients of sum(dout * output) w.r.t. params and the input.

    Returns (param gradient, input gradient), each None when not asked
    for; both are fresh arrays.  The pass consumes ``acts``: it
    overwrites the hidden activations (never ``acts[0]``, the input)
    with the backpropagated signal, so they must come from a forward
    pass nobody reuses.  ``scratch``, when given, is a pair: an (n,
    width) buffer for the signal through a hidden-to-hidden weight
    matrix and an (n,) ones vector for the bias gradients (each a GEMV
    ones @ g); else both are fresh.  The signal through a width-1 layer
    is an outer product, multiplied into the tanh derivative in place.
    """
    layers = layout.unpack(params)
    grad = np.zeros(layout.dim, dtype=dtype) if param_grads else None
    glayers = layout.unpack(grad) if param_grads else None
    g = dout.astype(dtype, copy=False)[:, None]
    spare, ones = scratch or (None, np.ones(len(g), dtype))
    for idx in range(len(layers) - 1, -1, -1):
        w = layers[idx][0]
        if param_grads:
            gw, gb = glayers[idx]
            gw[:] = acts[idx].T @ g
            np.matmul(ones, g, out=gb)
        if idx == 0:   # g @ w.T row by row, as mlp_forward's head
            return grad, (np.einsum("ij,kj->ik", g, w) if input_grad else None)
        # the tanh derivative at acts[idx] times the signal through w
        h = acts[idx]
        np.square(h, out=h)
        np.subtract(1.0, h, out=h)
        if w.shape[1] == 1:
            h *= g
            h *= w[:, 0]
        else:
            spare = np.matmul(g, w.T, out=spare)
            h *= spare
        g = h


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
        two hidden layers of every other pass, the backprop scratch and
        D's (rows, 2) input [x, 1] (see mlp_forward), sized for the
        largest batch seen (at least the n rows of a D pass in _pass).
        """
        if dtype != self.dtype:
            return None
        bufs = getattr(self._ws, name, None)
        if bufs is None or len(bufs[0]) < rows:
            size = max(rows, self.n)
            bufs = [np.empty((size, HIDDEN), dtype)
                    for _ in range(2 if name == "g" else 3)]
            if name == "d":   # column-major, so its ones column is contiguous
                bufs.append(np.ones((2, size), dtype).T)
            setattr(self._ws, name, bufs)
        return [b[:rows] for b in bufs]

    def _scratch(self, acts):
        """mlp_backward's scratch: the backprop buffer and D's ones column."""
        bufs = self._buffers("d", len(acts[-1]), acts[-1].dtype)
        return None if bufs is None else (bufs[2], bufs[3][:, 1])

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

    def _half(self, v, x, real, value, dv, du=False):
        """One n-row D pass of _pass: the value term of rows x (the data
        or fakes), their grad_v part and D's input gradient (for grad_u),
        each None unless asked for."""
        logits, dacts = self.discriminate(v, x)
        sig = stable_sigmoid(logits)
        p = np.clip(sig, PROB_EPS, 1.0 - PROB_EPS)
        term = (float(np.mean(np.log(p if real else 1.0 - p)))
                if value else None)
        if not (dv or du):
            return term, None, None
        dlogit = (1.0 - p) / self.n if real else -p / self.n
        dlogit[~((sig > PROB_EPS) & (sig < 1.0 - PROB_EPS))] = 0.0
        return (term, *mlp_backward(D_LAYOUT, v, dacts, dlogit, self.dtype,
                                    dv, du, self._scratch(dacts)))

    def _pass(self, u, v, value=False, du=False, dv=False):
        """(value, grad_u, grad_v) at (u, v), each None unless asked for.

        D runs on the n real rows, when the value or grad_v needs them,
        and on G(u)'s n fakes, as two passes of one parallel.run_pair:
        the real half first, the fake half on this thread, whose last G
        pass (_fake) it reuses.  Each half backpropagates for grad_v, the
        fake half also for grad_u, on into G's backward.  The value and
        grad_v are the real term plus the fake term.
        """
        def fake_half():
            fake, gacts = self._fake(u, for_backward=du)
            term, grad_v, dx = self._half(v, fake, False, value, dv, du)
            if not du:
                return term, None, grad_v
            grad_u, _ = mlp_backward(G_LAYOUT, u, gacts, dx[:, 0], self.dtype,
                                     True, False, self._scratch(gacts))
            return term, grad_u, grad_v

        if not (value or dv):
            return fake_half()
        (real, real_v, _), (fake, grad_u, fake_v) = parallel.run_pair(
            lambda: self._half(v, self.data, True, value, dv), fake_half)
        total = real + fake if value else None
        if value and not math.isfinite(total):
            raise NonFiniteValueError("GAN objective is non-finite")
        return total, grad_u, real_v + fake_v if dv else None

    # -- oracle surface ----------------------------------------------------

    def value(self, u, v) -> float:
        return self._pass(u, v, value=True)[0]

    def grad_v(self, u, v) -> np.ndarray:
        return self._pass(u, v, dv=True)[2]

    def grad_u(self, u, v) -> np.ndarray:
        return self._pass(u, v, du=True)[1]

    def value_and_grad_v(self, u, v):
        """value(u, v) and grad_v(u, v) from one pass."""
        return self._pass(u, v, value=True, dv=True)[::2]

    def value_and_grad_u(self, u, v):
        """value(u, v) and grad_u(u, v) from one pass."""
        return self._pass(u, v, value=True, du=True)[:2]

    def grads(self, u, v):
        """grad_u and grad_v at (u, v) from one pass."""
        return self._pass(u, v, du=True, dv=True)[1:]

    def value_and_grads(self, u, v):
        """value, grad_u and grad_v at (u, v) from one pass."""
        return self._pass(u, v, value=True, du=True, dv=True)

    def hessian_blocks(self, p):
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
    thread_setup: Optional[dict] = None     # see parallel.thread_setup

    def column(self, name: str) -> np.ndarray:
        idx = LOG_COLUMNS.index(name)
        return np.array([row[idx] for row in self.rows])

    def write_csv(self, path):
        outputs.write_csv(path, LOG_COLUMNS, self.rows)

    def write_samples_csv(self, path):
        outputs.write_csv(path, ["sample"], self.final_samples[:, None])

    def write_histogram_csv(self, path):
        outputs.write_csv(path, ["bin_left", "bin_right", "count"],
                          zip(self.bin_edges[:-1], self.bin_edges[1:],
                              self.final_histogram))


def _fd_hessian_vector(game: MogGanGame, p: JointPoint, direction):
    """Central-difference product of the full objective Hessian with a
    direction, via the joint raw gradient at step 1e-4/|direction|; a
    non-finite gradient raises NonFiniteValueError."""
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return np.zeros_like(direction)
    du = game.dim_u
    return central_difference(lambda x: np.concatenate(_checked_grads(
        game, JointPoint(x[:du], x[du:]))), p.concat(), direction, 1e-4 / norm)


def _co_step(game: MogGanGame, p: JointPoint, eta, gamma: float) -> JointPoint:
    """Consensus optimization through the finite-difference Hessian
    product: optimizers.co_step needs Hessian blocks the GAN lacks, and
    its summation order moves MoG co outputs off the recorded references.
    """
    gu, gv = _checked_grads(game, p)
    hvp = _fd_hessian_vector(game, p, np.concatenate([gu, gv]))
    return JointPoint(p.u - eta * (gu + gamma * hvp[:game.dim_u]),
                      p.v + eta * gv - eta * gamma * hvp[game.dim_u:])


def train_mog(algorithm: str, seed: int, iterations: int = 20000,
              lr: float = 2e-4, co_gamma: float = 1.0,
              dg_k: int = 10, log_interval: int = 100,
              dtype=np.float32, game: Optional[MogGanGame] = None,
              n: int = 5000, progress=None) -> MogTrainingLog:
    """Full-batch training with one of gda / eg / co / dg at step size lr.

    gda, eg and dg are optimizers.make_step_map's step maps; dg descends
    the envelope gradient of a dg_k-step duality-gap estimate (inner
    step size lr).  Logging happens every log_interval steps on a fixed
    1000-draw noise evaluation set, after which a given progress is
    called with (iteration, iterations, seconds since the run began).  A
    supplied game must have the run's seed, n and dtype.

    The whole run holds OpenBLAS at one thread, so no output depends on
    the host's BLAS thread count.  If it can, and the process may use two
    or more CPUs, the run is a parallel.concurrent_halves() scope; the
    output is the same.  The log's thread_setup records which
    (parallel.thread_setup).
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
    for name, arg in (("seed", seed), ("n", n), ("dtype", np.dtype(dtype))):
        if (have := getattr(game, name)) != arg:
            raise ValueError(f"game has {name}={have}, not {arg}")
    log = MogTrainingLog(algorithm=algorithm, seed=seed, iterations=iterations)
    started = time.perf_counter()
    with parallel.thread_setup() as log.thread_setup:
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
            if progress is not None:
                progress(it, iterations, time.perf_counter() - started)

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
