"""Command-line entry point: traj, stability, landscape, rate, mog, plot.

Every subcommand writes CSV/JSON data files (and SVG figures unless
--no-plot) under the --out prefix.  All randomness derives from --seed
through named streams, so fixed arguments reproduce byte-identical
outputs.

A mog run decides its own threads (see parallel.thread_setup): it runs
the two halves of each duality-gap evaluation concurrently when the
process may use two or more CPUs, e.g. under taskset, with the same
outputs either way.  A rate run splits its runs over a forked worker
process on the same condition (see parallel.split_runs).

One argument parser, built on the first main call and not at import,
serves every later call of the process.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import dg as dgmod
from . import dynamics, mog, optimizers, rates, svgplot
from .games import Box, JointPoint, checked, make_game

USAGE_ERROR = 2
OPERATION_ERROR = 1


def _two_floats(text: str, form: str) -> tuple:
    try:
        first, second = (float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected {form!r}, got {text!r}") from None
    return first, second


def _parse_point(text: str) -> JointPoint:
    return JointPoint.of(*(checked("point coordinate", x)
                           for x in _two_floats(text, "u,v")))


def _parse_box(text: str) -> Box:
    return Box.square(*_two_floats(text, "lo,hi"))


def _dg_config(args) -> dgmod.DGConfig:
    """The inner step --gamma, or the outer step --eta when it is unset."""
    gamma = args.eta if args.gamma is None else args.gamma
    return dgmod.DGConfig(k=args.k, gamma=gamma, grad_mode=args.mode)


def _optimizer_config(args) -> optimizers.OptimizerConfig:
    # a bad --eta is named as the outer step, before it becomes gamma
    checked("step size eta", args.eta, positive=True)
    return optimizers.OptimizerConfig(
        algorithm=args.alg, eta=args.eta, eta_y=args.eta_y,
        sga_lambda=args.sga_lambda, co_gamma=args.co_gamma,
        unroll_k=args.unroll_k, dg=_dg_config(args))


def _out_prefix(args) -> Path:
    prefix = Path(args.out)
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    return prefix


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_traj(args) -> int:
    game = make_game(args.game)
    cfg = _optimizer_config(args)
    init = _parse_point(args.init)
    # the catalog games all have their interesting stationary point at the
    # origin, which is therefore the default convergence target
    targets = ([_parse_point(t) for t in args.target]
               or [JointPoint.of(0.0, 0.0)])
    traj = optimizers.run_trajectory(game, cfg, init, steps=args.steps,
                                     targets=targets, tol=args.tol,
                                     diverge_norm=args.diverge_norm,
                                     log_dg=args.log_dg or args.alg == "dg")
    prefix = _out_prefix(args)
    traj.write_csv(f"{prefix}.csv")
    traj.write_summary(f"{prefix}.json")
    if not args.no_plot:
        _plot_trajectory(game, traj, f"{prefix}.svg")
    print(f"{traj.classification} after {traj.steps} steps "
          f"-> {prefix}.csv")
    if traj.error is not None:
        print(f"stopped at step {traj.steps + 1}: {traj.error}",
              file=sys.stderr)
    return 0


def _plot_trajectory(game, traj, path):
    pts = traj.iterates
    span = max(1.0, float(np.nanmax(np.abs(pts))) * 1.1)
    span = min(span, 50.0)
    canvas = svgplot.SvgCanvas()
    axes = svgplot.Axes(canvas, (-span, span), (-span, span), xlabel="u",
                        ylabel="v", title=f"{traj.algorithm} on {traj.game}")
    axis = np.linspace(-span, span, 41)
    svgplot.heatmap(canvas, axes, axis, axis,
                    dynamics.value_grid(game.value, axis, axis))
    axes.polyline(pts[:, 0], pts[:, 1], color="#000000")
    axes.marker(pts[0, 0], pts[0, 1], color="#2ca02c")
    axes.marker(pts[-1, 0], pts[-1, 1], color="#d62728")
    canvas.save(path)


def cmd_stability(args) -> int:
    game = make_game(args.game)
    cfg = _optimizer_config(args)
    point = _parse_point(args.point)
    step_map = optimizers.make_step_map(game, cfg)
    report = dynamics.linearize(step_map, point, h=args.fd_step)
    prefix = _out_prefix(args)
    report.write_json(f"{prefix}.json")
    eigs = ", ".join(f"{ev.real:+.6g}{ev.imag:+.6g}i"
                     for ev in report.eigenvalues)
    print(f"{report.classification}: spectral radius "
          f"{report.spectral_radius:.6g} (eigenvalues {eigs}) -> {prefix}.json")
    return 0


def cmd_landscape(args) -> int:
    game = make_game(args.game)
    box = _parse_box(args.box)
    grid = dynamics.landscape(game, box, args.res, args.measure,
                              dg_cfg=_dg_config(args))
    _, node = grid.argmin_node()   # a grid with no finite value writes nothing
    prefix = _out_prefix(args)
    grid.write_csv(f"{prefix}.csv")
    grid.write_sidecar(f"{prefix}.meta.json")
    if not args.no_plot:
        canvas = svgplot.SvgCanvas()
        axes = svgplot.Axes(canvas, (box.lo[0], box.hi[0]),
                            (box.lo[1], box.hi[1]), xlabel="u", ylabel="v",
                            title=f"{args.measure} of {game.name}")
        svgplot.heatmap(canvas, axes, grid.u_axis, grid.v_axis, grid.values,
                        mark_argmin=True)
        canvas.save(f"{prefix}.svg")
    print(f"grid argmin at (u, v) = ({node[0]:g}, {node[1]:g}) "
          f"-> {prefix}.csv")
    return 0


def cmd_rate(args) -> int:
    problem = rates.make_realizable_quadratic(args.dim, args.family, args.seed)
    t_list = []
    t = 100
    while t < args.tmax:
        t_list.append(t)
        t = int(round(t * math.sqrt(10.0)))
    t_list.append(args.tmax)
    ada, sgd = rates.run_rates(problem, t_list, args.seed, args.repeats)
    prefix = _out_prefix(args)
    ada.write_csv(f"{prefix}.csv")
    ada.write_json(f"{prefix}.json")
    sgd.write_csv(f"{prefix}_sgd.csv")
    sgd.write_json(f"{prefix}_sgd.json")
    if not args.no_plot:
        svgplot.line_chart(
            f"{prefix}.svg", ada.t_values,
            [("adagrad", ada.error_mean, svgplot.PALETTE[0]),
             ("sgd D/sqrt(t)", sgd.error_mean, svgplot.PALETTE[1]),
             ("4LD^2/T", ada.bound_values, svgplot.PALETTE[2])],
            xlabel="T", ylabel="error of average iterate",
            title="average-iterate suboptimality", xlog=True, ylog=True)
    print(f"adagrad slope {ada.slope:.3f} (bound ok: {ada.passes_bound}), "
          f"sgd slope {sgd.slope:.3f} -> {prefix}.csv")
    return 0


def cmd_mog(args) -> int:
    log = mog.train_mog(args.alg, mog.MogGanGame(args.seed),
                        iterations=args.iters, lr=args.lr,
                        co_gamma=args.co_gamma, dg_k=args.k,
                        log_interval=args.log_interval)
    prefix = _out_prefix(args)
    log.write_csv(f"{prefix}.csv")
    log.write_samples_csv(f"{prefix}_samples.csv")
    log.write_histogram_csv(f"{prefix}_hist.csv")
    if not args.no_plot:
        iters = log.column("iter")
        svgplot.line_chart(
            f"{prefix}.svg", iters,
            [("objective", log.column("value"), svgplot.PALETTE[0]),
             ("dg metric", log.column("dg_metric"), svgplot.PALETTE[1]),
             ("grad_u norm", log.column("grad_u_norm"), svgplot.PALETTE[2]),
             ("grad_v norm", log.column("grad_v_norm"), svgplot.PALETTE[3])],
            xlabel="iteration", ylabel="value",
            title=f"mog {args.alg} seed {args.seed}")
    fracs = [log.column(f"mode_frac_{c}")[-1] for c in ("m4", "0", "4")]
    print(f"status {log.status}; final mode mass "
          f"[{fracs[0]:.3f}, {fracs[1]:.3f}, {fracs[2]:.3f}] -> {prefix}.csv")
    return 0


def cmd_plot(args) -> int:
    path = Path(args.csv)
    if not path.exists():
        raise FileNotFoundError(f"no such CSV: {path}")
    with open(path) as fh:
        lines = [(n, line.strip().split(",")) for n, line in enumerate(fh, 1)
                 if line.strip()]
    # a lines CSV starts with a header; a landscape CSV has none
    if len(lines) < (1 if args.kind == "landscape" else 2):
        raise ValueError(f"no data rows in CSV: {path}")
    first, width = lines[0][0], len(lines[0][1])
    for n, cells in lines:
        if len(cells) != width:
            raise ValueError(f"ragged CSV {path}: line {n} has {len(cells)} "
                             f"cells, line {first} has {width}")

    def number(n, cell):
        try:
            return float(cell)
        except ValueError:
            raise ValueError(f"non-numeric CSV {path}: line {n} has cell "
                             f"{cell!r}") from None

    if args.kind == "landscape":
        values = np.array([[number(n, x) for x in cells] for n, cells in lines])
        n_u, n_v = values.shape
        canvas = svgplot.SvgCanvas()
        axes = svgplot.Axes(canvas, (0, n_u - 1), (0, n_v - 1),
                            xlabel="u index", ylabel="v index",
                            title=path.stem)
        svgplot.heatmap(canvas, axes, np.arange(n_u), np.arange(n_v), values,
                        mark_argmin=True)
        svg = f"{_out_prefix(args)}.svg"
        canvas.save(svg)
    else:
        header, rows = lines[0][1], lines[1:]
        xs = np.array([number(n, r[0]) for n, r in rows])
        series = []
        for col in range(1, len(header)):
            ys = np.array([number(n, r[col]) if r[col] else np.nan
                           for n, r in rows])
            series.append((header[col], ys,
                           svgplot.PALETTE[(col - 1) % len(svgplot.PALETTE)]))
        svg = f"{_out_prefix(args)}.svg"
        svgplot.line_chart(svg, xs, series, xlabel=header[0],
                           title=path.stem)
    print(f"rendered {svg}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_common(sub, with_game=True):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", type=str, default="out")
    sub.add_argument("--no-plot", action="store_true")
    if with_game:
        sub.add_argument("--game", type=str, required=True,
                         help="e.g. bilinear:c=3, f1, f2, f3, motivation, "
                              "ncnc:c=3")


def _add_dg_flags(sub):
    sub.add_argument("--eta", type=float, default=0.05)
    sub.add_argument("--k", type=int, default=10, help="dg inner steps")
    sub.add_argument("--gamma", type=float, default=None,
                     help="dg inner step size (default: eta)")
    sub.add_argument("--mode", type=str, default="envelope",
                     choices=dgmod.GRAD_MODES)


def _add_optimizer_flags(sub):
    sub.add_argument("--alg", type=str, required=True,
                     choices=optimizers.ALGORITHMS)
    _add_dg_flags(sub)
    sub.add_argument("--eta-y", dest="eta_y", type=float, default=None)
    sub.add_argument("--sga-lambda", dest="sga_lambda", type=float, default=1.0)
    sub.add_argument("--co-gamma", dest="co_gamma", type=float, default=0.1)
    sub.add_argument("--unroll-k", dest="unroll_k", type=int, default=10)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The dgopt parser, built on first use and shared by every parse."""
    parser = argparse.ArgumentParser(
        prog="dgopt", allow_abbrev=False,
        description="duality-gap optimization toolkit for two-player games")
    parser.add_argument("--config", type=str, default=None,
                        help="key=value file supplying flag defaults")
    subs = parser.add_subparsers(dest="command", required=True)

    traj = subs.add_parser("traj", help="run one optimizer trajectory")
    _add_common(traj)
    _add_optimizer_flags(traj)
    traj.add_argument("--init", type=str, required=True, help="u,v")
    traj.add_argument("--steps", type=int, default=5000)
    traj.add_argument("--tol", type=float, default=1e-3)
    traj.add_argument("--diverge-norm", dest="diverge_norm", type=float,
                      default=1e3)
    traj.add_argument("--target", action="append", default=[],
                      help="u,v (repeatable)")
    traj.add_argument("--log-dg", dest="log_dg", action="store_true",
                      help="log the dg metric for non-dg algorithms too")
    traj.set_defaults(func=cmd_traj)

    stab = subs.add_parser("stability", help="linearize an update map")
    _add_common(stab)
    _add_optimizer_flags(stab)
    stab.add_argument("--point", type=str, required=True, help="u,v")
    stab.add_argument("--fd-step", dest="fd_step", type=float, default=1e-6)
    stab.set_defaults(func=cmd_stability)

    land = subs.add_parser("landscape", help="grid a scalar measure")
    _add_common(land)
    land.add_argument("--box", type=str, required=True, help="lo,hi")
    land.add_argument("--res", type=int, default=101)
    land.add_argument("--measure", type=str, default="dg_exact",
                      choices=dynamics.MEASURES)
    _add_dg_flags(land)
    land.set_defaults(func=cmd_landscape)

    rate = subs.add_parser("rate", help="stochastic convergence-rate harness")
    _add_common(rate, with_game=False)
    rate.add_argument("--dim", type=int, default=10)
    rate.add_argument("--family", type=int, default=20)
    rate.add_argument("--Tmax", dest="tmax", type=int, default=100000)
    rate.add_argument("--repeats", type=int, default=10)
    rate.set_defaults(func=cmd_rate)

    mg = subs.add_parser("mog", help="mixture-of-Gaussians GAN experiment")
    _add_common(mg, with_game=False)
    mg.add_argument("--alg", type=str, required=True,
                    choices=mog.MOG_ALGORITHMS)
    mg.add_argument("--iters", type=int, default=20000)
    mg.add_argument("--lr", type=float, default=2e-4)
    mg.add_argument("--k", type=int, default=10)
    mg.add_argument("--co-gamma", dest="co_gamma", type=float, default=1.0)
    mg.add_argument("--log-interval", dest="log_interval", type=int,
                    default=100)
    mg.set_defaults(func=cmd_mog)

    plot = subs.add_parser("plot", help="re-render an existing CSV as SVG")
    plot.add_argument("--csv", type=str, required=True)
    plot.add_argument("--kind", type=str, default="lines",
                      choices=("lines", "landscape"))
    plot.add_argument("--out", type=str, default="plot")
    plot.set_defaults(func=cmd_plot)
    return parser


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    """The pre-parser that finds --config, built once like build_parser."""
    pre = argparse.ArgumentParser(prog="dgopt", add_help=False,
                                  allow_abbrev=False)
    pre.add_argument("--config")
    return pre


def _load_config_argv(argv):
    """Translate a key=value config file, given as --config FILE or
    --config=FILE, into argv entries inserted after the subcommand, so
    explicit flags still win.  Any other flag before the subcommand is
    refused by name (argparse would take its value for the subcommand)."""
    found, rest = _config_parser().parse_known_args(argv)
    if rest and rest[0].startswith("-") and rest[0] not in ("-h", "--help"):
        raise ValueError(f"unrecognized argument before the subcommand: "
                         f"{rest[0]}")
    if found.config is None:
        return argv
    extra = []
    with open(found.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise ValueError(f"malformed config line {line!r}")
            extra.extend([f"--{key.strip().replace('_', '-')}", val.strip()])
    if not rest:
        raise ValueError("config file given but no subcommand")
    return [rest[0]] + extra + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_load_config_argv(argv))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # operation failures keep exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return OPERATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
