"""Per-layer metrics from a traced unit, plus MLP per-layer microtimings.

Every traced run computes every per-layer metric; a layer the workload
does not exercise reports 0 calls and 0 time.
"""

from __future__ import annotations

import time

import numpy as np

import workloads

MOG_ORACLE = ("value", "grad_u", "grad_v")
GAME_ORACLE = ("value", "grad_u", "grad_v", "hessian_blocks")
MLP_REPEATS = 15


def _pct(durations: np.ndarray, q: float, scale: float) -> float:
    return float(np.percentile(durations, q)) * scale if durations.size else 0.0


def _timed(prefix: str, spans, mask, scale_name: str, scale: float, pcts) -> dict:
    dur = spans.dur[mask]
    out = {f"{prefix}.calls": int(mask.sum()), f"{prefix}.busy_s": float(dur.sum())}
    for q in pcts:
        out[f"{prefix}.{scale_name}_p{q}"] = _pct(dur, q, scale)
    return out


def layer_metrics(spans, traced_wall: float, untraced_wall: float,
                  rate_ns_per_sample: float) -> dict:
    m = {}
    is_ = spans.is_name
    dur = spans.dur

    # -- mog ---------------------------------------------------------------
    for op in MOG_ORACLE:
        m.update(_timed(f"mog.{op}", spans, is_(f"mog.{op}"), "ms", 1e3, (50, 90)))
    for fn in ("mlp_forward", "mlp_backward"):
        for net in ("g", "d"):
            mask = spans.prefix(f"mog.{fn}.{net}")
            m[f"mog.{fn}.{net}.calls"] = int(mask.sum())
            m[f"mog.{fn}.{net}.busy_s"] = float(dur[mask].sum())
    oracle_calls = sum(m[f"mog.{op}.calls"] for op in MOG_ORACLE)
    g_train = int(is_("mog.mlp_forward.g.train_noise").sum())
    m["mog.fake_cache.hit_ratio"] = (1.0 - g_train / oracle_calls
                                     if oracle_calls else 0.0)
    in_log = spans.has_ancestor(is_("mog.log"))
    grads = is_("mog.grad_u", "mog.grad_v") & ~in_log
    for alg in ("dg", "gda", "eg", "co"):
        jobs = [j for j in spans.jobs if j.get("kind") == "mog" and j["alg"] == alg]
        iters = sum(j["iters"] for j in jobs)
        calls = int((grads & spans.job_mask(kind="mog", alg=alg)).sum())
        m[f"mog.grad_evals_per_iter.{alg}"] = calls / iters if iters else 0.0
    m["mog.log.busy_s"] = float(dur[is_("mog.log")].sum())
    mog_oracle = spans.busy(is_(*(f"mog.{op}" for op in MOG_ORACLE)))
    m["mog.oracle_frac"] = mog_oracle / traced_wall

    # -- dg ----------------------------------------------------------------
    est = is_("dg.dg_estimate")
    m.update(_timed("dg.dg_estimate", spans, est, "ms", 1e3, (50, 90)))
    m["dg.dg_estimate.self_s"] = float((dur - spans.child_time())[est].sum())
    wcr = is_("dg.worst_case_responses")
    m["dg.worst_case_responses.busy_s"] = float(dur[wcr].sum())
    under_wcr = np.zeros(len(dur), dtype=bool)
    has_parent = spans.parent >= 0
    under_wcr[has_parent] = wcr[spans.parent[has_parent]]
    for chain, op in (("u_chain", "grad_u"), ("v_chain", "grad_v")):
        mask = under_wcr & is_(f"mog.{op}", f"games.{op}")
        m[f"dg.{chain}.busy_s"] = float(dur[mask].sum())
    wcr_busy = m["dg.worst_case_responses.busy_s"]
    m["dg.chain_overlap"] = ((m["dg.u_chain.busy_s"] + m["dg.v_chain.busy_s"])
                             / wcr_busy if wcr_busy else 0.0)
    metric = is_("dg.dg_metric")
    m["dg.dg_metric.calls"] = int(metric.sum())
    m["dg.dg_metric.busy_s"] = float(dur[metric].sum())

    # -- oracle: mog's or a catalog game's, whichever the workload calls ----
    for op in MOG_ORACLE:
        m.update(_timed(f"oracle.{op}", spans, is_(f"mog.{op}", f"games.{op}"),
                        "us", 1e6, (50,)))

    # -- games -------------------------------------------------------------
    for op in GAME_ORACLE:
        m.update(_timed(f"games.{op}", spans, is_(f"games.{op}"), "us", 1e6, (50,)))

    # -- optimizers --------------------------------------------------------
    step = is_("optimizers.step")
    m.update(_timed("optimizers.step", spans, step, "us", 1e6, (50,)))
    runs = is_("optimizers.run_trajectory")
    steps_in_runs = step & spans.has_ancestor(runs)
    m["optimizers.record.busy_s"] = float(dur[runs].sum() - dur[steps_in_runs].sum())

    # -- dynamics ----------------------------------------------------------
    land = is_("dynamics.landscape")
    nodes = sum(workloads.LANDSCAPE_RES ** 2 for j in spans.jobs
                if j.get("kind") == "landscape")
    m["dynamics.landscape.busy_s"] = float(dur[land].sum())
    m["dynamics.landscape.us_per_node"] = (m["dynamics.landscape.busy_s"] / nodes * 1e6
                                           if nodes else 0.0)
    m["dynamics.linearize.busy_s"] = float(dur[is_("dynamics.linearize")].sum())

    # -- rates -------------------------------------------------------------
    sg = is_("rates.sample_grad")
    m["rates.sample_grad.calls"] = int(sg.sum())
    m["rates.sample_grad.busy_s"] = float(dur[sg].sum())
    ada = is_("rates.adagrad_step")
    m["rates.adagrad_step.calls"] = int(ada.sum())
    m["rates.adagrad_step.us_p50"] = _pct(dur[ada], 50, 1e6)
    m["rates.ns_per_sample"] = rate_ns_per_sample

    # -- cli / svgplot -----------------------------------------------------
    m["cli.outputs.busy_s"] = spans.busy(is_("cli.outputs"))
    m["svgplot.busy_s"] = spans.busy(is_("svgplot"))
    plot_values = (is_("games.value") & spans.job_mask(kind="traj")
                   & ~spans.has_ancestor(runs))
    m["cli.plot_values.calls"] = int(plot_values.sum())

    # -- trace -------------------------------------------------------------
    jobs = is_("job")
    covered = float(dur[has_parent & jobs[np.where(has_parent, spans.parent, 0)]].sum())
    m["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    m["trace.unattributed_frac"] = (traced_wall - covered) / traced_wall
    return m


def mlp_layer_timings(seed: int) -> dict:
    """fwd/bwd milliseconds of each MLP layer on the real initial weights.

    mlp_forward/mlp_backward need a width-1 head, so layer l2 (the head)
    is timed alone and layers l0/l1 are timed as a two-layer cut (the
    layer, its tanh and the real head) minus the head alone.  G runs on
    the 5000 training rows, D on the 10000 real+fake rows, each layer on
    the activations the full network feeds it.
    """
    from dgopt import mog

    game = mog.MogGanGame(seed, n=workloads.MOG_N, dtype=np.float32)
    u, v = game.init_params()
    fake, g_acts = mog.mlp_forward(mog.G_LAYOUT, u, game.noise)
    x = np.concatenate([game.data, fake])[:, None]
    _, d_acts = mog.mlp_forward(mog.D_LAYOUT, v, x)
    out = {}
    for net, layout, params, acts in (("g", mog.G_LAYOUT, u, g_acts),
                                      ("d", mog.D_LAYOUT, v, d_acts)):
        layers = layout.unpack(params)
        head_w, head_b = layers[-1]
        head = _time_cut(mog, [(head_w, head_b)], acts[2], game.dtype)
        out[f"mog.{net}.l2.fwd_ms"], out[f"mog.{net}.l2.bwd_ms"] = head
        for idx in (0, 1):
            w, b = layers[idx]
            fwd, bwd = _time_cut(mog, [(w, b), (head_w, head_b)], acts[idx],
                                 game.dtype)
            out[f"mog.{net}.l{idx}.fwd_ms"] = fwd - head[0]
            out[f"mog.{net}.l{idx}.bwd_ms"] = bwd - head[1]
    return out


def _time_cut(mog, layers, x, dtype):
    sizes = [layers[0][0].shape[0]] + [w.shape[1] for w, _ in layers]
    layout = mog.MLPLayout(sizes)
    params = np.concatenate([a.ravel() for w, b in layers for a in (w, b)])
    dout = np.full(x.shape[0], 1.0 / x.shape[0], dtype=dtype)
    fwd, bwd = [], []
    for _ in range(MLP_REPEATS):
        t0 = time.perf_counter()
        _, acts = mog.mlp_forward(layout, params, x)
        t1 = time.perf_counter()
        mog.mlp_backward(layout, params, acts, dout, dtype)
        t2 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
    return float(np.median(fwd)) * 1e3, float(np.median(bwd)) * 1e3


def span_table(spans) -> list:
    """Per span name: calls, busy and self time, p50 and p90 in ms."""
    dur = spans.dur
    self_time = dur - spans.child_time()
    rows = []
    for nid, name in enumerate(spans.names):
        mask = spans.name == nid
        if not mask.any():
            continue
        rows.append({"name": name, "calls": int(mask.sum()),
                     "busy_s": spans.busy(mask),
                     "self_s": float(self_time[mask].sum()),
                     "p50_ms": _pct(dur[mask], 50, 1e3),
                     "p90_ms": _pct(dur[mask], 90, 1e3)})
    return sorted(rows, key=lambda r: -r["busy_s"])
