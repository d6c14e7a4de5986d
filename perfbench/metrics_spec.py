"""Metric names, units, directions and bounds.

The metrics the JSON result line carries, and their bounds, come
from BENCHMARK.json at the checkout root.  That line must carry the same
names on every workload, and a time must never read the same on every
run, so it holds only the metrics every workload measures: times a
workload never reaches (0 s) are left to the printed table and the saved
result, which carry every metric below.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path.cwd() / "BENCHMARK.json").read_text())

# workload-specific end-to-end metrics: name -> (unit, better, bound)
WORKLOAD_METRICS = {
    "mog_dg_iters_per_s": ("1/s", "higher", 0.25),          # mog_dg
    "mog_gda_iters_per_s": ("1/s", "higher", 0.25),         # mog_baselines
    "mog_eg_iters_per_s": ("1/s", "higher", 0.25),          # mog_baselines
    "mog_co_iters_per_s": ("1/s", "higher", 0.25),          # mog_baselines
    "traj_steps_per_s": ("1/s", "higher", 0.25),            # catalog
    "landscape_nodes_per_s": ("1/s", "higher", 0.25),       # catalog
    "rate_samples_per_s": ("1/s", "higher", 0.25),          # catalog
    "failed_frac": ("ratio", "lower", 0.0),                 # all
}


def _layer_metrics() -> dict:
    """Every per-layer metric: name -> (unit, better)."""
    out = {}

    def add(names, unit, better="lower"):
        out.update((n, (unit, better)) for n in names)

    for op in ("value", "grad_u", "grad_v"):
        add([f"mog.{op}.calls"], "count")
        add([f"mog.{op}.busy_s"], "s")
        add([f"mog.{op}.ms_p50", f"mog.{op}.ms_p90"], "ms")
    for fn in ("mlp_forward", "mlp_backward"):
        for net in ("g", "d"):
            add([f"mog.{fn}.{net}.calls"], "count")
            add([f"mog.{fn}.{net}.busy_s"], "s")
    add(["mog.fake_cache.hit_ratio"], "ratio", "higher")
    add([f"mog.grad_evals_per_iter.{a}" for a in ("dg", "gda", "eg", "co")], "count")
    add(["mog.log.busy_s"], "s")
    add(["mog.oracle_frac"], "ratio")
    add([f"mog.{net}.l{i}.{d}_ms" for net in ("g", "d") for i in range(3)
         for d in ("fwd", "bwd")], "ms")
    add(["dg.dg_estimate.calls"], "count")
    add(["dg.dg_estimate.busy_s", "dg.dg_estimate.self_s"], "s")
    add(["dg.dg_estimate.ms_p50", "dg.dg_estimate.ms_p90"], "ms")
    add(["dg.worst_case_responses.busy_s", "dg.u_chain.busy_s",
         "dg.v_chain.busy_s"], "s")
    add(["dg.chain_overlap"], "ratio", "higher")
    add(["dg.dg_metric.calls"], "count")
    add(["dg.dg_metric.busy_s"], "s")
    for op in ("value", "grad_u", "grad_v"):
        add([f"oracle.{op}.calls"], "count")
        add([f"oracle.{op}.busy_s"], "s")
        add([f"oracle.{op}.us_p50"], "us")
    for op in ("value", "grad_u", "grad_v", "hessian_blocks"):
        add([f"games.{op}.calls"], "count")
        add([f"games.{op}.busy_s"], "s")
        add([f"games.{op}.us_p50"], "us")
    add(["optimizers.step.calls"], "count")
    add(["optimizers.step.busy_s"], "s")
    add(["optimizers.step.us_p50"], "us")
    add(["optimizers.record.busy_s"], "s")
    add(["dynamics.landscape.busy_s"], "s")
    add(["dynamics.landscape.us_per_node"], "us")
    add(["dynamics.linearize.busy_s"], "s")
    add(["rates.sample_grad.calls"], "count")
    add(["rates.sample_grad.busy_s"], "s")
    add(["rates.adagrad_step.calls"], "count")
    add(["rates.adagrad_step.us_p50"], "us")
    add(["rates.ns_per_sample"], "ns")
    add(["cli.outputs.busy_s", "svgplot.busy_s"], "s")
    add(["cli.plot_values.calls"], "count")
    add(["trace.overhead_frac", "trace.unattributed_frac"], "ratio")
    return out


LAYER_METRICS = _layer_metrics()


def end_to_end_names() -> list:
    return [m["name"] for m in SPEC["end_to_end"]]


def per_layer_names() -> list:
    return [m["name"] for m in SPEC["per_layer"]]


def _entry(name: str):
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        if m["name"] == name:
            return m["unit"], m["better"], m.get("bound")
    if name in LAYER_METRICS:
        return (*LAYER_METRICS[name], None)
    return WORKLOAD_METRICS.get(name, ("", "lower", None))


def unit_of(name: str) -> str:
    return _entry(name)[0]


def better_of(name: str) -> str:
    return _entry(name)[1]


def bound_of(name: str):
    return _entry(name)[2]
