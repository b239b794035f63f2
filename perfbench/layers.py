"""Which calls are traced, and the per-layer metrics made from their spans."""

from __future__ import annotations

import os

import numpy as np

from cycleadapt import adapt, benchmark, checkpoint, diffcore, mdnet, metrics

# (metric, how samples are taken): "call" times each call of the span of
# that name, "step" merges adjacent calls into one sample per step, "self"
# takes the span named without "_self" minus its traced children (store,
# rng and glue)
TIMINGS = (
    ("hmrnet.graph_build", "step"),
    ("diffcore.hmr_forward", "call"),
    ("diffcore.hmr_backward", "call"),
    ("optim.hmr_adam", "call"),
    ("optim.md_adam", "call"),
    ("diffcore.md_forward", "call"),
    ("diffcore.md_backward", "call"),
    ("mdnet.graph_build", "step"),
    ("mdnet.forward_np", "call"),
    ("hmrnet.forward_np", "call"),
    ("benchmark.evaluator", "call"),
    ("bodymodel.body_forward_batch", "call"),
    ("metrics.mpjpe", "call"),
    ("metrics.pa_mpjpe", "call"),
    ("metrics.mpvpe", "call"),
    ("metrics.accel_error", "call"),
    ("adapt.hmr_stage_self", "self"),
    ("adapt.md_stage_self", "self"),
    ("adapt.online_self", "self"),
    ("checkpoint.save", "call"),
    ("checkpoint.load", "call"),
    ("synth.make_video", "call"),
)

# (metric, unit) of the single-valued per-layer metrics, in output order
COUNTS = (
    ("diffcore.hmr_nodes", "count"),
    ("diffcore.md_nodes", "count"),
    ("optim.hmr_params", "count"),
    ("optim.md_params", "count"),
    ("optim.adam_bytes", "B_computed"),
    ("benchmark.evaluator_calls", "count"),
    ("adapt.hmr_steps", "count"),
    ("adapt.md_steps", "count"),
    ("checkpoint.bytes_written", "B"),
    ("pretrain.nets_s", "s"),
    ("trace.overhead_pct", "pct"),
    ("trace.coverage", "ratio"),
)

ROOT = "run"


def metric_names() -> list:
    """Every per-layer metric as (name, unit), in output order."""
    out = []
    for metric, _ in TIMINGS:
        out += [(f"{metric}_ms", "ms"), (f"{metric}_hi_ms", "ms"), (f"{metric}_n", "count")]
    return out + list(COUNTS)


def _net(params: dict) -> str:
    return "md" if "w_in" in params else "hmr"


def _adam_metric(args, kwargs) -> str:
    return f"optim.{_net(args[0])}_adam"


def _record_nodes(name):
    def after(tracer, args, kwargs, result):
        tracer.counters.setdefault(name, []).append(len(args[0].nodes))

    return after


def _record_adam(in_adapt: bool):
    def after(tracer, args, kwargs, result):
        net = _net(args[0])
        tracer.counters[f"optim.{net}_params"] = sum(int(np.size(p)) for p in args[0].values())
        if in_adapt:
            tracer.add(f"adapt.{net}_steps", 1)

    return after


def _record_bytes(tracer, args, kwargs, result) -> None:
    tracer.add("checkpoint.bytes_written", os.path.getsize(args[0]))


def install(tracer) -> None:
    """Probe every layer boundary; tracer.restore() undoes all of it.

    Names are patched where they are called from: `adapt.evaluate` is the
    regressor step, while `diffcore.evaluate` and
    `diffcore.backward_from_values` are reached only through
    `diffcore.backward`, which only the denoiser step uses.
    """
    probe = tracer.probe
    probe(adapt, "hmr_forward_graph", "hmrnet.graph_build")
    probe(adapt, "hmr_loss_graph", "hmrnet.graph_build")
    probe(adapt, "evaluate", "diffcore.hmr_forward", _record_nodes("diffcore.hmr_nodes"))
    probe(adapt, "backward_from_values", "diffcore.hmr_backward")
    probe(diffcore, "evaluate", "diffcore.md_forward", _record_nodes("diffcore.md_nodes"))
    probe(diffcore, "backward_from_values", "diffcore.md_backward")
    probe(adapt, "adam_step", _adam_metric, _record_adam(True))
    probe(mdnet, "adam_step", _adam_metric, _record_adam(False))
    for module in (adapt, mdnet):
        probe(module, "md_forward_graph", "mdnet.graph_build")
        probe(module, "md_forward", "mdnet.forward_np")
    probe(adapt, "md_loss_graph", "mdnet.graph_build")
    probe(adapt, "hmr_forward", "hmrnet.forward_np")
    probe(benchmark, "body_forward_batch", "bodymodel.body_forward_batch")
    for name in ("mpjpe", "pa_mpjpe", "mpvpe", "accel_error"):
        probe(metrics, name, f"metrics.{name}")
    probe(adapt, "hmr_stage", "adapt.hmr_stage")
    probe(adapt, "md_stage", "adapt.md_stage")
    probe(adapt, "online_adapt", "adapt.online")
    for module in (adapt, checkpoint):
        probe(module, "save_hmr", "checkpoint.save", _record_bytes)
        probe(module, "save_md", "checkpoint.save", _record_bytes)
    probe(checkpoint, "load_hmr", "checkpoint.load")
    probe(checkpoint, "load_md", "checkpoint.load")
    probe(benchmark, "make_video", "synth.make_video")


def hi_percentile(n: int) -> int:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples above it; else the max."""
    for q in (99, 95, 90, 75, 50):
        if n * (1 - q / 100) >= 10:
            return q
    return 100


def timing_samples(tracer, metric: str, how: str) -> list:
    if how == "self":
        return tracer.self_samples(metric.removesuffix("_self"))
    return tracer.samples(metric, merge_adjacent=how == "step")


STAGES = ("adapt.hmr_stage", "adapt.md_stage", "adapt.online")


def self_shares(tracer) -> dict:
    """Self time of each traced layer as a share of the traced run."""
    index = next(i for i, s in enumerate(tracer.spans) if s.metric == ROOT)
    root = tracer.spans[index]
    shares = {"(unattributed)": root.self_s / root.duration}
    for span in tracer.spans[index + 1 :]:
        shares[span.metric] = shares.get(span.metric, 0.0) + span.self_s / root.duration
    return shares


def coverage(tracer) -> float:
    """Share of the traced run spent inside a layer call below the loop.

    Time in no traced call, and the self time of the adaptation stages
    (store, rng and glue), count as not covered.
    """
    shares = self_shares(tracer)
    return 1.0 - shares["(unattributed)"] - sum(shares.get(stage, 0.0) for stage in STAGES)


def layer_metrics(tracers: list, untraced_run_s: list, traced_run_s: list, nets_s: float) -> tuple[dict, dict]:
    """Per-layer metrics from one or more traced runs of the same inputs.

    Timings pool the samples of every traced run; counts come from the
    first traced run (they repeat exactly). Returns (metrics, hi
    percentile used per timing).
    """
    out: dict = {}
    percentiles: dict = {}
    for metric, how in TIMINGS:
        ms = [1e3 * s for t in tracers for s in timing_samples(t, metric, how)]
        q = hi_percentile(len(ms))
        percentiles[metric] = q
        out[f"{metric}_ms"] = float(np.median(ms)) if ms else 0.0
        out[f"{metric}_hi_ms"] = float(np.percentile(ms, q)) if ms else 0.0
        out[f"{metric}_n"] = len(ms)
    first = tracers[0]
    counters = first.counters
    for name in ("diffcore.hmr_nodes", "diffcore.md_nodes"):
        out[name] = int(np.median(counters[name])) if name in counters else 0
    for name in ("optim.hmr_params", "optim.md_params", "adapt.hmr_steps", "adapt.md_steps", "checkpoint.bytes_written"):
        out[name] = int(counters.get(name, 0))
    # Adam keeps two float64 moments per parameter of each net it steps
    out["optim.adam_bytes"] = 2 * 8 * (out["optim.hmr_params"] + out["optim.md_params"])
    out["benchmark.evaluator_calls"] = sum(1 for s in first.spans if s.metric == "benchmark.evaluator")
    out["pretrain.nets_s"] = float(nets_s)
    out["trace.overhead_pct"] = 100.0 * (float(np.median(traced_run_s)) / float(np.median(untraced_run_s)) - 1.0)
    out["trace.coverage"] = float(np.median([coverage(t) for t in tracers]))
    return out, percentiles
