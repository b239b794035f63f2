"""The benchmark's layer probes still find every name they patch, and time
each optimizer step once, under its own network.

`perfbench/layers.py` times the program by replacing module attributes
(`adapt.evaluate`, `mdnet.md_forward`, ...) with timing wrappers. A name
that is deleted or moved out of the module that calls it makes `install`
fail. A step routed through another name still installs, but its time
lands under the other network's metrics; the tiny traced runs below catch
that, without running the benchmark itself.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    yield layers, tracer
    for name in ("layers", "tracer", "worker", "workloads"):
        sys.modules.pop(name, None)


def test_every_probed_name_exists_and_is_restored(perfbench_modules):
    layers, tracer = perfbench_modules
    t = tracer.Tracer()
    try:
        layers.install(t)
        patched = [(module, attr, original) for module, attr, original in t._patches]
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original
    finally:
        t.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"


@pytest.mark.parametrize(
    "workload, hmr_steps, md_steps",
    [("cyclic_offline", 4, 4), ("online_causal", 60, 1), ("pretrain_denoiser", 0, 20)],
)
def test_each_step_is_timed_once_under_its_own_net(perfbench_modules, tmp_path, workload, hmr_steps, md_steps):
    _, tracer = perfbench_modules
    import worker
    import workloads

    t = tracer.Tracer()
    record = worker.one_run(workload, 0, workloads.TINY, None, tmp_path, t)
    assert record["error"] is None, record["error"]
    counts = {}
    for span in t.spans:
        counts[span.metric] = counts.get(span.metric, 0) + 1
    for metric in ("diffcore.hmr_forward", "diffcore.hmr_backward", "optim.hmr_adam"):
        assert counts.get(metric, 0) == hmr_steps, metric
    for metric in ("diffcore.md_forward", "diffcore.md_backward", "optim.md_adam"):
        assert counts.get(metric, 0) == md_steps, metric
    assert hmr_steps + md_steps == record["steps"] == workloads.expected_steps(workload, workloads.TINY)


# per workload, the timings that fire on a tiny traced run; "_self" timings
# are named by their span
_EVAL_AND_MODELS = {
    "benchmark.evaluator", "bodymodel.body_forward_batch", "checkpoint.save", "diffcore.hmr_forward",
    "diffcore.hmr_backward", "diffcore.md_forward", "diffcore.md_backward", "mdnet.forward_np", "mdnet.graph_build",
    "hmrnet.graph_build", "metrics.mpjpe", "metrics.pa_mpjpe", "metrics.mpvpe", "metrics.accel_error",
    "optim.hmr_adam", "optim.md_adam", "synth.make_video",
}
FIRING = {
    "cyclic_offline": _EVAL_AND_MODELS | {"adapt.hmr_stage", "adapt.md_stage", "hmrnet.forward_np"},
    "online_causal": _EVAL_AND_MODELS | {"adapt.online"},
    "pretrain_denoiser": {
        "checkpoint.save", "diffcore.md_forward", "diffcore.md_backward", "mdnet.forward_np", "mdnet.graph_build",
        "optim.md_adam", "synth.make_video",
    },
}


@pytest.mark.parametrize("workload", list(FIRING))
def test_every_timing_still_fires(perfbench_modules, tmp_path, workload):
    """A refactor that stops calling a probed name through the module the
    probe patches leaves its timing empty without failing `install`."""
    layers, tracer = perfbench_modules
    import worker
    import workloads

    t = tracer.Tracer()
    record = worker.one_run(workload, 0, workloads.TINY, None, tmp_path, t)
    assert record["error"] is None, record["error"]
    fired = {metric.removesuffix("_self") for metric, how in layers.TIMINGS if layers.timing_samples(t, metric, how)}
    assert FIRING[workload] <= fired, sorted(FIRING[workload] - fired)
