"""The three benchmark workloads, written against the package's public API.

Each workload has a set-up (what a user run pays before it adapts or
trains) and a run (the part users wait for). Module attributes are looked
up at call time (`adapt.cycle_adapt`, not a bound name), so that probes
installed by the tracer see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cycleadapt import adapt, benchmark, checkpoint, cli, diffcore, hmrnet, mdnet

WORKLOADS = ("cyclic_offline", "online_causal", "pretrain_denoiser")


@dataclass(frozen=True)
class Size:
    """How much work one run does; fixed here, not read from the package."""

    frames: int = 500
    cycles: int = 12
    batch: int = 32
    # MD_PRETRAIN_PLAN is ((6000, 1e-3), (6000, 3e-4)), about 40 s; each
    # stage is cut to a sixth so that one run fits the run length
    md_plan: tuple = ((1000, 1e-3), (1000, 3e-4))
    source_videos: int = 6
    source_frames: int = 400
    pretrained: bool = True


STANDARD = Size()
# smoke size for the benchmark's own tests: random-init nets, seconds per run
TINY = Size(frames=60, cycles=2, md_plan=((10, 1e-3), (10, 3e-4)), source_videos=2, source_frames=80, pretrained=False)


def expected_steps(name: str, size: Size) -> int:
    """Optimizer steps of both nets in one run: 324, 510 and 2000 at STANDARD."""
    window = benchmark.MD_CONFIG.window
    if name == "cyclic_offline":
        return size.cycles * (-(-size.frames // size.batch) + -(-size.frames // window))
    if name == "online_causal":
        return size.frames + size.frames // window
    if name == "pretrain_denoiser":
        return sum(steps for steps, _ in size.md_plan)
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")


@dataclass
class Outcome:
    steps: int
    quality: dict  # name -> float, all lower-is-better errors
    digest: str  # sha256 of the run's deterministic output file
    arrays: list  # outputs that must be finite


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _warm_up_hmr(inputs, model, hmr_params, batch: int) -> None:
    """One throwaway regressor step, forward and backward, no update."""
    g = diffcore.Graph()
    idx = np.arange(min(batch, inputs.frame_count))
    theta, beta, cam = hmrnet.hmr_forward_graph(g, benchmark.HMR_CONFIG, g.const(inputs.features[idx]))
    loss = hmrnet.hmr_loss_graph(g, model, theta, beta, cam, idx.size, inputs.keypoints[idx])
    diffcore.backward_from_values(g, diffcore.evaluate(g, hmr_params), loss)


def _warm_up_md(md_params) -> None:
    """One throwaway denoiser step, forward and backward, no update."""
    config = benchmark.MD_CONFIG
    window = np.random.default_rng(0).normal(size=(config.window, config.pose_dim))
    g = diffcore.Graph()
    out = mdnet.md_forward_graph(g, config, g.const(window))
    loss = mdnet.md_loss_graph(g, out, window, np.ones(window.shape[0]))
    diffcore.backward(g, md_params, loss)


def _load_nets(seed: int, size: Size, nets_dir) -> tuple[dict, dict]:
    if not size.pretrained:
        return benchmark.random_nets(seed)
    _, hmr_params = checkpoint.load_hmr(Path(nets_dir) / "hmr_src.ckpt")
    _, md_params = checkpoint.load_md(Path(nets_dir) / "md_src.ckpt")
    return hmr_params, md_params


def setup(name: str, seed: int, size: Size, nets_dir, tracer=None) -> dict:
    """Everything a run needs before it starts, warm-up included.

    Warm-up is the last step of set-up: the first graph evaluation in a
    process is several times slower than steady state, and it is paid here,
    not inside the timed run. The tracer, if any, is paused for it.
    """
    model = benchmark.benchmark_body()
    if name == "pretrain_denoiser":
        base = benchmark.SOURCE_SEEDS[0] + size.source_videos * seed
        seeds = tuple(range(base, base + size.source_videos))
        videos = benchmark.make_source_videos(model, seeds=seeds, n_frames=size.source_frames)
        motions = [np.stack([p.theta for p in v.gt_params]) for v in videos]
        md_params = mdnet.md_init(benchmark.MD_CONFIG, seed=0)
        with _paused(tracer):
            _warm_up_md(md_params)
        return {"motions": motions, "md_params": md_params}
    video = benchmark.make_target_video(seed, n_frames=size.frames, model=model)
    hmr_params, md_params = _load_nets(seed, size, nets_dir)
    evaluator = benchmark.make_evaluator(model, video)
    if tracer is not None:
        evaluator = tracer.wrap(evaluator, "benchmark.evaluator")
    inputs = adapt.adapt_inputs(video)
    with _paused(tracer):
        _warm_up_hmr(inputs, model, hmr_params, size.batch)
        _warm_up_md(md_params)
    return {
        "model": model,
        "inputs": inputs,
        "hmr_params": hmr_params,
        "md_params": md_params,
        "evaluator": evaluator,
    }


@contextlib.contextmanager
def _paused(tracer):
    if tracer is not None:
        tracer.active = False
    try:
        yield
    finally:
        if tracer is not None:
            tracer.active = True


def run(name: str, state: dict, seed: int, size: Size, out_dir) -> Outcome:
    """The timed part of one run; writes its files into a fresh out_dir."""
    out = Path(out_dir)
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if name == "cyclic_offline":
        return _run_cyclic(state, seed, size, out)
    if name == "online_causal":
        return _run_online(state, seed, size, out)
    if name == "pretrain_denoiser":
        return _run_pretrain(state, size, out)
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")


def _report(prefix: str, rep) -> dict:
    return {
        f"{prefix}mpjpe_mm": rep.mpjpe,
        f"{prefix}pa_mpjpe_mm": rep.pa_mpjpe,
        f"{prefix}mpvpe_mm": rep.mpvpe,
        f"{prefix}accel_mm": rep.accel,
    }


def _run_cyclic(state: dict, seed: int, size: Size, out: Path) -> Outcome:
    result = adapt.cycle_adapt(
        state["inputs"],
        state["model"],
        benchmark.HMR_CONFIG,
        state["hmr_params"],
        benchmark.MD_CONFIG,
        state["md_params"],
        adapt.AdaptConfig(seed=seed, cycles=size.cycles, batch=size.batch),
        evaluator=state["evaluator"],
        checkpoint_dir=out,
    )
    cli.emit_metrics_csv(out / "metrics.csv", result.rows)
    hmr_rows = [rep for _, source, rep in result.rows if source == "hmrnet"]
    store_rows = [rep for _, source, rep in result.rows if source == "store"]
    quality = _report("final_", hmr_rows[-1])
    quality["store_mpjpe_mm"] = store_rows[-1].mpjpe
    quality["start_mpjpe_mm"] = hmr_rows[0].mpjpe
    arrays = [*result.hmr_params.values(), *result.md_params.values(), result.store.theta, result.store.beta]
    return Outcome(result.steps_taken, quality, _sha256(out / "metrics.csv"), arrays)


def _run_online(state: dict, seed: int, size: Size, out: Path) -> Outcome:
    result = adapt.online_adapt(
        state["inputs"],
        state["model"],
        benchmark.HMR_CONFIG,
        state["hmr_params"],
        benchmark.MD_CONFIG,
        state["md_params"],
        adapt.AdaptConfig(seed=seed, batch=size.batch),
        evaluator=state["evaluator"],
    )
    checkpoint.save_hmr(out / "hmr_final.ckpt", benchmark.HMR_CONFIG, result.hmr_params)
    checkpoint.save_md(out / "md_final.ckpt", benchmark.MD_CONFIG, result.md_params)
    cli.emit_metrics_csv(out / "metrics.csv", [(0, "hmrnet", result.report)])
    arrays = [*result.hmr_params.values(), *result.md_params.values(), result.theta, result.beta]
    return Outcome(result.steps_taken, _report("final_", result.report), _sha256(out / "metrics.csv"), arrays)


def _run_pretrain(state: dict, size: Size, out: Path) -> Outcome:
    params = state["md_params"]
    steps = 0
    curves = []
    for stage, (stage_steps, lr) in enumerate(size.md_plan):
        params, curve = mdnet.md_pretrain(
            benchmark.MD_CONFIG,
            params,
            state["motions"],
            sigma=benchmark.MD_PRETRAIN_SIGMA,
            steps=stage_steps,
            lr=lr,
            seed=stage,
        )
        steps += curve[-1][0]
        curves.append(curve)
    checkpoint.save_md(out / "md.ckpt", benchmark.MD_CONFIG, params)
    quality = {"md_eval_l1": curves[-1][-1][1], "start_md_eval_l1": curves[0][0][1]}
    return Outcome(steps, quality, _sha256(out / "md.ckpt"), list(params.values()))
