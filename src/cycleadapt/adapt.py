"""Cyclic test-time adaptation: two networks fine-tuning each other.

Each cycle runs one epoch of regressor updates over the video (batches in a
seeded-shuffled order, loss = 2D reprojection plus an L1 pull toward stored
pseudo-ground-truth, the latter disabled in the first cycle), then a handful
of denoiser updates on random windows of the stored poses (masked
self-supervision), whose unmasked outputs overwrite the stored thetas. A
single cosine learning-rate schedule spans every optimizer step of the whole
run, with separate Adam moments per network. The causal online pass is built
from the same two steps, `hmr_step` and `md_step`; source pre-training is
`hmr_step` with ground truth as the targets (`benchmark.hmr_pretrain`).

Nothing in this module reads 3D ground truth. Adaptation consumes features
and 2D keypoints only (`AdaptInputs`); quality measurement happens through
an optional evaluator callback that the caller builds from whatever
references it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bodymodel import BETA_SIZE, THETA_SIZE, BodyModel
from .checkpoint import save_hmr, save_md
from . import diffcore
from .diffcore import Graph, backward_from_values, evaluate
from .hmrnet import HmrConfig, hmr_forward, hmr_forward_graph, hmr_loss_graph
from .mdnet import (
    MdConfig,
    gaussian_filter_baseline,
    md_forward,
    md_forward_graph,
    md_loss_graph,
    sample_mask,
)
from .optim import InvariantError, adam_init, adam_step, cosine_lr

DENOISERS = ("mdnet", "gaussian")


@dataclass(frozen=True)
class AdaptInputs:
    """What adaptation is allowed to see: per-frame features and 2D keypoints."""

    features: np.ndarray  # (N, F)
    keypoints: np.ndarray  # (N, J, 3) as (x, y, confidence)

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        kps = np.asarray(self.keypoints, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError(f"AdaptInputs.features must be (N, F), got {feats.shape}")
        if kps.ndim != 3 or kps.shape[0] != feats.shape[0] or kps.shape[2] != 3:
            raise ValueError(f"AdaptInputs.keypoints must be (N, J, 3), got {kps.shape}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "keypoints", kps)

    @property
    def frame_count(self) -> int:
        return self.features.shape[0]


def adapt_inputs(video) -> AdaptInputs:
    """Strip a synthetic video down to what adaptation may consume."""
    return AdaptInputs(features=np.array(video.features), keypoints=np.array(video.keypoints))


class ResultStore:
    """Frame-indexed pseudo-ground-truth dictionary, zero-initialized.

    `write_hmr` replaces both parameter vectors and marks the rows as raw
    regressor output; `write_md` replaces thetas only and marks the rows as
    denoised. `md_written` is what the online loop keys on to decide whether
    a stored row may serve as a 3D target.
    """

    def __init__(self, n_frames: int) -> None:
        if n_frames < 1:
            raise InvariantError(f"ResultStore needs at least one frame, got {n_frames}")
        self.theta = np.zeros((n_frames, THETA_SIZE))
        self.beta = np.zeros((n_frames, BETA_SIZE))
        self.md_written = np.zeros(n_frames, dtype=bool)

    @property
    def size(self) -> int:
        return self.theta.shape[0]

    def fetch(self, indices) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(indices, dtype=int)
        return self.theta[idx].copy(), self.beta[idx].copy()

    def write_hmr(self, indices, theta, beta) -> None:
        idx = np.asarray(indices, dtype=int)
        theta = np.asarray(theta, dtype=np.float64)
        beta = np.asarray(beta, dtype=np.float64)
        if theta.shape != (idx.size, THETA_SIZE) or beta.shape != (idx.size, BETA_SIZE):
            raise InvariantError(f"write_hmr: got theta {theta.shape}, beta {beta.shape} for {idx.size} rows")
        self.theta[idx] = theta
        self.beta[idx] = beta
        self.md_written[idx] = False

    def write_md(self, indices, theta) -> None:
        idx = np.asarray(indices, dtype=int)
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (idx.size, THETA_SIZE):
            raise InvariantError(f"write_md: got theta {theta.shape} for {idx.size} rows")
        self.theta[idx] = theta
        self.md_written[idx] = True


@dataclass(frozen=True)
class AdaptConfig:
    cycles: int = 12
    batch: int = 32
    lr_start: float = 5e-5
    lr_end: float = 1e-6
    gamma: float = 0.001
    seed: int = 0
    frozen_mdnet: bool = False
    frozen_hmrnet: bool = False
    no_3d_loss: bool = False
    unweighted_2d: bool = False
    md_denoiser: str = "mdnet"
    gaussian_std: float = 2.0

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"AdaptConfig.cycles must be >= 0, got {self.cycles}")
        if self.batch < 1:
            raise ValueError(f"AdaptConfig.batch must be >= 1, got {self.batch}")
        if self.lr_start < self.lr_end or self.lr_end < 0:
            raise ValueError("AdaptConfig: need lr_start >= lr_end >= 0")
        if self.gamma < 0:
            raise ValueError(f"AdaptConfig.gamma must be >= 0, got {self.gamma}")
        if self.seed < 0:
            raise ValueError(f"AdaptConfig.seed must be >= 0, got {self.seed}")
        if self.md_denoiser not in DENOISERS:
            raise ValueError(f"AdaptConfig.md_denoiser must be one of {DENOISERS}, got {self.md_denoiser!r}")
        if self.gaussian_std <= 0:
            raise ValueError(f"AdaptConfig.gaussian_std must be > 0, got {self.gaussian_std}")


@dataclass
class AdaptOptimizers:
    """Shared step clock plus one Adam state per network.

    total_steps spans the offline loop's cosine schedule; the online pass
    keeps a constant rate and leaves it at 0.
    """

    hmr: object
    md: object
    clock: int
    total_steps: int = 0


def windows_per_cycle(n_frames: int, window: int) -> int:
    return -(-n_frames // window)


def _lr(opt: AdaptOptimizers, config: AdaptConfig) -> float:
    return cosine_lr(min(opt.clock, opt.total_steps), opt.total_steps, config.lr_start, config.lr_end)


def _check_loss(value: np.ndarray, stage: str, opt: AdaptOptimizers) -> None:
    if not np.isfinite(value):
        raise InvariantError(f"{stage} loss is {float(value)} at optimizer step {opt.clock}")


def hmr_step(
    inputs: AdaptInputs,
    idx: np.ndarray,
    model: BodyModel,
    hmr_config: HmrConfig,
    hmr_params: dict,
    opt: AdaptOptimizers,
    config: AdaptConfig,
    lr: float,
    pseudo_theta=None,
    pseudo_beta=None,
    rows=None,
) -> tuple[dict, np.ndarray, np.ndarray]:
    """One regressor update on the frames ``idx``, loss as in `hmr_loss_graph`.

    Returns the new parameters and the batch's theta and beta from the
    forward pass before the update; a frozen regressor only runs forward.
    A loss that is not finite raises `InvariantError`.
    """
    g = Graph()
    theta, beta, cam = hmr_forward_graph(g, hmr_config, g.const(inputs.features[idx]))
    loss = hmr_loss_graph(
        g, model, theta, beta, cam, idx.size, inputs.keypoints[idx], pseudo_theta=pseudo_theta,
        pseudo_beta=pseudo_beta, gamma=config.gamma, rows=rows, unweighted=config.unweighted_2d,
    )
    values = evaluate(g, hmr_params)
    _check_loss(values[loss], "regressor", opt)
    if not config.frozen_hmrnet:
        grads = backward_from_values(g, values, loss)
        hmr_params = adam_step(hmr_params, grads, opt.hmr, lr)
        opt.clock += 1
    return hmr_params, values[theta], values[beta]


def md_step(
    store: ResultStore,
    idx: np.ndarray,
    window_theta: np.ndarray,
    mask,
    md_config: MdConfig,
    md_params: dict,
    opt: AdaptOptimizers,
    config: AdaptConfig,
    lr: float,
) -> dict:
    """One denoiser update on a masked window, then the unmasked write-back.

    Rows of ``window_theta`` past ``idx`` are padding and never written. A
    frozen denoiser skips the update (and needs no mask) but still writes.
    A loss that is not finite raises `InvariantError`.
    """
    if not config.frozen_mdnet:
        masked_input = np.where(mask[:, None] > 0, 0.0, window_theta)
        g = Graph()
        out = md_forward_graph(g, md_config, g.const(masked_input))
        loss = md_loss_graph(g, out, window_theta, mask)
        # through `diffcore`: this module's `evaluate` and `backward_from_values`
        # are the regressor step's, and perfbench's probes time them apart by name
        values = diffcore.evaluate(g, md_params)
        _check_loss(values[loss], "denoiser", opt)
        grads = diffcore.backward_from_values(g, values, loss)
        md_params = adam_step(md_params, grads, opt.md, lr)
        opt.clock += 1
    denoised = md_forward(md_params, window_theta, ramp=md_config.ramp)
    store.write_md(idx, denoised[: idx.size])
    return md_params


def hmr_stage(
    inputs: AdaptInputs,
    store: ResultStore,
    model: BodyModel,
    hmr_config: HmrConfig,
    hmr_params: dict,
    opt: AdaptOptimizers,
    config: AdaptConfig,
    cycle_index: int,
    rng: np.random.Generator,
    trace=None,
) -> dict:
    """One seeded-shuffled epoch of regressor updates; returns new parameters.

    Pseudo targets come from the store as written by the previous cycle;
    they are ignored entirely in cycle 1. Every batch's forward outputs are
    written back to the store after that batch's update.
    """
    n = inputs.frame_count
    if store.size != n:
        raise InvariantError(f"hmr_stage: store has {store.size} rows for {n} frames")
    use_pseudo = cycle_index > 1 and not config.no_3d_loss
    order = rng.permutation(n)
    params = hmr_params
    for lo in range(0, n, config.batch):
        idx = order[lo : lo + config.batch]
        pseudo_theta, pseudo_beta = store.fetch(idx) if use_pseudo else (None, None)
        params, out_theta, out_beta = hmr_step(
            inputs, idx, model, hmr_config, params, opt, config, _lr(opt, config), pseudo_theta, pseudo_beta
        )
        if trace is not None:
            if use_pseudo:
                l_smpl = float(
                    np.abs(out_theta - pseudo_theta).mean()
                    + config.gamma * np.abs(out_beta - pseudo_beta).mean()
                )
            else:
                l_smpl = 0.0
            trace.setdefault("l_smpl", []).append((cycle_index, l_smpl))
        store.write_hmr(idx, out_theta, out_beta)
    return params


def md_stage(
    store: ResultStore,
    md_config: MdConfig,
    md_params: dict,
    opt: AdaptOptimizers,
    config: AdaptConfig,
    rng: np.random.Generator,
    trace=None,
) -> dict:
    """Denoiser updates on random store windows, then unmasked write-backs.

    Touches thetas only. With the gaussian denoiser the whole sequence is
    filtered once instead; with a frozen denoiser the write-backs still
    happen but no parameter moves.
    """
    n = store.size
    t = md_config.window
    beta_before = store.beta.copy() if trace is not None else None
    params = md_params

    if config.md_denoiser == "gaussian":
        store.write_md(np.arange(n), gaussian_filter_baseline(store.theta, config.gaussian_std))
    else:
        for _ in range(windows_per_cycle(n, t)):
            if n >= t:
                start = int(rng.integers(0, n - t + 1))
                idx = np.arange(start, start + t)
                window_theta = store.theta[idx].copy()
                mask = sample_mask(t, rng)
            else:
                # edge-replicate to a full window; padded rows never enter
                # the mask, the loss, or the write-back
                idx = np.arange(n)
                window_theta = np.concatenate([store.theta, np.repeat(store.theta[-1:], t - n, axis=0)])
                mask = np.concatenate([sample_mask(n, rng), np.zeros(t - n)])
            if trace is not None:
                trace.setdefault("mask_counts", []).append(int(mask.sum()))
            params = md_step(store, idx, window_theta, mask, md_config, params, opt, config, _lr(opt, config))

    if trace is not None and not np.array_equal(beta_before, store.beta):
        trace["md_beta_changed"] = True
    return params


@dataclass
class AdaptRun:
    hmr_params: dict
    md_params: dict
    store: ResultStore
    rows: list  # (cycle, source, report) tuples
    steps_taken: int


def _log_rows(rows, cycle, evaluator, hmr_params, inputs, store) -> None:
    theta, beta, _ = hmr_forward(hmr_params, inputs.features)
    rows.append((cycle, "hmrnet", evaluator(theta, beta)))
    if store is not None:
        rows.append((cycle, "store", evaluator(store.theta.copy(), store.beta.copy())))


def cycle_adapt(
    inputs: AdaptInputs,
    model: BodyModel,
    hmr_config: HmrConfig,
    hmr_params: dict,
    md_config: MdConfig,
    md_params: dict,
    config: AdaptConfig,
    evaluator=None,
    trace=None,
    checkpoint_dir=None,
) -> AdaptRun:
    """The full offline loop: `cycles` alternations of the two stages.

    The cycle-0 row evaluates the unadapted regressor (the zeroed store is
    not evaluable: zero pose codes are degenerate). Each later cycle logs
    one row for the regressor's outputs and one for the store contents.
    """
    n = inputs.frame_count
    store = ResultStore(n)
    if trace is not None:
        trace["store_init_max_abs"] = float(max(np.abs(store.theta).max(), np.abs(store.beta).max()))

    hmr_steps = 0 if config.frozen_hmrnet else -(-n // config.batch)
    md_trainable = not (config.no_3d_loss or config.frozen_mdnet or config.md_denoiser != "mdnet")
    md_steps = windows_per_cycle(n, md_config.window) if md_trainable else 0
    opt = AdaptOptimizers(
        hmr=adam_init(hmr_params),
        md=adam_init(md_params),
        clock=0,
        total_steps=max(1, config.cycles * (hmr_steps + md_steps)),
    )

    rows: list = []
    if evaluator is not None:
        _log_rows(rows, 0, evaluator, hmr_params, inputs, None)
    for cycle in range(1, config.cycles + 1):
        hmr_rng = np.random.default_rng(np.random.SeedSequence([config.seed, cycle, 0]))
        hmr_params = hmr_stage(
            inputs, store, model, hmr_config, hmr_params, opt, config, cycle, hmr_rng, trace
        )
        if not config.no_3d_loss:
            md_rng = np.random.default_rng(np.random.SeedSequence([config.seed, cycle, 1]))
            md_params = md_stage(store, md_config, md_params, opt, config, md_rng, trace)
        if evaluator is not None:
            _log_rows(rows, cycle, evaluator, hmr_params, inputs, store)
        if checkpoint_dir is not None:
            save_hmr(Path(checkpoint_dir) / f"hmr_cycle{cycle:02d}.ckpt", hmr_config, hmr_params)
            save_md(Path(checkpoint_dir) / f"md_cycle{cycle:02d}.ckpt", md_config, md_params)
    return AdaptRun(hmr_params, md_params, store, rows, steps_taken=opt.clock)


@dataclass
class OnlineRun:
    hmr_params: dict
    md_params: dict
    theta: np.ndarray  # (N, 144) causal per-frame outputs
    beta: np.ndarray  # (N, 10)
    report: object
    steps_taken: int


def online_adapt(
    inputs: AdaptInputs,
    model: BodyModel,
    hmr_config: HmrConfig,
    hmr_params: dict,
    md_config: MdConfig,
    md_params: dict,
    config: AdaptConfig,
    evaluator=None,
) -> OnlineRun:
    """Single causal pass: per-frame regressor updates, denoiser every T frames.

    Each arriving frame is adapted on a replay batch of itself plus up to
    batch-1 seeded past frames; the 3D pull applies per sample and only to
    rows the denoiser has written. The recorded output for frame i is the
    forward pass at arrival time, and the learning rate stays at lr_start
    (a schedule over the total frame count would leak the video's length
    into early steps), so truncating the video never changes earlier
    outputs.
    """
    n = inputs.frame_count
    t = md_config.window
    store = ResultStore(n)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0, 2]))
    opt = AdaptOptimizers(hmr=adam_init(hmr_params), md=adam_init(md_params), clock=0)
    out_theta = np.zeros((n, THETA_SIZE))
    out_beta = np.zeros((n, BETA_SIZE))

    for i in range(n):
        if i > 0:
            past = rng.choice(i, size=min(i, config.batch - 1), replace=False)
            idx = np.concatenate([[i], past]).astype(int)
        else:
            idx = np.array([i])
        hmr_params, theta, beta = hmr_step(
            inputs, idx, model, hmr_config, hmr_params, opt, config, config.lr_start,
            *store.fetch(idx), rows=store.md_written[idx],
        )
        out_theta[i] = theta[0]
        out_beta[i] = beta[0]
        store.write_hmr(np.array([i]), out_theta[i : i + 1], out_beta[i : i + 1])

        if not config.no_3d_loss and (i + 1) % t == 0:
            idx_w = np.arange(i - t + 1, i + 1)
            window_theta = store.theta[idx_w].copy()
            if config.md_denoiser == "gaussian":
                store.write_md(idx_w, gaussian_filter_baseline(window_theta, config.gaussian_std))
            else:
                mask = None if config.frozen_mdnet else sample_mask(t, rng)
                md_params = md_step(
                    store, idx_w, window_theta, mask, md_config, md_params, opt, config, config.lr_start
                )

    report = evaluator(out_theta, out_beta) if evaluator is not None else None
    return OnlineRun(hmr_params, md_params, out_theta, out_beta, report, steps_taken=opt.clock)
