"""Cyclic test-time adaptation: two networks fine-tuning each other.

Each cycle runs one epoch of regressor updates over the video (batches in a
seeded-shuffled order, loss = 2D reprojection plus an L1 pull toward stored
pseudo-ground-truth, the latter disabled in the first cycle), then a handful
of denoiser updates on random windows of the stored poses (masked
self-supervision), whose unmasked outputs overwrite the stored thetas. Each
net has one bare Adam state, and each step call is one update of its net.
One cosine learning-rate schedule spans the whole run; the stages read it
through a zero-argument ``lr`` whose position is the two states' summed
update count. The causal online pass takes the same two steps, `hmr_step`
and `md_step`, at a constant rate; source pre-training is `hmr_step` with
ground truth as the targets (`benchmark.hmr_pretrain`). A frozen
regressor's outputs are its forward pass (`hmr_forward`) on the same
batches, and a frozen denoiser's `md_step` gets no mask and only writes
back; both draw the random numbers a trained net would.

Each training loop (`cycle_adapt`, `online_adapt`, and `hmr_pretrain` and
`mdnet.md_pretrain` outside this module) owns a shallow copy of each
parameter dict it is given and returns that copy. The steps and stages
update the loop's dict through `adam_step`, which replaces its arrays one at
a time and never writes into one, so the caller's dicts and arrays stay as
they were: one pretrained pair serves any number of runs.

Nothing in this module reads 3D ground truth. Adaptation consumes features
and 2D keypoints only (`AdaptInputs`); quality measurement happens through
the evaluator callback that the caller builds from whatever references it
holds. The loop has no other hook: `cycle_adapt` calls the
stages and the stages call the steps by their names in this module, so a
wrapper put in their place observes every call.
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
from .optim import InvariantError, OptState, adam_init, adam_step, check_loss, cosine_lr

DENOISERS = ("mdnet", "frozen_mdnet", "gaussian", "none")


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
        return self.theta[idx], self.beta[idx]

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
    """Knobs of one adaptation run.

    ``md_denoiser`` picks where the regressor's 3D targets come from: the
    cyclically adapted denoiser (``"mdnet"``), the pre-trained denoiser held
    fixed (``"frozen_mdnet"``, the non-cyclic ablation), a temporal Gaussian
    filter in its place (``"gaussian"``), or nowhere (``"none"``, 2D-only
    adaptation: no pull and no denoiser stage).
    """

    cycles: int = 12
    batch: int = 32
    lr_start: float = 5e-5
    lr_end: float = 1e-6
    gamma: float = 0.001
    seed: int = 0
    frozen_hmrnet: bool = False
    md_denoiser: str = "mdnet"
    gaussian_std: float = 2.0

    def __post_init__(self) -> None:
        for name in ("lr_start", "lr_end", "gamma", "gaussian_std"):  # in the config parser's words
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"AdaptConfig.{name} must be a finite number, got {getattr(self, name)!r}")
        if self.cycles < 0:
            raise ValueError(f"AdaptConfig.cycles must be >= 0, got {self.cycles}")
        if self.batch < 1:
            raise ValueError(f"AdaptConfig.batch must be >= 1, got {self.batch}")
        if not 0 <= self.lr_end <= self.lr_start:
            raise ValueError(f"AdaptConfig.lr_end must be in [0, lr_start {self.lr_start}], got {self.lr_end}")
        if not self.gamma >= 0:
            raise ValueError(f"AdaptConfig.gamma must be >= 0, got {self.gamma}")
        if self.seed < 0:
            raise ValueError(f"AdaptConfig.seed must be >= 0, got {self.seed}")
        if self.md_denoiser not in DENOISERS:
            raise ValueError(f"AdaptConfig.md_denoiser must be one of {DENOISERS}, got {self.md_denoiser!r}")
        if not self.gaussian_std > 0:
            raise ValueError(f"AdaptConfig.gaussian_std must be > 0, got {self.gaussian_std}")


def windows_per_cycle(n_frames: int, window: int) -> int:
    return -(-n_frames // window)


def hmr_step(
    inputs: AdaptInputs,
    idx: np.ndarray,
    model: BodyModel,
    hmr_config: HmrConfig,
    hmr_params: dict,
    state: OptState,
    gamma: float,
    lr: float,
    pseudo_theta=None,
    pseudo_beta=None,
    rows=None,
) -> tuple[np.ndarray, np.ndarray]:
    """One regressor update of ``hmr_params`` on the frames ``idx``, loss as
    in `hmr_loss_graph` with the beta pull weighted by ``gamma``.

    Returns the batch's theta and beta from the forward pass before the
    update. A loss that is not finite raises `InvariantError` (`check_loss`).
    """
    g = Graph()
    theta, beta, cam = hmr_forward_graph(g, hmr_config, g.const(inputs.features[idx]))
    loss = hmr_loss_graph(
        g, model, theta, beta, cam, idx.size, inputs.keypoints[idx], pseudo_theta=pseudo_theta,
        pseudo_beta=pseudo_beta, gamma=gamma, rows=rows,
    )
    values = evaluate(g, hmr_params)
    check_loss(values[loss], "regressor", state)
    out_theta, out_beta = values[theta], values[beta]
    grads = backward_from_values(g, values, loss)
    # the pass consumed the forward values; the tape's constants are dead too
    del g
    adam_step(hmr_params, grads, state, lr)
    return out_theta, out_beta


def md_step(
    store: ResultStore,
    idx: np.ndarray,
    window_theta: np.ndarray,
    mask,
    md_config: MdConfig,
    md_params: dict,
    state: OptState,
    lr: float,
) -> None:
    """One denoiser update of ``md_params`` on a window masked by ``mask``,
    then the unmasked write-back.

    With ``mask`` None (a frozen denoiser) there is only the write-back.
    Rows of ``window_theta`` past ``idx`` are padding and never written. A
    loss or a written pose that is not finite raises `InvariantError`.
    """
    if mask is not None:
        masked_input = np.where(mask[:, None] > 0, 0.0, window_theta)
        g = Graph()
        out = md_forward_graph(g, md_config, g.const(masked_input))
        loss = md_loss_graph(g, out, window_theta, mask)
        # through `diffcore`: this module's `evaluate` and `backward_from_values`
        # are the regressor step's, and perfbench's probes time them apart by name
        values = diffcore.evaluate(g, md_params)
        check_loss(values[loss], "denoiser", state)
        grads = diffcore.backward_from_values(g, values, loss)
        adam_step(md_params, grads, state, lr)
    denoised = md_forward(md_params, window_theta)[: idx.size]
    if not np.all(np.isfinite(denoised)):
        raise InvariantError(f"denoiser wrote non-finite poses (Adam updates completed: {state.step})")
    store.write_md(idx, denoised)


def hmr_stage(
    inputs: AdaptInputs,
    store: ResultStore,
    model: BodyModel,
    hmr_config: HmrConfig,
    hmr_params: dict,
    state: OptState,
    lr,
    config: AdaptConfig,
    cycle_index: int,
    rng: np.random.Generator,
) -> None:
    """One seeded-shuffled epoch of `hmr_step` updates at the rate ``lr()``.

    Pseudo targets come from the store as written by the previous cycle;
    they are ignored entirely in cycle 1. Every batch's forward outputs are
    written back to the store after that batch's update; a frozen
    regressor's are those of `hmr_forward` on the same batch.
    """
    n = inputs.frame_count
    if store.size != n:
        raise InvariantError(f"hmr_stage: store has {store.size} rows for {n} frames")
    use_pseudo = cycle_index > 1 and config.md_denoiser != "none"
    order = rng.permutation(n)
    for lo in range(0, n, config.batch):
        idx = order[lo : lo + config.batch]
        if config.frozen_hmrnet:
            out_theta, out_beta, _ = hmr_forward(hmr_params, inputs.features[idx])
        else:
            pseudo = store.fetch(idx) if use_pseudo else (None, None)
            out_theta, out_beta = hmr_step(
                inputs, idx, model, hmr_config, hmr_params, state, config.gamma, lr(), *pseudo
            )
        store.write_hmr(idx, out_theta, out_beta)


def md_stage(
    store: ResultStore,
    md_config: MdConfig,
    md_params: dict,
    state: OptState,
    lr,
    config: AdaptConfig,
    rng: np.random.Generator,
) -> None:
    """`md_step` updates at the rate ``lr()`` on random store windows, each
    followed by its unmasked write-back.

    Touches thetas only. With the gaussian denoiser the whole sequence is
    filtered once instead; a frozen denoiser's masks are drawn but not
    given to `md_step`, so only the write-backs happen.
    """
    n = store.size
    t = md_config.window

    if config.md_denoiser == "gaussian":
        store.write_md(np.arange(n), gaussian_filter_baseline(store.theta, config.gaussian_std))
    else:
        for _ in range(windows_per_cycle(n, t)):
            if n >= t:
                start = int(rng.integers(0, n - t + 1))
                idx = np.arange(start, start + t)
                window_theta = store.theta[idx]
                mask = sample_mask(t, rng)
            else:
                # edge-replicate to a full window; padded rows never enter
                # the mask, the loss, or the write-back
                idx = np.arange(n)
                window_theta = np.concatenate([store.theta, np.repeat(store.theta[-1:], t - n, axis=0)])
                mask = np.concatenate([sample_mask(n, rng), np.zeros(t - n)])
            mask = mask if config.md_denoiser == "mdnet" else None  # drawn all the same
            md_step(store, idx, window_theta, mask, md_config, md_params, state, lr())


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
    evaluator,
    checkpoint_dir=None,
) -> AdaptRun:
    """The full offline loop: `cycles` alternations of the two stages.

    The cycle-0 row evaluates the unadapted regressor (the zeroed store is
    not evaluable: zero pose codes are degenerate). Each later cycle logs
    one row for the regressor's outputs and one for the store contents.
    The run trains and returns its own copies of the two parameter dicts.
    """
    n = inputs.frame_count
    store = ResultStore(n)
    hmr_params, md_params = dict(hmr_params), dict(md_params)

    hmr_steps = 0 if config.frozen_hmrnet else -(-n // config.batch)
    md_steps = windows_per_cycle(n, md_config.window) if config.md_denoiser == "mdnet" else 0
    total = max(1, config.cycles * (hmr_steps + md_steps))
    hmr_state, md_state = adam_init(hmr_params), adam_init(md_params)

    def lr() -> float:
        return cosine_lr(hmr_state.step + md_state.step, total, config.lr_start, config.lr_end)

    rows: list = []
    _log_rows(rows, 0, evaluator, hmr_params, inputs, None)
    for cycle in range(1, config.cycles + 1):
        hmr_rng = np.random.default_rng(np.random.SeedSequence([config.seed, cycle, 0]))
        hmr_stage(inputs, store, model, hmr_config, hmr_params, hmr_state, lr, config, cycle, hmr_rng)
        if config.md_denoiser != "none":
            md_rng = np.random.default_rng(np.random.SeedSequence([config.seed, cycle, 1]))
            md_stage(store, md_config, md_params, md_state, lr, config, md_rng)
        _log_rows(rows, cycle, evaluator, hmr_params, inputs, store)
        if checkpoint_dir is not None:
            save_hmr(Path(checkpoint_dir) / f"hmr_cycle{cycle:02d}.ckpt", hmr_config, hmr_params)
            save_md(Path(checkpoint_dir) / f"md_cycle{cycle:02d}.ckpt", md_config, md_params)
    return AdaptRun(hmr_params, md_params, store, rows, steps_taken=hmr_state.step + md_state.step)


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
    evaluator,
) -> OnlineRun:
    """Single causal pass: per-frame regressor updates, denoiser every T frames.

    Each arriving frame is adapted on a replay batch of itself plus up to
    batch-1 seeded past frames; the 3D pull applies per sample and only to
    rows the denoiser has written. The recorded output for frame i is the
    forward pass at arrival time, and the learning rate stays at lr_start
    (a schedule over the total frame count would leak the video's length
    into early steps), so truncating the video never changes earlier
    outputs. The pass trains and returns its own copies of the two
    parameter dicts.
    """
    n = inputs.frame_count
    t = md_config.window
    store = ResultStore(n)
    hmr_params, md_params = dict(hmr_params), dict(md_params)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0, 2]))
    hmr_state, md_state = adam_init(hmr_params), adam_init(md_params)
    out_theta = np.zeros((n, THETA_SIZE))
    out_beta = np.zeros((n, BETA_SIZE))

    for i in range(n):
        if i > 0:
            past = rng.choice(i, size=min(i, config.batch - 1), replace=False)
            idx = np.concatenate([[i], past]).astype(int)
        else:
            idx = np.array([i])
        if config.frozen_hmrnet:
            theta, beta, _ = hmr_forward(hmr_params, inputs.features[idx])
        else:
            theta, beta = hmr_step(
                inputs, idx, model, hmr_config, hmr_params, hmr_state, config.gamma, config.lr_start,
                *store.fetch(idx), rows=store.md_written[idx],
            )
        out_theta[i] = theta[0]
        out_beta[i] = beta[0]
        store.write_hmr(np.array([i]), out_theta[i : i + 1], out_beta[i : i + 1])

        if config.md_denoiser != "none" and (i + 1) % t == 0:
            idx_w = np.arange(i - t + 1, i + 1)
            window_theta = store.theta[idx_w]
            if config.md_denoiser == "gaussian":
                store.write_md(idx_w, gaussian_filter_baseline(window_theta, config.gaussian_std))
            else:
                mask = sample_mask(t, rng) if config.md_denoiser == "mdnet" else None
                md_step(store, idx_w, window_theta, mask, md_config, md_params, md_state, config.lr_start)

    report = evaluator(out_theta, out_beta)
    return OnlineRun(hmr_params, md_params, out_theta, out_beta, report, steps_taken=hmr_state.step + md_state.step)
