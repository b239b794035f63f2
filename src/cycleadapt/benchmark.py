"""The standard desk-scale benchmark: body, domains, pre-training, the experiment table and its runs.

`Body`, `Pretrain`, `SOURCE` and `TARGET` are the standard set-up; they are
also the ``body``, ``pretrain``, ``source`` and ``target`` sections of the
command line's config, so each setting and its check is declared here once.

One source domain (clean keypoints, ground truth available) pre-trains both
networks; one target domain (noisy, dropped keypoints, shifted feature map)
is what adaptation runs on. The two domains share their motion ranges, so
the denoiser's motion prior transfers; the gap lives in the feature map,
which for the target is the source map pulled partway toward an independent
one, plus the keypoint error model and much stronger feature noise.

The constants below were calibrated together and move as a set. Motions are
slow relative to the frame rate (periods of 25 to 100 frames) so per-frame
noise and actual motion occupy different frequency bands, the way real video
does; target feature noise is strong enough that the regressor's outputs
jitter, which is exactly the error component a temporal prior can remove;
and the denoiser is pre-trained below full convergence at a noise level
under the target's effective jitter, leaving its adaptation stage genuine
headroom on the test video.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .adapt import (
    AdaptConfig,
    AdaptInputs,
    AdaptRun,
    OnlineRun,
    adapt_inputs,
    cycle_adapt,
    hmr_step,
    online_adapt,
)
from .bodymodel import BodyModel, body_forward_batch, build_toy_body, project_weak_perspective, scale_body
from .checkpoint import save_hmr, save_md
from .diffcore import DegenerateRotationError
from .hmrnet import HmrConfig, hmr_forward, hmr_init
from .mdnet import MdConfig, md_init, md_pretrain
from .metrics import MetricReport, evaluate_sequence, vertex_errors
from .optim import InvariantError, adam_init
from .synth import DomainSpec, SyntheticVideo, make_video, mixing_matrices

N_FRAMES = 500
FEATURE_DIM = 512
JOINTS = 24
GAP_ALPHA = 0.35
FREQ_RANGE = (0.01, 0.04)
AMP_RANGE = (0.2, 0.6)

# the evaluator poses and scores at most this many frames at a time; a video
# is split into even blocks, because a one-row block's posing goes through
# gemv, whose bits differ from the same frame's in a larger batch
_EVAL_FRAMES = 64

SOURCE_SEEDS = tuple(range(1000, 1006))
SOURCE_FRAMES = 400
MD_PRETRAIN_SIGMA = 0.05
# (steps, lr) stages run back to back; two stages with a decayed rate land
# the denoiser well-trained but short of convergence on purpose
MD_PRETRAIN_PLAN = ((6000, 1e-3), (6000, 3e-4))

HMR_CONFIG = HmrConfig(feature_dim=FEATURE_DIM)
MD_CONFIG = MdConfig()

SOURCE = DomainSpec(
    name="source",
    freq_range=FREQ_RANGE,
    amp_range=AMP_RANGE,
    mixing_seed=101,
    feature_noise_std=0.01,
    kp_noise_std=0.0,
    p_drop=0.0,
)
TARGET = DomainSpec(
    name="target",
    freq_range=FREQ_RANGE,
    amp_range=AMP_RANGE,
    mixing_seed=202,
    feature_noise_std=0.3,
    kp_noise_std=0.02,
    p_drop=0.2,
)


@dataclass(frozen=True)
class Body:
    """The toy body every video is posed with (`benchmark_body`)."""

    seed: int = 7
    vertices: int = 120
    scale: float = 0.15

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"Body.seed must be >= 0, got {self.seed}")
        if self.vertices < JOINTS:
            raise ValueError(f"Body.vertices must be >= {JOINTS} (one per joint), got {self.vertices}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"Body.scale must be a finite number > 0, got {self.scale}")


@dataclass(frozen=True)
class Pretrain:
    """The source pre-training recipe of both nets (`pretrain_nets`)."""

    hmr_steps: int = 4000
    hmr_lr: float = 1e-3
    md_sigma: float = MD_PRETRAIN_SIGMA
    md_plan: tuple = MD_PRETRAIN_PLAN

    def __post_init__(self) -> None:
        # in the words the config parser uses for a non-finite JSON number
        for name in ("hmr_lr", "md_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"Pretrain.{name} must be a finite number, got {getattr(self, name)!r}")
        if self.hmr_steps < 1:
            raise ValueError(f"Pretrain.hmr_steps must be >= 1, got {self.hmr_steps}")
        if self.hmr_lr <= 0:
            raise ValueError(f"Pretrain.hmr_lr must be > 0, got {self.hmr_lr}")
        if self.md_sigma < 0:
            raise ValueError(f"Pretrain.md_sigma must be >= 0, got {self.md_sigma}")
        if not self.md_plan or not all(s >= 1 and 0 < lr < math.inf for s, lr in self.md_plan):
            raise ValueError("Pretrain.md_plan needs at least one (steps >= 1, lr > 0) stage")

# the paper's experiments: suite -> rows of (label, the AdaptConfig fields the
# row overrides in the caller's base, random_init or None for the caller's
# nets, the row source it reports); `run_suite` runs them
_FULL = {"md_denoiser": "mdnet"}
_FROZEN = {"frozen_hmrnet": True, "md_denoiser": "frozen_mdnet"}  # regressor and denoiser held fixed
SUITES = {
    "table1": (
        ("frozen_hmrnet", _FROZEN, None, "hmrnet"),
        ("store_before", _FROZEN, None, "store"),
        ("store_after", {"frozen_hmrnet": True, "md_denoiser": "mdnet"}, None, "store"),
    ),
    "table2": (
        ("no_adapt", {"cycles": 0}, None, "hmrnet"),  # keeps the base's denoiser
        ("2d_only", {"md_denoiser": "none"}, None, "hmrnet"),
        ("3d_noncyclic", {"md_denoiser": "frozen_mdnet"}, None, "hmrnet"),
        ("full_cyclic", _FULL, None, "hmrnet"),
    ),
    "table4": (("full_cyclic", _FULL, None, "hmrnet"), ("gaussian", {"md_denoiser": "gaussian"}, None, "hmrnet")),
    "suppE": (("pretrained", _FULL, False, "hmrnet"), ("random_init", _FULL, True, "hmrnet")),
}


def benchmark_body(body: Body = Body()) -> BodyModel:
    return scale_body(build_toy_body(body.seed, joints=JOINTS, vertices=body.vertices), body.scale)


def target_mixing(
    feature_dim: int = FEATURE_DIM,
    alpha: float = GAP_ALPHA,
    source: DomainSpec = SOURCE,
    target: DomainSpec = TARGET,
):
    """Target feature map: source map blended toward an independent one.

    alpha = 0 is no gap at all, alpha = 1 an unrelated map; in between, a
    source-fit regressor is systematically wrong but correctable.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"target_mixing: alpha must be in [0, 1], got {alpha}")
    a_src, b_src = mixing_matrices(source, feature_dim)
    a_far, b_far = mixing_matrices(target, feature_dim)
    return (1.0 - alpha) * a_src + alpha * a_far, (1.0 - alpha) * b_src + alpha * b_far


def make_target_video(
    seed: int,
    n_frames: int = N_FRAMES,
    feature_dim: int = FEATURE_DIM,
    model: BodyModel | None = None,
    alpha: float = GAP_ALPHA,
    source: DomainSpec = SOURCE,
    target: DomainSpec = TARGET,
) -> SyntheticVideo:
    model = benchmark_body() if model is None else model
    mixing = target_mixing(feature_dim, alpha, source, target)
    return make_video(target, model, n_frames, feature_dim, seed, mixing=mixing)


def make_source_videos(
    model: BodyModel | None = None,
    seeds=SOURCE_SEEDS,
    n_frames: int = SOURCE_FRAMES,
    feature_dim: int = FEATURE_DIM,
    source: DomainSpec = SOURCE,
) -> list:
    model = benchmark_body() if model is None else model
    mixing = mixing_matrices(source, feature_dim)
    return [make_video(source, model, n_frames, feature_dim, s, mixing=mixing) for s in seeds]


def pose_blocks(model: BodyModel, theta, beta):
    """Pose a sequence in ceil(frames / _EVAL_FRAMES) blocks of near-equal size:
    yields (rows, vertices, joints) per block, rows a slice of the sequence. A
    degenerate pose code is named by its row in the sequence, not in the block."""
    frames = len(theta)
    count = max(1, -(-frames // _EVAL_FRAMES))
    for k in range(count):
        rows = slice(frames * k // count, frames * (k + 1) // count)
        try:
            verts, joints = body_forward_batch(model, theta[rows], beta[rows])
        except DegenerateRotationError as err:
            raise DegenerateRotationError(err.what, err.row + rows.start, err.joint) from None
        yield rows, verts, joints


def make_evaluator(model: BodyModel, video: SyntheticVideo):
    """Closure over the ground truth, whose mesh its first call poses; adaptation never sees it.

    It poses the ground-truth mesh and each prediction in blocks of at most
    _EVAL_FRAMES frames, writes each block's `vertex_errors` into one
    (frames, vertices) array and keeps the joints whole for the joint
    metrics, so no whole-video prediction mesh or error temporary exists.
    The blocks split the video evenly, never into a one-frame tail, so the
    reports are those of whole-video posing, bit for bit. A degenerate pose
    code or a non-finite prediction is named by its frame in the video. The
    ground-truth mesh is kept only once every block of it is posed, so a
    call that fails there leaves the next call to pose it again.
    """
    gt_joints, gt_params, gt_mesh = video.gt_joints, video.gt_params, None
    frames = len(gt_joints)

    def evaluator(theta: np.ndarray, beta: np.ndarray) -> MetricReport:
        nonlocal gt_mesh, gt_params
        if gt_mesh is None:
            mesh = np.empty((frames, model.vertex_count, 3))
            for rows, verts, _ in pose_blocks(model, gt_params.theta, gt_params.beta):
                mesh[rows] = verts
            gt_mesh, gt_params = mesh, None
        theta, beta = np.asarray(theta, dtype=np.float64), np.asarray(beta, dtype=np.float64)
        if len(theta) != frames or len(beta) != frames:
            raise ValueError(f"evaluator: {len(theta)} pose and {len(beta)} shape rows for a {frames}-frame video")
        joints = np.empty(gt_joints.shape)
        errors = np.empty((frames, model.vertex_count))
        for rows, verts, block_joints in pose_blocks(model, theta, beta):
            joints[rows] = block_joints
            errors[rows] = vertex_errors(verts, gt_mesh[rows], block_joints[:, 0], gt_joints[rows, 0])
        return evaluate_sequence(joints, gt_joints, errors)

    return evaluator


def random_nets(seed: int, hmr_config: HmrConfig = HMR_CONFIG, md_config: MdConfig = MD_CONFIG):
    return hmr_init(hmr_config, seed=seed), md_init(md_config, seed=seed)


def pool_source_frames(videos) -> tuple[AdaptInputs, np.ndarray, np.ndarray]:
    """Every frame of the source videos: features with the exact, confidence-one
    projections of the true joints, then the true thetas and betas."""
    if not videos:
        raise ValueError("pool_source_frames: need at least one video")
    keypoints = []
    for video in videos:
        clean = np.ones(video.gt_joints.shape)
        clean[:, :, :2] = project_weak_perspective(video.gt_camera, video.gt_joints)
        keypoints.append(clean)
    inputs = AdaptInputs(np.concatenate([v.features for v in videos]), np.concatenate(keypoints))
    thetas = np.concatenate([v.gt_params.theta for v in videos])
    betas = np.concatenate([v.gt_params.beta for v in videos])
    return inputs, thetas, betas


def pose_code_error(params: dict, features, thetas) -> float:
    """Mean absolute 6D-code error of the regressor on given frames (tau on source frames)."""
    theta_hat, _, _ = hmr_forward(params, np.asarray(features, dtype=np.float64))
    return float(np.abs(theta_hat - np.asarray(thetas, dtype=np.float64)).mean())


def hmr_pretrain(
    model: BodyModel,
    config: HmrConfig,
    params: dict,
    videos,
    steps: int = 800,
    batch: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
) -> tuple[dict, list]:
    """Supervised source pre-training: the adaptation step with ground-truth targets.

    Each seeded batch is one `hmr_step` with the true theta and beta as its
    3D targets at full weight (gamma 1) and clean keypoints as its 2D ones;
    a loss that is not finite raises `InvariantError`. Returns (params,
    curve): params is the loop's own trained copy of the dict given, and
    the curve holds (step, source pose-code error) pairs on a fixed set of
    up to 256 frames from step 0 on; the last error is tau.
    """
    if steps < 1 or batch < 1:
        raise ValueError(f"hmr_pretrain: steps and batch must be >= 1, got {steps}, {batch}")
    inputs, thetas, betas = pool_source_frames(videos)
    n = inputs.frame_count
    rng = np.random.default_rng(seed)
    eval_idx = rng.choice(n, size=min(256, n), replace=False)
    params = dict(params)
    state = adam_init(params)
    every = max(1, -(-steps // 5))
    curve = [(0, pose_code_error(params, inputs.features[eval_idx], thetas[eval_idx]))]
    for step in range(1, steps + 1):
        idx = rng.choice(n, size=min(batch, n), replace=False)
        hmr_step(inputs, idx, model, config, params, state, 1.0, lr, thetas[idx], betas[idx])
        if step % every == 0 or step == steps:
            curve.append((step, pose_code_error(params, inputs.features[eval_idx], thetas[eval_idx])))
    return params, curve


def pretrain_nets(
    model: BodyModel | None = None,
    cache_dir=None,
    recipe: Pretrain = Pretrain(),
    videos: list | None = None,
    hmr_config: HmrConfig = HMR_CONFIG,
    md_config: MdConfig = MD_CONFIG,
) -> tuple[dict, dict, float]:
    """Both networks trained on source videos by ``recipe``, plus the recorded tau.

    The regressor takes ``recipe.hmr_steps`` steps at ``recipe.hmr_lr``; the
    denoiser runs the stages of ``recipe.md_plan`` at noise ``recipe.md_sigma``.
    The videos default to `make_source_videos(model)`. With cache_dir set,
    the two nets are also written there, as ``hmr_src.ckpt`` and
    ``md_src.ckpt``; nothing is read back from it.
    """
    model = benchmark_body() if model is None else model
    videos = make_source_videos(model) if videos is None else videos
    hmr_params, curve = hmr_pretrain(
        model, hmr_config, hmr_init(hmr_config, seed=0), videos, steps=recipe.hmr_steps, lr=recipe.hmr_lr, seed=0
    )
    tau = curve[-1][1]
    motions = [v.gt_params.theta for v in videos]
    md_params = md_init(md_config, seed=0)
    sigma, plan = recipe.md_sigma, recipe.md_plan
    for stage, (steps, lr) in enumerate(plan):
        # each stage starts a fresh Adam state, so a divergence names its stage
        try:
            md_params, _ = md_pretrain(md_config, md_params, motions, sigma=sigma, steps=steps, lr=lr, seed=stage)
        except InvariantError as err:
            raise InvariantError(f"md_plan stage {stage + 1} of {len(plan)}: {err}") from err
    if cache_dir is not None:
        cache = Path(cache_dir)
        cache.mkdir(parents=True, exist_ok=True)
        save_hmr(cache / "hmr_src.ckpt", hmr_config, hmr_params)
        save_md(cache / "md_src.ckpt", md_config, md_params)
    return hmr_params, md_params, tau


def run_offline(
    config: AdaptConfig,
    hmr_params: dict,
    md_params: dict,
    model: BodyModel,
    video: SyntheticVideo,
    checkpoint_dir=None,
    hmr_config: HmrConfig = HMR_CONFIG,
    md_config: MdConfig = MD_CONFIG,
) -> AdaptRun:
    return cycle_adapt(
        adapt_inputs(video),
        model,
        hmr_config,
        hmr_params,
        md_config,
        md_params,
        config,
        evaluator=make_evaluator(model, video),
        checkpoint_dir=checkpoint_dir,
    )


def last_row(run: AdaptRun, source: str) -> tuple:
    """(cycle, report) of the last row a run logged for source."""
    rows = [(cycle, rep) for cycle, s, rep in run.rows if s == source]
    if not rows:
        raise InvariantError(f"adaptation produced no {source!r} rows")
    return rows[-1]


def run_suite(rows, nets, random_init: bool, model, video, base: AdaptConfig, runs=None, **configs) -> list:
    """One (cycle, label, report) per table row. A row runs ``replace(base,
    **overrides)`` on ``nets(r)``, r its random_init or, where None, the
    caller's; each (config, r) runs once, kept in ``runs`` by that key, so a
    key already there is not run again. ``configs`` go to `run_offline`."""
    runs = {} if runs is None else runs
    out = []
    for label, overrides, row_init, source in rows:
        key = (replace(base, **overrides), random_init if row_init is None else row_init)
        if key not in runs:
            runs[key] = run_offline(key[0], *nets(key[1]), model, video, **configs)
        cycle, rep = last_row(runs[key], source)
        out.append((cycle, label, rep))
    return out


def run_online(
    hmr_params: dict,
    md_params: dict,
    model: BodyModel,
    video: SyntheticVideo,
    base: AdaptConfig,
    hmr_config: HmrConfig = HMR_CONFIG,
    md_config: MdConfig = MD_CONFIG,
) -> OnlineRun:
    """The base config as given, run as one causal pass."""
    return online_adapt(
        adapt_inputs(video),
        model,
        hmr_config,
        hmr_params,
        md_config,
        md_params,
        base,
        evaluator=make_evaluator(model, video),
    )
