"""The standard desk-scale benchmark: domains, pre-training, run drivers.

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

import hashlib
import json
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .adapt import (
    AdaptConfig,
    AdaptInputs,
    AdaptOptimizers,
    AdaptRun,
    OnlineRun,
    adapt_inputs,
    cycle_adapt,
    hmr_step,
    online_adapt,
)
from .bodymodel import BodyModel, body_forward_batch, build_toy_body, project_weak_perspective, scale_body
from .checkpoint import load_hmr, load_md, save_hmr, save_md
from .hmrnet import HmrConfig, hmr_forward, hmr_init
from .mdnet import MdConfig, md_init, md_pretrain
from .metrics import MetricReport, evaluate_sequence
from .optim import adam_init
from .synth import DomainSpec, SyntheticVideo, make_video, mixing_matrices

N_FRAMES = 500
FEATURE_DIM = 512
JOINTS = 24
VERTICES = 120
BODY_SEED = 7
BODY_SCALE = 0.15
GAP_ALPHA = 0.35
FREQ_RANGE = (0.01, 0.04)
AMP_RANGE = (0.2, 0.6)

SOURCE_SEEDS = tuple(range(1000, 1006))
SOURCE_FRAMES = 400
HMR_PRETRAIN_STEPS = 4000
HMR_PRETRAIN_LR = 1e-3
MD_PRETRAIN_SIGMA = 0.05
# (steps, lr) stages run back to back; two stages with a decayed rate land
# the denoiser well-trained but short of convergence on purpose
MD_PRETRAIN_PLAN = ((6000, 1e-3), (6000, 3e-4))

HMR_CONFIG = HmrConfig(feature_dim=FEATURE_DIM)
MD_CONFIG = MdConfig()

# each table row: the AdaptConfig fields it overrides in the base config
VARIANTS = {
    "no_adapt": {"cycles": 0},
    "2d_only": {"no_3d_loss": True},
    "3d_noncyclic": {"frozen_mdnet": True},
    "full_cyclic": {},
    "gaussian": {"md_denoiser": "gaussian"},
    # regressor held fixed; the denoiser either stays pretrained or adapts
    "frozen_hmr": {"frozen_hmrnet": True, "frozen_mdnet": True},
    "frozen_hmr_adapt_md": {"frozen_hmrnet": True, "frozen_mdnet": False},
}


def benchmark_body(
    seed: int = BODY_SEED, joints: int = JOINTS, vertices: int = VERTICES, scale: float = BODY_SCALE
) -> BodyModel:
    return scale_body(build_toy_body(seed, joints=joints, vertices=vertices), scale)


def source_domain() -> DomainSpec:
    return DomainSpec(
        name="source",
        freq_range=FREQ_RANGE,
        amp_range=AMP_RANGE,
        mixing_seed=101,
        feature_noise_std=0.01,
        kp_noise_std=0.0,
        p_drop=0.0,
    )


def target_domain() -> DomainSpec:
    return DomainSpec(
        name="target",
        freq_range=FREQ_RANGE,
        amp_range=AMP_RANGE,
        mixing_seed=202,
        feature_noise_std=0.3,
        kp_noise_std=0.02,
        p_drop=0.2,
    )


def target_mixing(
    feature_dim: int = FEATURE_DIM,
    alpha: float = GAP_ALPHA,
    source: DomainSpec | None = None,
    target: DomainSpec | None = None,
):
    """Target feature map: source map blended toward an independent one.

    alpha = 0 is no gap at all, alpha = 1 an unrelated map; in between, a
    source-fit regressor is systematically wrong but correctable.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"target_mixing: alpha must be in [0, 1], got {alpha}")
    a_src, b_src = mixing_matrices(source_domain() if source is None else source, feature_dim)
    a_far, b_far = mixing_matrices(target_domain() if target is None else target, feature_dim)
    return (1.0 - alpha) * a_src + alpha * a_far, (1.0 - alpha) * b_src + alpha * b_far


def make_target_video(
    seed: int,
    n_frames: int = N_FRAMES,
    feature_dim: int = FEATURE_DIM,
    model: BodyModel | None = None,
    alpha: float = GAP_ALPHA,
    source: DomainSpec | None = None,
    target: DomainSpec | None = None,
) -> SyntheticVideo:
    model = benchmark_body() if model is None else model
    target = target_domain() if target is None else target
    mixing = target_mixing(feature_dim, alpha, source, target)
    return make_video(target, model, n_frames, feature_dim, seed, mixing=mixing)


def make_source_videos(
    model: BodyModel | None = None,
    seeds=SOURCE_SEEDS,
    n_frames: int = SOURCE_FRAMES,
    feature_dim: int = FEATURE_DIM,
    source: DomainSpec | None = None,
) -> list:
    model = benchmark_body() if model is None else model
    source = source_domain() if source is None else source
    return [make_video(source, model, n_frames, feature_dim, s) for s in seeds]


def make_evaluator(model: BodyModel, video: SyntheticVideo):
    """Closure over the ground truth; adaptation itself never sees it."""
    gt_joints = video.gt_joints
    gt_mesh = video.gt_mesh

    def evaluator(theta: np.ndarray, beta: np.ndarray) -> MetricReport:
        verts, joints = body_forward_batch(model, theta, beta)
        return evaluate_sequence(joints, gt_joints, verts, gt_mesh)

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
    thetas = np.stack([p.theta for v in videos for p in v.gt_params])
    betas = np.stack([p.beta for v in videos for p in v.gt_params])
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
    curve), the curve holding (step, source pose-code error) pairs on a
    fixed set of up to 256 frames from step 0 on; the last error is tau.
    """
    if steps < 1 or batch < 1:
        raise ValueError(f"hmr_pretrain: steps and batch must be >= 1, got {steps}, {batch}")
    inputs, thetas, betas = pool_source_frames(videos)
    n = inputs.frame_count
    rng = np.random.default_rng(seed)
    eval_idx = rng.choice(n, size=min(256, n), replace=False)
    opt = AdaptOptimizers(hmr=adam_init(params), md=None, clock=0)
    step_config = AdaptConfig(gamma=1.0)
    every = max(1, -(-steps // 5))
    curve = [(0, pose_code_error(params, inputs.features[eval_idx], thetas[eval_idx]))]
    for step in range(1, steps + 1):
        idx = rng.choice(n, size=min(batch, n), replace=False)
        params, _, _ = hmr_step(inputs, idx, model, config, params, opt, step_config, lr, thetas[idx], betas[idx])
        if step % every == 0 or step == steps:
            curve.append((step, pose_code_error(params, inputs.features[eval_idx], thetas[eval_idx])))
    return params, curve


def _body_digest(model: BodyModel) -> str:
    arrays = (np.asarray(getattr(model, field.name)) for field in fields(model))
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def pretrain_nets(
    model: BodyModel | None = None,
    cache_dir=None,
    hmr_steps: int = HMR_PRETRAIN_STEPS,
    md_plan=MD_PRETRAIN_PLAN,
    hmr_lr: float = HMR_PRETRAIN_LR,
    md_sigma: float = MD_PRETRAIN_SIGMA,
    videos: list | None = None,
    hmr_config: HmrConfig = HMR_CONFIG,
    md_config: MdConfig = MD_CONFIG,
) -> tuple[dict, dict, float]:
    """Both networks trained on source videos, plus the recorded tau.

    The videos default to `make_source_videos(model)`. With cache_dir set,
    the nets are made from the default videos; checkpoints are reused when
    the recipe recorded beside them (steps, rates, noise, net configs and
    body) matches this call exactly, and written after a fresh run
    (pre-training is deterministic, so the cache is just time).
    """
    if cache_dir is not None and videos is not None:
        raise ValueError("pretrain_nets: cache_dir is keyed on the default videos; pass one or the other")
    model = benchmark_body() if model is None else model
    if cache_dir is not None:
        recipe = dict(hmr_steps=hmr_steps, md_plan=md_plan, hmr_lr=hmr_lr, md_sigma=md_sigma)
        recipe.update(hmr_config=asdict(hmr_config), md_config=asdict(md_config), body=_body_digest(model))
        recipe = json.loads(json.dumps(recipe))  # the form it takes in the file
        cache = Path(cache_dir)
        hmr_path, md_path, record_path = cache / "hmr_src.ckpt", cache / "md_src.ckpt", cache / "pretrain.json"
        if hmr_path.exists() and md_path.exists() and record_path.exists():
            with open(record_path) as fh:
                record = json.load(fh)
            if record.get("recipe") == recipe:
                return load_hmr(hmr_path)[1], load_md(md_path)[1], float(record["tau"])
    videos = make_source_videos(model) if videos is None else videos
    hmr_params, curve = hmr_pretrain(
        model, hmr_config, hmr_init(hmr_config, seed=0), videos, steps=hmr_steps, lr=hmr_lr, seed=0
    )
    tau = curve[-1][1]
    motions = [np.stack([p.theta for p in v.gt_params]) for v in videos]
    md_params = md_init(md_config, seed=0)
    for stage, (steps, lr) in enumerate(md_plan):
        md_params, _ = md_pretrain(
            md_config,
            md_params,
            motions,
            sigma=md_sigma,
            steps=steps,
            lr=lr,
            seed=stage,
        )
    if cache_dir is not None:
        cache.mkdir(parents=True, exist_ok=True)
        save_hmr(hmr_path, hmr_config, hmr_params)
        save_md(md_path, md_config, md_params)
        with open(record_path, "w") as fh:
            json.dump({"tau": tau, "recipe": recipe}, fh)
    return hmr_params, md_params, tau


def variant_config(variant: str, seed: int, base: AdaptConfig | None = None) -> AdaptConfig:
    """Table-row configs differ from the base only in the documented flags."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {tuple(VARIANTS)}")
    base = AdaptConfig(seed=seed) if base is None else base
    return replace(base, seed=seed, **VARIANTS[variant])


def run_variant(
    variant: str,
    seed: int,
    hmr_params: dict,
    md_params: dict,
    model: BodyModel | None = None,
    video: SyntheticVideo | None = None,
    base: AdaptConfig | None = None,
    trace=None,
    checkpoint_dir=None,
    hmr_config: HmrConfig = HMR_CONFIG,
    md_config: MdConfig = MD_CONFIG,
) -> AdaptRun:
    model = benchmark_body() if model is None else model
    video = make_target_video(seed, model=model) if video is None else video
    return cycle_adapt(
        adapt_inputs(video),
        model,
        hmr_config,
        hmr_params,
        md_config,
        md_params,
        variant_config(variant, seed, base),
        evaluator=make_evaluator(model, video),
        trace=trace,
        checkpoint_dir=checkpoint_dir,
    )


def run_online(
    seed: int,
    hmr_params: dict,
    md_params: dict,
    model: BodyModel | None = None,
    video: SyntheticVideo | None = None,
    base: AdaptConfig | None = None,
    hmr_config: HmrConfig = HMR_CONFIG,
    md_config: MdConfig = MD_CONFIG,
) -> OnlineRun:
    """The full-cyclic config, run as one causal pass."""
    model = benchmark_body() if model is None else model
    video = make_target_video(seed, model=model) if video is None else video
    return online_adapt(
        adapt_inputs(video),
        model,
        hmr_config,
        hmr_params,
        md_config,
        md_params,
        variant_config("full_cyclic", seed, base),
        evaluator=make_evaluator(model, video),
    )


def final_mpjpe(run: AdaptRun) -> float:
    """MPJPE of the adapted regressor's outputs at the last logged cycle."""
    return [r for _, s, r in run.rows if s == "hmrnet"][-1].mpjpe


def final_store_mpjpe(run: AdaptRun) -> float:
    return [r for _, s, r in run.rows if s == "store"][-1].mpjpe
