"""Source-side regressor pre-training: data pooling, the error gauge, training effect."""

import numpy as np
import pytest

from cycleadapt.adapt import InvariantError
from cycleadapt.benchmark import hmr_pretrain, pool_source_frames, pose_code_error
from cycleadapt.bodymodel import build_toy_body
from cycleadapt.hmrnet import HmrConfig, hmr_forward, hmr_init
from cycleadapt.synth import DomainSpec, make_video

MODEL = build_toy_body(1, joints=24, vertices=24)
CONFIG = HmrConfig(feature_dim=8, hidden_dim=12, num_hidden_layers=1)
SPEC = DomainSpec(
    name="src",
    freq_range=(0.02, 0.05),
    amp_range=(0.2, 0.5),
    mixing_seed=11,
    feature_noise_std=0.0,
    kp_noise_std=0.0,
    p_drop=0.0,
)


def _videos(n_videos=2, frames=30):
    return [make_video(SPEC, MODEL, frames, 8, seed) for seed in range(n_videos)]


def test_pretrain_set_pools_all_frames():
    videos = _videos(3, 20)
    inputs, thetas, betas = pool_source_frames(videos)
    assert inputs.frame_count == 60
    assert inputs.features.shape == (60, 8)
    assert thetas.shape == (60, 144)
    assert betas.shape == (60, 10)
    assert inputs.keypoints.shape == (60, 24, 3)
    assert np.array_equal(thetas[20:40], np.stack([p.theta for p in videos[1].gt_params]))


def test_pretrain_set_keypoints_are_exact_confident_projections():
    videos = _videos(1, 10)
    inputs, _, _ = pool_source_frames(videos)
    assert np.all(inputs.keypoints[:, :, 2] == 1.0)
    # zero-noise spec: the video's own keypoints coincide where confident
    video = videos[0]
    for i in range(10):
        assert np.allclose(inputs.keypoints[i, :, :2], video.keypoints[i, :, :2])


def test_pretrain_set_rejects_empty():
    with pytest.raises(ValueError, match="at least one video"):
        pool_source_frames([])


def test_pose_code_error_zero_for_exact_targets():
    params = hmr_init(CONFIG, seed=0)
    videos = _videos(1, 5)
    feats = np.array(videos[0].features)
    theta_hat, _, _ = hmr_forward(params, feats)
    assert pose_code_error(params, feats, theta_hat) == 0.0


def test_hmr_pretrain_reduces_source_error():
    videos = _videos(2, 40)
    params, curve = hmr_pretrain(MODEL, CONFIG, hmr_init(CONFIG, seed=0), videos, steps=150, batch=16, seed=0)
    assert set(params) == set(hmr_init(CONFIG, seed=0))
    assert curve[-1][1] < curve[0][1]


def test_hmr_pretrain_curve_is_logged_from_step_zero():
    videos = _videos(1, 20)
    _, curve = hmr_pretrain(MODEL, CONFIG, hmr_init(CONFIG, seed=0), videos, steps=10, batch=8, seed=3)
    steps = [s for s, _ in curve]
    assert steps[0] == 0
    assert steps[-1] == 10
    assert steps == sorted(steps)


def test_hmr_pretrain_deterministic():
    videos = _videos(1, 20)
    runs = [
        hmr_pretrain(MODEL, CONFIG, hmr_init(CONFIG, seed=1), videos, steps=20, batch=8, seed=5)
        for _ in range(2)
    ]
    assert runs[0][1] == runs[1][1]
    for name in runs[0][0]:
        assert np.array_equal(runs[0][0][name], runs[1][0][name])


@pytest.mark.parametrize("kwargs", [dict(steps=0), dict(batch=0)])
def test_hmr_pretrain_validates_arguments(kwargs):
    videos = _videos(1, 10)
    with pytest.raises(ValueError):
        hmr_pretrain(MODEL, CONFIG, hmr_init(CONFIG, seed=0), videos, **kwargs)


def test_hmr_pretrain_rejects_a_non_finite_loss():
    params = hmr_init(CONFIG, seed=0)
    params["b_out"] = params["b_out"].copy()
    params["b_out"][0] = np.nan
    with pytest.raises(InvariantError, match="regressor loss is nan at optimizer step 0"):
        hmr_pretrain(MODEL, CONFIG, params, _videos(1, 10), steps=5, batch=4)
