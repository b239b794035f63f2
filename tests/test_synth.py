import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleadapt.bodymodel import CameraParams, build_toy_body, identity_pose, project_weak_perspective
from cycleadapt.mdnet import gaussian_filter_baseline
from cycleadapt.metrics import accel_error
from cycleadapt.synth import (
    DomainSpec,
    SyntheticVideo,
    VideoFormatError,
    gen_motion,
    make_video,
    mixing_matrices,
    read_video,
    render_features,
    simulate_keypoints,
    write_video,
)

MODEL = build_toy_body(42, joints=24, vertices=40)


def _spec(**overrides):
    base = dict(
        name="source",
        freq_range=(0.08, 0.15),
        amp_range=(0.2, 0.6),
        mixing_seed=11,
        feature_noise_std=0.01,
        kp_noise_std=0.02,
        p_drop=0.2,
    )
    base.update(overrides)
    return DomainSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError, match="freq_range"):
        _spec(freq_range=(0.2, 0.1))
    with pytest.raises(ValueError, match="amp_range"):
        _spec(amp_range=(-0.1, 0.2))
    with pytest.raises(ValueError, match="p_drop"):
        _spec(p_drop=1.5)
    with pytest.raises(ValueError, match="noise"):
        _spec(kp_noise_std=-1.0)


def test_gen_motion_is_deterministic():
    a_params, a_joints, a_mesh = gen_motion(_spec(), MODEL, 20, seed=3)
    b_params, b_joints, b_mesh = gen_motion(_spec(), MODEL, 20, seed=3)
    assert np.array_equal(a_joints, b_joints)
    assert np.array_equal(a_mesh, b_mesh)
    for a, b in zip(a_params, b_params):
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.beta, b.beta)
    _, c_joints, _ = gen_motion(_spec(), MODEL, 20, seed=4)
    assert not np.array_equal(a_joints, c_joints)


def test_zero_amplitude_means_constant_identity_pose():
    params, joints, _ = gen_motion(_spec(amp_range=(0.0, 0.0)), MODEL, 8, seed=0)
    rest = identity_pose(24)
    for p in params:
        assert np.array_equal(p.theta, rest)
    assert np.abs(joints - joints[0]).max() == 0.0


def test_generated_motion_is_smooth():
    _, joints, _ = gen_motion(_spec(), MODEL, 120, seed=1)
    n = joints.shape[0]
    flat = joints.reshape(n, -1)
    smooth_ref = gaussian_filter_baseline(flat, 2.0).reshape(joints.shape)
    rng = np.random.default_rng(0)
    noise = rng.normal(size=flat.shape) * flat.std(axis=0)
    noise_ref = gaussian_filter_baseline(noise, 2.0)
    smooth_err = accel_error(joints, smooth_ref)
    noise_err = accel_error(noise.reshape(joints.shape), noise_ref.reshape(joints.shape))
    assert smooth_err < noise_err


def test_motion_pattern_shared_when_ranges_match():
    a = _spec(mixing_seed=1, name="a")
    b = _spec(mixing_seed=2, name="b")
    _, aj, _ = gen_motion(a, MODEL, 10, seed=5)
    _, bj, _ = gen_motion(b, MODEL, 10, seed=5)
    assert np.array_equal(aj, bj)
    c = _spec(freq_range=(0.02, 0.04))
    _, cj, _ = gen_motion(c, MODEL, 10, seed=5)
    assert not np.array_equal(aj, cj)


def test_render_features_deterministic_without_noise():
    spec = _spec(feature_noise_std=0.0)
    params = gen_motion(spec, MODEL, 1, seed=0)[0][0]
    a = render_features(params, spec, np.random.default_rng(0), feature_dim=32)
    b = render_features(params, spec, np.random.default_rng(99), feature_dim=32)
    assert np.array_equal(a, b)
    assert a.shape == (32,)


def test_render_features_noise_uses_rng():
    spec = _spec(feature_noise_std=0.5)
    params = gen_motion(spec, MODEL, 1, seed=0)[0][0]
    a = render_features(params, spec, np.random.default_rng(0), feature_dim=32)
    b = render_features(params, spec, np.random.default_rng(0), feature_dim=32)
    c = render_features(params, spec, np.random.default_rng(1), feature_dim=32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mixing_seeds_separate_domains():
    spec_a = _spec(mixing_seed=1, feature_noise_std=0.0)
    spec_b = _spec(mixing_seed=2, feature_noise_std=0.0, name="target")
    params = gen_motion(spec_a, MODEL, 1, seed=0)[0][0]
    fa = render_features(params, spec_a, np.random.default_rng(0), feature_dim=24)
    fb = render_features(params, spec_b, np.random.default_rng(0), feature_dim=24)
    assert np.linalg.norm(fa - fb) > 0.0
    a1, b1 = mixing_matrices(spec_a, 24)
    a2, b2 = mixing_matrices(spec_a, 24)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_simulate_keypoints_perfect_limit():
    spec = _spec(kp_noise_std=0.0, p_drop=0.0)
    camera = CameraParams(s=1.1, tx=0.02, ty=-0.03)
    joints = np.random.default_rng(0).normal(size=(24, 3))
    kp = simulate_keypoints(joints, camera, spec, np.random.default_rng(1))
    assert np.array_equal(kp[:, 2], np.ones(24))
    assert np.array_equal(kp[:, :2], project_weak_perspective(camera, joints))


def test_simulate_keypoints_drop_everything():
    spec = _spec(p_drop=1.0)
    camera = CameraParams(s=1.0, tx=0.0, ty=0.0)
    joints = np.random.default_rng(0).normal(size=(24, 3))
    kp = simulate_keypoints(joints, camera, spec, np.random.default_rng(1))
    assert np.array_equal(kp, np.zeros((24, 3)))


def test_simulate_keypoints_drop_fraction():
    spec = _spec(p_drop=0.3)
    camera = CameraParams(s=1.0, tx=0.0, ty=0.0)
    joints = np.zeros((10_000, 3))
    kp = simulate_keypoints(joints, camera, spec, np.random.default_rng(7))
    dropped = float(np.mean(kp[:, 2] == 0.0))
    assert abs(dropped - 0.3) < 0.01


def test_make_video_shapes_and_determinism():
    spec = _spec()
    video = make_video(spec, MODEL, 12, feature_dim=16, seed=9)
    again = make_video(spec, MODEL, 12, feature_dim=16, seed=9)
    assert video.frame_count == 12
    assert video.features.shape == (12, 16)
    assert video.gt_joints.shape == (12, 24, 3)
    assert video.gt_mesh.shape == (12, 40, 3)
    assert len(video.gt_params) == 12 and video.keypoints.shape == (12, 24, 3)
    assert np.array_equal(video.features, again.features)
    assert np.array_equal(video.keypoints, again.keypoints)
    assert video.gt_camera == again.gt_camera


def test_gt_keypoints_reproject_exactly_in_perfect_limit():
    spec = _spec(kp_noise_std=0.0, p_drop=0.0)
    video = make_video(spec, MODEL, 6, feature_dim=8, seed=2)
    assert np.array_equal(video.keypoints[:, :, :2], project_weak_perspective(video.gt_camera, video.gt_joints))
    assert np.all(video.keypoints[:, :, 2] == 1.0)


def test_video_keypoints_validation():
    """Keypoints are one (N, J, 3) array: confidences 0 or 1, coordinates
    finite where confident and free (even NaN) where not."""
    video = make_video(_spec(), MODEL, 2, feature_dim=8, seed=4)

    def with_keypoints(kp):
        return SyntheticVideo(video.features, video.gt_params, video.gt_joints, video.gt_mesh, kp, video.gt_camera)

    kp = video.keypoints.copy()
    kp[1, 3] = [np.nan, np.nan, 0.0]
    assert np.isnan(with_keypoints(kp).keypoints[1, 3, 0])
    with pytest.raises(ValueError, match="keypoints must be"):
        with_keypoints(video.keypoints[:, :, :2])
    with pytest.raises(ValueError, match="keypoints must be"):
        with_keypoints(video.keypoints[:1])
    kp = video.keypoints.copy()
    kp[0, 0, 2] = 0.5
    with pytest.raises(ValueError, match="0 or 1"):
        with_keypoints(kp)
    kp = video.keypoints.copy()
    kp[0, 0] = [np.inf, 0.0, 1.0]
    with pytest.raises(ValueError, match="finite"):
        with_keypoints(kp)


def _assert_same_video(loaded, loaded_spec, video, spec):
    assert loaded_spec == spec
    assert loaded.gt_camera == video.gt_camera
    assert np.array_equal(loaded.features, video.features)
    assert np.array_equal(loaded.gt_joints, video.gt_joints)
    assert np.array_equal(loaded.gt_mesh, video.gt_mesh)
    assert np.array_equal(loaded.keypoints, video.keypoints)
    assert len(loaded.gt_params) == len(video.gt_params)
    for a, b in zip(loaded.gt_params, video.gt_params):
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.beta, b.beta)


def _rewrite_members(path, **changes):
    """Re-save a video file with some members replaced (CRCs stay valid)."""
    with np.load(path) as npz:
        members = {name: npz[name] for name in npz.files}
    members.update(changes)
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def test_video_round_trip_is_bit_identical(tmp_path):
    spec = _spec()
    video = make_video(spec, MODEL, 7, feature_dim=12, seed=4)
    path = tmp_path / "clip.video"
    write_video(path, video, spec)
    _assert_same_video(*read_video(path), video, spec)
    first = path.read_bytes()
    write_video(path, video, spec)
    assert path.read_bytes() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clip.video"]


def test_truncated_video_is_a_parse_error(tmp_path):
    spec = _spec()
    video = make_video(spec, MODEL, 5, feature_dim=8, seed=4)
    path = tmp_path / "clip.video"
    write_video(path, video, spec)
    raw = path.read_bytes()
    for cut in (0, 10, len(raw) // 2, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(VideoFormatError, match="clip.video"):
            read_video(path)


def test_wrong_version_is_rejected(tmp_path):
    spec = _spec()
    video = make_video(spec, MODEL, 3, feature_dim=8, seed=4)
    path = tmp_path / "clip.video"
    write_video(path, video, spec)
    _rewrite_members(path, version=np.array(3))
    with pytest.raises(VideoFormatError, match="unsupported version 3"):
        read_video(path)
    # the JSON-lines layout of format version 1 is not read at all
    path.write_text(json.dumps({"version": 1, "n": 0, "spec": {}, "camera": {}}) + "\n")
    with pytest.raises(VideoFormatError, match="clip.video"):
        read_video(path)


def test_malformed_members_name_the_path(tmp_path):
    spec = _spec()
    video = make_video(spec, MODEL, 3, feature_dim=8, seed=4)
    path = tmp_path / "clip.video"
    bad_spec = json.dumps({**dataclasses.asdict(spec), "colour": "red"})
    bad_kp = video.keypoints.copy()
    bad_kp[0, 0, 2] = 0.5
    for changes in (
        {"spec": np.array(bad_spec)},
        {"camera": np.array([np.nan, 0.0, 0.0])},
        {"camera": np.array([1.0, 0.0])},
        {"beta": np.zeros((2, 10))},
        {"keypoints": bad_kp},
        {"mesh": video.gt_mesh[:, :, :2]},
    ):
        write_video(path, video, spec)
        _rewrite_members(path, **changes)
        with pytest.raises(VideoFormatError, match="clip.video"):
            read_video(path)


def test_a_shrunken_array_header_is_caught(tmp_path):
    """A flipped shape digit makes numpy read only part of a member; the
    CRC-32 check sees the whole member changed and refuses the file."""
    spec = _spec()
    video = make_video(spec, MODEL, 2, feature_dim=300, seed=4)
    path = tmp_path / "clip.video"
    write_video(path, video, spec)
    raw = path.read_bytes()
    assert raw.count(b"(2, 300)") == 1
    path.write_bytes(raw.replace(b"(2, 300)", b"(2, 100)"))  # '3' -> '1' is one bit
    with pytest.raises(VideoFormatError, match="CRC"):
        read_video(path)


def test_missing_files_are_reported(tmp_path):
    with pytest.raises(VideoFormatError, match="absent.video.*No such file"):
        read_video(tmp_path / "absent.video")


@pytest.fixture(scope="module")
def clip(tmp_path_factory):
    spec = _spec()
    video = make_video(spec, MODEL, 2, feature_dim=8, seed=4)
    root = tmp_path_factory.mktemp("clip")
    write_video(root / "clip.video", video, spec)
    return video, spec, (root / "clip.video").read_bytes(), root / "damaged.video"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_flipped_bit_raises_or_loads_identical(clip, data):
    video, spec, raw, path = clip
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    damaged = bytearray(raw)
    damaged[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(damaged))
    try:
        loaded = read_video(path)
    except VideoFormatError as err:
        assert str(path) in str(err)
    else:
        _assert_same_video(*loaded, video, spec)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_strict_prefix_raises(clip, data):
    _, _, raw, path = clip
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(VideoFormatError) as err:
        read_video(path)
    assert str(path) in str(err.value)


def test_gen_motion_rejects_bad_inputs():
    with pytest.raises(ValueError, match="n_frames"):
        gen_motion(_spec(), MODEL, 0, seed=0)
    small = build_toy_body(0, joints=6, vertices=12)
    with pytest.raises(ValueError, match="24-joint"):
        gen_motion(_spec(), small, 4, seed=0)
