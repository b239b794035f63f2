import dataclasses
import json

import numpy as np
import pytest

from oracles import whole_batch_pose

from cycleadapt.benchmark import SOURCE, TARGET, make_evaluator, target_mixing
from cycleadapt.bodymodel import body_forward_batch, build_toy_body, identity_pose, project_weak_perspective
from cycleadapt.checkpoint import read_arrays, write_arrays
from cycleadapt.mdnet import gaussian_filter_baseline
from cycleadapt.metrics import accel_error, evaluate_sequence, vertex_errors
from cycleadapt.synth import (
    FORMAT_VERSION,
    GT_PARAMS,
    DomainSpec,
    SyntheticVideo,
    VideoFormatError,
    gen_motion,
    make_video,
    mixing_matrices,
    read_video,
    render_frames,
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


@pytest.mark.parametrize(
    "field, value",
    [("feature_noise_std", float("nan")), ("feature_noise_std", float("inf")), ("kp_noise_std", float("nan")),
     ("kp_noise_std", float("inf")), ("mixing_seed", -1)],
)
def test_a_domain_refuses_a_non_finite_noise_or_a_negative_mixing_seed(field, value):
    with pytest.raises(ValueError, match=rf"^DomainSpec\.{field} must be"):
        dataclasses.replace(SOURCE, **{field: value})


def test_gen_motion_is_deterministic():
    a_params, a_joints = gen_motion(_spec(), MODEL, 20, seed=3)
    b_params, b_joints = gen_motion(_spec(), MODEL, 20, seed=3)
    assert np.array_equal(a_joints, b_joints)
    assert a_params.dtype == GT_PARAMS and a_params.shape == (20,)
    assert np.array_equal(a_params.theta, b_params.theta)
    assert np.array_equal(a_params.beta, b_params.beta)
    _, c_joints = gen_motion(_spec(), MODEL, 20, seed=4)
    assert not np.array_equal(a_joints, c_joints)


def test_zero_amplitude_means_constant_identity_pose():
    params, joints = gen_motion(_spec(amp_range=(0.0, 0.0)), MODEL, 8, seed=0)
    rest = identity_pose(24)
    for p in params:
        assert np.array_equal(p.theta, rest)
    assert np.abs(joints - joints[0]).max() == 0.0


def test_generated_motion_is_smooth():
    _, joints = gen_motion(_spec(), MODEL, 120, seed=1)
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
    _, aj = gen_motion(a, MODEL, 10, seed=5)
    _, bj = gen_motion(b, MODEL, 10, seed=5)
    assert np.array_equal(aj, bj)
    c = _spec(freq_range=(0.02, 0.04))
    _, cj = gen_motion(c, MODEL, 10, seed=5)
    assert not np.array_equal(aj, cj)


def _render_features(params, spec, rng, feature_dim):
    """One frame's features through `render_frames`, from a (1,) `GT_PARAMS` array."""
    camera = np.array([1.0, 0.0, 0.0])
    return render_frames(params, np.zeros((1, 1, 3)), camera, spec, rng, mixing_matrices(spec, feature_dim))[0][0]


def _simulate_keypoints(joints3d, camera, spec, rng):
    """One frame's (J, 3) keypoints through `render_frames`."""
    params = gen_motion(spec, MODEL, 1, seed=0)[0]
    return render_frames(params, joints3d[None], camera, spec, rng, mixing_matrices(spec, 4))[1][0]


def test_render_features_deterministic_without_noise():
    spec = _spec(feature_noise_std=0.0)
    params = gen_motion(spec, MODEL, 1, seed=0)[0]
    a = _render_features(params, spec, np.random.default_rng(0), feature_dim=32)
    b = _render_features(params, spec, np.random.default_rng(99), feature_dim=32)
    assert np.array_equal(a, b)
    assert a.shape == (32,)


def test_render_features_noise_uses_rng():
    spec = _spec(feature_noise_std=0.5)
    params = gen_motion(spec, MODEL, 1, seed=0)[0]
    a = _render_features(params, spec, np.random.default_rng(0), feature_dim=32)
    b = _render_features(params, spec, np.random.default_rng(0), feature_dim=32)
    c = _render_features(params, spec, np.random.default_rng(1), feature_dim=32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mixing_seeds_separate_domains():
    spec_a = _spec(mixing_seed=1, feature_noise_std=0.0)
    spec_b = _spec(mixing_seed=2, feature_noise_std=0.0, name="target")
    params = gen_motion(spec_a, MODEL, 1, seed=0)[0]
    fa = _render_features(params, spec_a, np.random.default_rng(0), feature_dim=24)
    fb = _render_features(params, spec_b, np.random.default_rng(0), feature_dim=24)
    assert np.linalg.norm(fa - fb) > 0.0
    a1, b1 = mixing_matrices(spec_a, 24)
    a2, b2 = mixing_matrices(spec_a, 24)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_simulate_keypoints_perfect_limit():
    spec = _spec(kp_noise_std=0.0, p_drop=0.0)
    camera = np.array([1.1, 0.02, -0.03])  # (s, tx, ty)
    joints = np.random.default_rng(0).normal(size=(24, 3))
    kp = _simulate_keypoints(joints, camera, spec, np.random.default_rng(1))
    assert np.array_equal(kp[:, 2], np.ones(24))
    assert np.array_equal(kp[:, :2], project_weak_perspective(camera, joints))


def test_simulate_keypoints_drop_everything():
    spec = _spec(p_drop=1.0)
    camera = np.array([1.0, 0.0, 0.0])
    joints = np.random.default_rng(0).normal(size=(24, 3))
    kp = _simulate_keypoints(joints, camera, spec, np.random.default_rng(1))
    assert np.array_equal(kp, np.zeros((24, 3)))


def test_simulate_keypoints_drop_fraction():
    spec = _spec(p_drop=0.3)
    camera = np.array([1.0, 0.0, 0.0])
    joints = np.zeros((10_000, 3))
    kp = _simulate_keypoints(joints, camera, spec, np.random.default_rng(7))
    dropped = float(np.mean(kp[:, 2] == 0.0))
    assert abs(dropped - 0.3) < 0.01


def _per_frame_video(spec, model, n_frames, feature_dim, seed, mixing=None):
    """Reference: make_video as it was written frame by frame, one gemv, one
    record and a projection per frame, drawing in the same order. Returns the
    video and its ground-truth mesh, posed here as synthesis once stored it."""
    params, joints3d = gen_motion(spec, model, n_frames, seed)
    mesh, _ = whole_batch_pose(model, np.ascontiguousarray(params.theta), np.ascontiguousarray(params.beta))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    camera = np.array([rng.uniform(0.95, 1.05), rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)])
    a, b = mixing_matrices(spec, feature_dim) if mixing is None else mixing
    features = np.empty((n_frames, feature_dim))
    keypoints = np.empty(joints3d.shape)
    for i in range(n_frames):
        x = np.concatenate([params[i].theta, params[i].beta])
        features[i] = a @ x + b + rng.normal(0.0, spec.feature_noise_std, size=feature_dim)
        proj = project_weak_perspective(camera, joints3d[i])
        noisy = proj + rng.normal(0.0, spec.kp_noise_std, size=proj.shape)
        kept = rng.random(proj.shape[0]) >= spec.p_drop
        points = np.zeros((proj.shape[0], 3))
        points[kept, :2] = noisy[kept]
        points[:, 2] = kept.astype(np.float64)
        keypoints[i] = points
    return SyntheticVideo(features, params, joints3d, keypoints, camera), mesh


BATCHED_SYNTHESIS_CASES = {
    "source domain": dict(spec=SOURCE),
    "target domain": dict(spec=TARGET),
    "a mixing override": dict(spec=TARGET, mixing=target_mixing(64, 0.6, SOURCE, TARGET)),
    "p_drop 0": dict(spec=_spec(p_drop=0.0)),
    "p_drop 1": dict(spec=_spec(p_drop=1.0)),
    "kp_noise_std 0": dict(spec=_spec(kp_noise_std=0.0)),
    "1 frame": dict(spec=_spec(), n_frames=1),
}


@pytest.mark.parametrize("case", list(BATCHED_SYNTHESIS_CASES))
def test_make_video_gives_the_per_frame_loops_bytes(case):
    kwargs = dict(n_frames=40, feature_dim=64, seed=3) | BATCHED_SYNTHESIS_CASES[case]
    spec, mixing = kwargs.pop("spec"), kwargs.pop("mixing", None)
    got = make_video(spec, MODEL, mixing=mixing, **kwargs)
    want, _mesh = _per_frame_video(spec, MODEL, mixing=mixing, **kwargs)
    for name in ("features", "gt_joints", "keypoints", "gt_camera"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.gt_params.tobytes() == want.gt_params.tobytes()


def test_the_evaluator_scores_against_the_reference_mesh_byte_for_byte():
    """The evaluator poses the ground-truth mesh from the video's parameters;
    its reports are those against the mesh the reference poses itself."""
    video, mesh = _per_frame_video(_spec(), MODEL, n_frames=6, feature_dim=16, seed=5)
    evaluator = make_evaluator(MODEL, video)
    rng = np.random.default_rng(0)
    for _ in range(2):  # the first call poses the mesh, the second reuses it
        theta = video.gt_params.theta + rng.normal(scale=0.05, size=video.gt_params.theta.shape)
        beta = video.gt_params.beta + rng.normal(scale=0.1, size=video.gt_params.beta.shape)
        verts, joints = whole_batch_pose(MODEL, theta, beta)
        got = dataclasses.astuple(evaluator(theta, beta))
        errors = vertex_errors(verts, mesh, joints[:, 0], video.gt_joints[:, 0])
        want = dataclasses.astuple(evaluate_sequence(joints, video.gt_joints, errors))
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_make_video_refuses_a_mixing_of_another_width():
    with pytest.raises(ValueError, match="mixing"):
        make_video(_spec(), MODEL, 3, feature_dim=16, seed=0, mixing=mixing_matrices(_spec(), 8))


def test_make_video_shapes_and_determinism():
    spec = _spec()
    video = make_video(spec, MODEL, 12, feature_dim=16, seed=9)
    again = make_video(spec, MODEL, 12, feature_dim=16, seed=9)
    assert video.frame_count == 12
    assert video.features.shape == (12, 16)
    assert video.gt_joints.shape == (12, 24, 3)
    assert video.gt_params.shape == (12,) and video.keypoints.shape == (12, 24, 3)
    assert video.gt_camera.shape == (3,)
    assert np.array_equal(video.features, again.features)
    assert np.array_equal(video.keypoints, again.keypoints)
    assert np.array_equal(video.gt_camera, again.gt_camera)


def test_ground_truth_rows_equal_its_arrays_and_are_read_only():
    params, _ = gen_motion(_spec(), MODEL, 5, seed=1)
    camera = np.array([1.0, 0.01, -0.02])
    video = make_video(_spec(), MODEL, 5, feature_dim=8, seed=1)
    # per-row access, as the benchmark's set-up reads it, gives the arrays
    assert np.array_equal(np.stack([p.theta for p in video.gt_params]), video.gt_params.theta)
    assert np.array_equal(np.stack([p.beta for p in video.gt_params]), video.gt_params.beta)
    assert video.gt_params.theta.shape == (5, 144) and video.gt_params.beta.shape == (5, 10)
    for target in (video.gt_params.theta, video.gt_params[0].theta, video.gt_params.beta, video.gt_camera):
        with pytest.raises(ValueError, match="read-only"):
            target[0] = 0.0
    # the video holds copies: the caller's arrays stay writable and apart
    copy = SyntheticVideo(video.features, params, video.gt_joints, video.keypoints, camera)
    params.theta[0, 0] = camera[0] = 7.0
    assert copy.gt_params.theta[0, 0] != 7.0 and copy.gt_camera[0] == 1.0


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
        return SyntheticVideo(video.features, video.gt_params, video.gt_joints, kp, video.gt_camera)

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
    assert np.array_equal(loaded.gt_camera, video.gt_camera)
    assert np.array_equal(loaded.features, video.features)
    assert np.array_equal(loaded.gt_joints, video.gt_joints)
    assert np.array_equal(loaded.keypoints, video.keypoints)
    assert loaded.gt_params.dtype == GT_PARAMS
    assert np.array_equal(loaded.gt_params.theta, video.gt_params.theta)
    assert np.array_equal(loaded.gt_params.beta, video.gt_params.beta)


def _rewrite_members(path, **changes):
    """Re-save a video file with some members replaced (CRCs stay valid)."""
    write_arrays(path, {**read_arrays(path, lambda found: found), **changes})


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
    _rewrite_members(path, version=np.array(FORMAT_VERSION + 1))
    with pytest.raises(VideoFormatError, match=f"unsupported version {FORMAT_VERSION + 1}"):
        read_video(path)
    # the JSON-lines layout of format version 1 is not read at all
    path.write_text(json.dumps({"version": 1, "n": 0, "spec": {}, "camera": {}}) + "\n")
    with pytest.raises(VideoFormatError, match="clip.video"):
        read_video(path)


def test_a_version_2_video_file_is_refused_naming_its_path(tmp_path):
    """Version 2 stored the posed mesh as a member; such a file is refused."""
    spec = _spec()
    video = make_video(spec, MODEL, 3, feature_dim=8, seed=4)
    path = tmp_path / "clip.video"
    write_video(path, video, spec)
    mesh, _ = body_forward_batch(MODEL, video.gt_params.theta, video.gt_params.beta)
    _rewrite_members(path, version=np.array(2), mesh=mesh)
    with pytest.raises(VideoFormatError, match=r"clip\.video: not a readable version-3 video.*unsupported version 2"):
        read_video(path)


@pytest.mark.parametrize("changes", [{"mesh": np.zeros((3, 120, 3))}, {"keypoints": None}], ids=["extra-mesh", "missing-keypoints"])
def test_a_video_with_a_member_too_many_or_too_few_is_refused(tmp_path, changes):
    """A version-3 file re-saved with the mesh that version 2 stored, or
    without its keypoints, names the path and the member."""
    spec = _spec()
    path = tmp_path / "clip.video"
    write_video(path, make_video(spec, MODEL, 3, feature_dim=8, seed=4), spec)
    members = {**read_arrays(path, lambda found: found), **changes}
    write_arrays(path, {name: value for name, value in members.items() if value is not None})
    name = next(iter(changes))
    with pytest.raises(VideoFormatError, match=rf"clip\.video: not a readable version-3 video.*'{name}'"):
        read_video(path)


def _with_nan(array, index):
    out = np.array(array)
    out[index] = np.nan
    return out


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
        {"joints": video.gt_joints[:, :, :2]},
        {"features": _with_nan(video.features, (0, 0))},
        {"joints": _with_nan(video.gt_joints, (0, 0, 0))},
        {"keypoints": video.keypoints[:, :5]},
        {"theta": _with_nan(video.gt_params.theta, (1, 7))},
    ):
        write_video(path, video, spec)
        _rewrite_members(path, **changes)
        with pytest.raises(VideoFormatError, match="clip.video"):
            read_video(path)


def test_params_validation(tmp_path):
    """Ground truth is (N,) `GT_PARAMS` records with finite theta and beta and
    a finite (s, tx, ty) camera, in memory and in a file."""
    spec = _spec()
    video = make_video(spec, MODEL, 3, feature_dim=8, seed=4)
    theta, beta = video.gt_params.theta, video.gt_params.beta
    nan_theta, nan_beta = _with_nan(theta, (1, 5)), _with_nan(beta, (2, 0))

    def with_ground_truth(params, camera=video.gt_camera):
        return SyntheticVideo(video.features, params, video.gt_joints, video.keypoints, camera)

    for params, match in (
        (np.rec.fromarrays([theta[:, :143], beta], dtype=[("theta", "f8", 143), ("beta", "f8", 10)]), "GT_PARAMS"),
        (np.rec.fromarrays([theta[:2], beta[:2]], dtype=GT_PARAMS), "GT_PARAMS"),
        (np.zeros((3, 154)), "GT_PARAMS"),
        (np.rec.fromarrays([nan_theta, beta], dtype=GT_PARAMS), "theta must be finite"),
        (np.rec.fromarrays([theta, nan_beta], dtype=GT_PARAMS), "beta must be finite"),
    ):
        with pytest.raises(ValueError, match=match):
            with_ground_truth(params)
    for camera, match in (([np.inf, 0.0, 0.0], "camera must be finite"), ([1.0, 0.0], "camera must be")):
        with pytest.raises(ValueError, match=match):
            with_ground_truth(video.gt_params, camera)
    path = tmp_path / "clip.video"
    for changes, match in (
        ({"theta": np.zeros((3, 143))}, ""),
        ({"beta": nan_beta}, "beta must be finite"),
        ({"camera": np.array([1.0, -np.inf, 0.0])}, "camera must be finite"),
    ):
        write_video(path, video, spec)
        _rewrite_members(path, **changes)
        with pytest.raises(VideoFormatError, match=f"clip.video.*{match}"):
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


def test_gen_motion_rejects_bad_inputs():
    with pytest.raises(ValueError, match="n_frames"):
        gen_motion(_spec(), MODEL, 0, seed=0)
    small = build_toy_body(0, joints=6, vertices=12)
    with pytest.raises(ValueError, match="24-joint"):
        gen_motion(_spec(), small, 4, seed=0)
