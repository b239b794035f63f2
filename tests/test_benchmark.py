"""Benchmark plumbing: body, domains, recipe checks, gap dial, evaluator, the experiment table and `run_suite`,
the nets' checkpoints.

Everything here runs on shrunken stand-ins; the full-size orderings live in
the acceptance suite.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import whole_batch_pose

from cycleadapt import benchmark as bench
from cycleadapt.adapt import AdaptConfig
from cycleadapt.bodymodel import build_toy_body, scale_body
from cycleadapt.checkpoint import load_hmr, load_md
from cycleadapt.diffcore import DegenerateRotationError
from cycleadapt.hmrnet import HmrConfig, hmr_init
from cycleadapt.mdnet import MdConfig, md_init
from cycleadapt.metrics import ACCEL_MIN_FRAMES, DegenerateGeometryError, evaluate_sequence, vertex_errors
from cycleadapt.synth import make_video


def test_benchmark_body_dimensions_and_scale():
    model = bench.benchmark_body()
    body = bench.Body()
    assert model.joint_count == bench.JOINTS
    assert model.template_vertices.shape == (body.vertices, 3)
    unscaled = build_toy_body(body.seed, joints=bench.JOINTS, vertices=body.vertices)
    rest_joints = model.joint_regressor @ model.template_vertices
    assert np.allclose(rest_joints, unscaled.joint_regressor @ unscaled.template_vertices * body.scale)


# the body and pretrain cases of the CLI's refused-setting test, built directly
@pytest.mark.parametrize(
    "cls, key, value",
    [
        ("Pretrain", "md_sigma", -1.0),
        pytest.param("Pretrain", "md_plan", ((0, 1e-3),), id="Pretrain-md_plan-no_steps"),
        ("Pretrain", "hmr_lr", float("inf")),
        pytest.param("Pretrain", "md_plan", ((10, float("nan")),), id="Pretrain-md_plan-nan_lr"),
        ("Body", "vertices", 3),
        ("Body", "scale", 0.0),
        ("Body", "scale", -1.0),
        ("Body", "scale", float("nan")),
        ("Body", "seed", -1),
    ],
)
def test_a_refused_body_or_recipe_setting_raises_in_the_library(cls, key, value):
    with pytest.raises(ValueError, match=rf"^{cls}\.{key} "):
        getattr(bench, cls)(**{key: value})


FLOAT_FIELDS = [
    (cls, field.name)
    for cls in (AdaptConfig, bench.Body, bench.Pretrain)
    for field in dataclasses.fields(cls)
    if field.type == "float"
]


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_a_nan_float_setting_is_refused_by_its_type(cls, name):
    for value in (float("nan"), float("inf"), float("-inf")):  # and an infinite one
        with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} "):
            cls(**{name: value})


@pytest.mark.parametrize("setting", [dict(hmr_lr=-1.0), dict(md_plan=((10, -1e-3),))], ids=["hmr_lr", "md_plan"])
def test_pretrain_nets_cannot_be_reached_with_a_refused_recipe(setting):
    with pytest.raises(TypeError):  # the recipe is one argument, not loose keywords
        bench.pretrain_nets(**setting)
    with pytest.raises(ValueError):
        bench.pretrain_nets(recipe=bench.Pretrain(**setting))


def test_scale_body_scales_posed_geometry_exactly():
    from cycleadapt.bodymodel import body_forward_batch

    model = build_toy_body(3, joints=24, vertices=30)
    half = scale_body(model, 0.5)
    rng = np.random.default_rng(0)
    theta = rng.normal(size=(2, 144))
    beta = rng.normal(size=(2, 10))
    verts, joints = body_forward_batch(model, theta, beta)
    hverts, hjoints = body_forward_batch(half, theta, beta)
    assert np.allclose(hverts, verts * 0.5, atol=1e-12)
    assert np.allclose(hjoints, joints * 0.5, atol=1e-12)


def test_scale_body_rejects_nonpositive():
    model = build_toy_body(3, joints=24, vertices=30)
    with pytest.raises(ValueError, match="positive"):
        scale_body(model, 0.0)


def test_domains_differ_only_where_the_gap_lives():
    src, tgt = bench.SOURCE, bench.TARGET
    assert src.freq_range == tgt.freq_range
    assert src.amp_range == tgt.amp_range
    assert src.mixing_seed != tgt.mixing_seed
    assert tgt.kp_noise_std > src.kp_noise_std
    assert tgt.p_drop > src.p_drop
    assert tgt.feature_noise_std > src.feature_noise_std


def test_target_mixing_endpoints():
    a_src, b_src = bench.target_mixing(alpha=0.0)
    from cycleadapt.synth import mixing_matrices

    a0, b0 = mixing_matrices(bench.SOURCE, bench.FEATURE_DIM)
    assert np.array_equal(a_src, a0)
    assert np.array_equal(b_src, b0)
    a_far, b_far = bench.target_mixing(alpha=1.0)
    a1, b1 = mixing_matrices(bench.TARGET, bench.FEATURE_DIM)
    assert np.array_equal(a_far, a1)
    assert np.array_equal(b_far, b1)


def test_target_mixing_rejects_out_of_range_alpha():
    with pytest.raises(ValueError, match="alpha"):
        bench.target_mixing(alpha=1.5)


# a variant is one row of the experiment table: a label and the AdaptConfig fields it overrides
ALL_ROWS = [row for rows in bench.SUITES.values() for row in rows]
VARIANTS = {label: overrides for label, overrides, _, _ in ALL_ROWS}


def variant_config(label, base):
    return dataclasses.replace(base, **VARIANTS[label])


def test_variant_config_flags():
    assert all(VARIANTS[label] == overrides for label, overrides, _, _ in ALL_ROWS)  # a label means one config
    base = AdaptConfig(seed=3)
    assert variant_config("no_adapt", base).cycles == 0
    assert variant_config("2d_only", base).md_denoiser == "none"
    assert variant_config("3d_noncyclic", base).md_denoiser == "frozen_mdnet"
    full = variant_config("full_cyclic", base)
    assert full.md_denoiser == "mdnet" and not full.frozen_hmrnet
    assert full.seed == 3
    assert variant_config("gaussian", base).md_denoiser == "gaussian"
    for label in ("frozen_hmrnet", "store_before"):
        frozen = variant_config(label, base)
        assert frozen.frozen_hmrnet and frozen.md_denoiser == "frozen_mdnet"
    adapting = variant_config("store_after", base)
    assert adapting.frozen_hmrnet and adapting.md_denoiser == "mdnet"
    for label in ("pretrained", "random_init"):
        assert variant_config(label, base) == full


# the denoiser mode each table row's label names; no_adapt keeps the base's
NAMED_MODES = {
    "frozen_hmrnet": "frozen_mdnet", "store_before": "frozen_mdnet", "store_after": "mdnet", "2d_only": "none",
    "3d_noncyclic": "frozen_mdnet", "full_cyclic": "mdnet", "gaussian": "gaussian", "pretrained": "mdnet",
    "random_init": "mdnet",
}


@pytest.mark.parametrize("base_mode", ["mdnet", "frozen_mdnet", "gaussian", "none"])
def test_variant_config_runs_the_mode_its_label_names_on_any_base(base_mode):
    base = AdaptConfig(md_denoiser=base_mode, seed=3)
    for label in VARIANTS:
        frozen = label in ("frozen_hmrnet", "store_before", "store_after")
        cfg = variant_config(label, base)
        assert (cfg.md_denoiser, cfg.frozen_hmrnet) == (NAMED_MODES.get(label, base_mode), frozen), label


def test_variant_config_respects_base():
    base = AdaptConfig(cycles=2, batch=8, gamma=0.5, seed=7)
    for label in VARIANTS:  # a row changes no other field, the seed included
        cfg = variant_config(label, base)
        moved = dict(md_denoiser=cfg.md_denoiser, frozen_hmrnet=cfg.frozen_hmrnet)
        assert cfg == dataclasses.replace(base, cycles=0 if label == "no_adapt" else 2, **moved), label
    cfg = variant_config("2d_only", base)
    assert cfg.cycles == 2 and cfg.batch == 8 and cfg.gamma == 0.5
    assert cfg.seed == 7 and cfg.md_denoiser == "none"


def test_run_suite_runs_each_config_and_nets_once(tiny_bench):
    model, video = tiny_bench
    configs = dict(hmr_config=HmrConfig(feature_dim=8, hidden_dim=12, num_hidden_layers=1),
                   md_config=MdConfig(window=9, blocks=1))
    inits = []  # one entry per run: the random_init its nets were asked for

    def run(rows, random_init=False, runs=None):
        inits.clear()
        return bench.run_suite(rows, nets, random_init, model, video, AdaptConfig(cycles=1, batch=8), runs, **configs)

    def nets(random_init):
        inits.append(random_init)
        return bench.random_nets(0, *configs.values())

    assert [label for _, label, _ in run(bench.SUITES["table1"])] == ["frozen_hmrnet", "store_before", "store_after"]
    assert inits == [False, False]  # the two frozen-regressor rows share a run
    run(bench.SUITES["table2"], random_init=True)
    assert inits == [True] * 4  # a row's None takes the caller's random_init
    runs = {}
    table2 = run(bench.SUITES["table2"], runs=runs)
    table4 = run(bench.SUITES["table4"], runs=runs)
    assert inits == [False] and table4[0][2] is table2[3][2]  # full_cyclic: table2's run, kept in runs
    run(ALL_ROWS)
    assert len(inits) == 8  # the union of the four suites


def test_source_videos_are_the_bytes_of_one_make_video_call_each():
    # the shared feature map is drawn once, in place of once per video
    model = build_toy_body(2, joints=24, vertices=24)
    seeds, frames, dim = (1000, 1001, 1002), 30, 16
    videos = bench.make_source_videos(model, seeds=seeds, n_frames=frames, feature_dim=dim)
    assert len(videos) == len(seeds)
    for seed, video in zip(seeds, videos):
        alone = make_video(bench.SOURCE, model, frames, dim, seed)
        for field in dataclasses.fields(alone):
            a, b = getattr(video, field.name), getattr(alone, field.name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (seed, field.name)


def test_source_videos_hold_no_mesh():
    """A video keeps its parameters, not their (N, V, 3) posing: on a body of
    many vertices, the videos together hold less than one video's mesh."""
    model = build_toy_body(2, joints=24, vertices=2000)
    seeds, frames = (1000, 1001), 20
    tracemalloc.start()
    try:
        videos = bench.make_source_videos(model, seeds=seeds, n_frames=frames, feature_dim=16)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(videos) == len(seeds)
    assert held < frames * model.vertex_count * 3 * np.dtype(np.float64).itemsize


def test_make_evaluator_hides_ground_truth(tiny_bench):
    model, video = tiny_bench
    evaluator = bench.make_evaluator(model, video)
    thetas, betas = video.gt_params.theta, video.gt_params.beta
    report = evaluator(thetas, betas)
    assert report.mpjpe < 1e-6  # exact parameters reproduce the ground truth
    rng = np.random.default_rng(1)
    report2 = evaluator(thetas + rng.normal(scale=0.1, size=thetas.shape), betas)
    assert report2.mpjpe > report.mpjpe


def test_evaluator_reports_a_non_finite_pose_code_as_degenerate(tiny_bench):
    """A NaN code passes the rotation check (NaN <= eps is False); the
    evaluator must name its frame, not fail inside the Procrustes SVD."""
    model, video = tiny_bench
    thetas, betas = video.gt_params.theta.copy(), video.gt_params.beta
    thetas[5, 7] = np.nan
    with pytest.raises(DegenerateGeometryError, match="frame 5$"):
        bench.make_evaluator(model, video)(thetas, betas)


@pytest.fixture(scope="module")
def standard_body():
    return bench.benchmark_body()


def _whole_video_report(model, video, thetas, betas):
    """The evaluator's report by whole-video posing and scoring: the bits
    its frame blocks must give."""
    verts, joints = whole_batch_pose(model, thetas, betas)
    mesh, _ = whole_batch_pose(model, video.gt_params.theta, video.gt_params.beta)
    errors = vertex_errors(verts, mesh, joints[:, 0], video.gt_joints[:, 0])
    return evaluate_sequence(joints, video.gt_joints, errors)


def _outcome(score):
    try:
        return np.array(dataclasses.astuple(score())).tobytes()
    except ValueError as err:  # fewer frames than accel_error needs
        return repr(err)


@pytest.mark.parametrize("frames", [1, 2, 64, 65, 129, 500])
def test_the_block_evaluator_gives_the_whole_video_reports_byte_for_byte(standard_body, frames):
    """65 and 129 frames would leave a one-frame block under plain 64-frame
    blocks, whose posing takes other bits; the even split does not."""
    video = bench.make_target_video(frames, n_frames=frames, feature_dim=16, model=standard_body)
    evaluator = bench.make_evaluator(standard_body, video)
    rng = np.random.default_rng(frames)
    for _ in range(2):  # the first call poses the ground-truth mesh, the second reuses it
        thetas = video.gt_params.theta + rng.normal(scale=0.05, size=video.gt_params.theta.shape)
        betas = video.gt_params.beta + rng.normal(scale=0.1, size=video.gt_params.beta.shape)
        got = _outcome(lambda: evaluator(thetas, betas))
        assert got == _outcome(lambda: _whole_video_report(standard_body, video, thetas, betas))
    if frames < ACCEL_MIN_FRAMES:
        assert "accel_error: need at least" in got


@pytest.mark.parametrize("code, error, match", [
    (np.nan, DegenerateGeometryError, "not finite in frame 70$"),
    (0.0, DegenerateRotationError, r"first column norm at or below 1e-8 at \(row 70, joint 3\)$"),
], ids=["nan", "zero"])
def test_the_block_evaluator_names_the_frame_in_the_video(standard_body, code, error, match):
    """Frame 70 of 130 lies in the second of three blocks (43, 43 and 44
    frames); errors name it by its place in the video, as whole-video
    posing does."""
    video = bench.make_target_video(3, n_frames=130, feature_dim=16, model=standard_body)
    thetas, betas = video.gt_params.theta.copy(), video.gt_params.beta
    thetas[70, 18:21] = code  # joint 3's first column
    with pytest.raises(error, match=match) as info:
        bench.make_evaluator(standard_body, video)(thetas, betas)
    if error is DegenerateRotationError:
        with pytest.raises(error) as whole:
            whole_batch_pose(standard_body, thetas, betas)
        assert str(info.value) == str(whole.value)


def test_a_500_frame_evaluation_holds_no_whole_video_prediction(standard_body):
    """Posing and scoring in frame blocks: two calls, the first posing the
    ground-truth mesh (1.44 MB, kept), peak at 3.7 MB; whole-video posing
    and scoring peaked at 7.7 MB."""
    video = bench.make_target_video(0, n_frames=500, feature_dim=16, model=standard_body)
    thetas = video.gt_params.theta + np.random.default_rng(0).normal(scale=0.05, size=video.gt_params.theta.shape)
    betas = np.ascontiguousarray(video.gt_params.beta)
    evaluator = bench.make_evaluator(standard_body, video)
    tracemalloc.start()
    try:
        for _ in range(2):
            evaluator(thetas, betas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.0e6, f"peak {peak} B"


def test_a_ground_truth_that_cannot_be_posed_fails_every_call(standard_body):
    """A degenerate ground-truth code at frame 150 of 200 (the fourth of four
    blocks) fails the first call; the second, with the clean codes as its
    predictions, fails alike instead of scoring against a half-posed mesh."""
    video = bench.make_target_video(4, n_frames=200, feature_dim=16, model=standard_body)
    thetas, betas = video.gt_params.theta.copy(), video.gt_params.beta
    params = video.gt_params.copy()
    params.theta[150, 18:21] = 0.0  # joint 3's first column
    evaluator = bench.make_evaluator(standard_body, dataclasses.replace(video, gt_params=params))
    for _ in range(2):
        with pytest.raises(DegenerateRotationError, match=r"at \(row 150, joint 3\)$"):
            evaluator(thetas, betas)


def test_a_call_that_fails_posing_the_ground_truth_leaves_it_to_the_next(standard_body, monkeypatch):
    """The ground-truth mesh is kept only once its one posing call returns:
    after that call fails, the next evaluator call poses it again, so the
    video's own codes score 0."""
    video = bench.make_target_video(4, n_frames=200, feature_dim=16, model=standard_body)
    thetas, betas = video.gt_params.theta, video.gt_params.beta
    posed, pose = [], bench.body_forward_batch

    def fail_the_ground_truth(model, theta, beta):
        posed.append(len(theta))
        if len(posed) == 1:
            raise MemoryError("ground truth")
        return pose(model, theta, beta)

    monkeypatch.setattr(bench, "body_forward_batch", fail_the_ground_truth)
    evaluator = bench.make_evaluator(standard_body, video)
    with pytest.raises(MemoryError):
        evaluator(thetas, betas)
    report = evaluator(thetas, betas)
    assert posed == [200, 200, 50, 50, 50, 50]  # the ground truth twice, then the prediction's blocks
    assert report.mpvpe == 0.0 and report.mpjpe == 0.0
    assert report == _whole_video_report(standard_body, video, thetas, betas)
    evaluator(thetas, betas)
    assert posed[6:] == [50, 50, 50, 50]  # the kept mesh is not posed again


def test_making_a_500_frame_target_video_holds_one_posing_block(standard_body):
    """Synthesis poses the video's 500 frames in frame blocks, so the
    skinning blend and the posing graph's intermediates exist for one block
    at a time: the peak is at most 5.5 MB, where whole-batch posing took
    7.3 MB."""
    bench.make_target_video(0, n_frames=8, model=standard_body)
    tracemalloc.start()
    try:
        bench.make_target_video(0, n_frames=500, model=standard_body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5e6, f"peak {peak} B"


@pytest.fixture(scope="module")
def tiny_bench():
    model = scale_body(build_toy_body(1, joints=24, vertices=24), 0.15)
    from cycleadapt.synth import DomainSpec, make_video

    spec = DomainSpec(
        name="t",
        freq_range=(0.02, 0.05),
        amp_range=(0.2, 0.5),
        mixing_seed=9,
        feature_noise_std=0.05,
        kp_noise_std=0.01,
        p_drop=0.1,
    )
    return model, make_video(spec, model, 24, 8, 0)


def test_random_nets_shapes():
    hmr_p, md_p = bench.random_nets(11)
    assert hmr_p == {**hmr_p} and md_p == {**md_p}
    assert hmr_p["w0"].shape[0] == bench.FEATURE_DIM
    assert md_p["w_in"].shape == (144, 144)
    hmr_p2, _ = bench.random_nets(11)
    assert all(np.array_equal(hmr_p[k], hmr_p2[k]) for k in hmr_p)


def test_pretrain_nets_writes_both_nets_to_cache_dir(tmp_path):
    """cache_dir is where the two checkpoints go; nothing is read back, so a
    second call trains again and writes the same nets."""
    # tiny step counts: the write, not the training quality, is under test
    recipe = bench.Pretrain(hmr_steps=3, md_plan=((4, 1e-3),))
    nets_dir = tmp_path / "nets"
    hmr_params, md_params, tau = bench.pretrain_nets(cache_dir=nets_dir, recipe=recipe)
    assert sorted(f.name for f in nets_dir.iterdir()) == ["hmr_src.ckpt", "md_src.ckpt"]
    for (config, params), want_config, want in (
        (load_hmr(nets_dir / "hmr_src.ckpt"), bench.HMR_CONFIG, hmr_params),
        (load_md(nets_dir / "md_src.ckpt"), bench.MD_CONFIG, md_params),
    ):
        assert config == want_config
        assert params.keys() == want.keys() and all(np.array_equal(params[k], want[k]) for k in want)
    names = ("hmr_src.ckpt", "md_src.ckpt")
    written = [(nets_dir / name).read_bytes() for name in names]
    for name in names:
        (nets_dir / name).write_bytes(b"not a checkpoint")
    again = bench.pretrain_nets(cache_dir=nets_dir, recipe=recipe)
    assert again[2] == tau
    assert all(np.array_equal(again[1][k], md_params[k]) for k in md_params)
    assert [(nets_dir / name).read_bytes() for name in names] == written


def test_domain_gap_monotone_in_alpha():
    """Pulling the target map toward the source map shrinks the gap."""
    model = bench.benchmark_body()
    videos = bench.make_source_videos(model, seeds=(1000,), n_frames=120)
    params, _ = bench.hmr_pretrain(
        model, bench.HMR_CONFIG, hmr_init(bench.HMR_CONFIG, seed=0), videos, steps=250, seed=0
    )
    errs = []
    for alpha in (0.1, 0.35, 0.6):
        video = bench.make_target_video(0, n_frames=120, model=model, alpha=alpha)
        errs.append(bench.pose_code_error(params, np.asarray(video.features), video.gt_params.theta))
    assert errs[0] < errs[1] < errs[2]
