"""Adaptation loop: store contract, stage semantics, determinism, online mode."""

import tracemalloc

import numpy as np
import pytest

from oracles import DEGENERATE_CODES

from cycleadapt import adapt, benchmark, diffcore, mdnet
from cycleadapt.adapt import (
    AdaptConfig,
    AdaptInputs,
    InvariantError,
    ResultStore,
    adapt_inputs,
    cycle_adapt,
    hmr_stage,
    md_stage,
    online_adapt,
    windows_per_cycle,
)
from cycleadapt.bodymodel import build_toy_body
from cycleadapt.checkpoint import load_hmr, load_md
from cycleadapt.diffcore import DegenerateRotationError
from cycleadapt.hmrnet import HmrConfig, hmr_init
from cycleadapt.mdnet import MdConfig, gaussian_filter_baseline, md_init
from cycleadapt.optim import adam_init
from cycleadapt.synth import DomainSpec, make_video

MODEL = build_toy_body(1, joints=24, vertices=24)
HMR_CONFIG = HmrConfig(feature_dim=8, hidden_dim=10, num_hidden_layers=1)
MD_CONFIG = MdConfig(window=5, blocks=1)
SPEC = DomainSpec(
    name="unit",
    freq_range=(0.08, 0.15),
    amp_range=(0.2, 0.6),
    mixing_seed=11,
    feature_noise_std=0.01,
    kp_noise_std=0.02,
    p_drop=0.2,
)


def _setup(n_frames, seed=3):
    video = make_video(SPEC, MODEL, n_frames, HMR_CONFIG.feature_dim, seed=seed)
    return adapt_inputs(video)


def _config(**overrides):
    base = dict(cycles=2, batch=8, lr_start=1e-4, lr_end=1e-6, seed=3)
    base.update(overrides)
    return AdaptConfig(**base)


def _lr():
    """A stage's learning-rate schedule, held constant."""
    return 1e-4


def _stub_evaluator(theta, beta):
    return (float(np.abs(theta).mean()), float(np.abs(beta).mean()))


def _same_arrays(params: dict, given: dict) -> bool:
    """``params`` has the keys of ``given``, in order, each holding the very
    array object that ``given`` holds."""
    return list(params) == list(given) and all(params[k] is given[k] for k in given)


def record_loop(monkeypatch) -> dict:
    """Wrap the loop's stage and step functions in `adapt`, which call each
    other by module name, and log what each call shows:

    - ``steps``: (cycle, pull) per regressor step; pull is None when the
      step got no pseudo targets, else mean |out - pseudo| over theta plus
      gamma times the same over beta, for the step's forward outputs;
    - ``masks``: the mask of each denoiser step;
    - ``store_at_start``: (theta, beta) of the store the first regressor
      stage saw;
    - ``betas_kept``: per denoiser stage, whether store.beta came out equal.

    Steps of a regressor stage called directly log cycle None.
    """
    log = {"steps": [], "masks": [], "store_at_start": None, "betas_kept": []}
    cycle = [None]
    hmr_stage, md_stage, hmr_step, md_step = adapt.hmr_stage, adapt.md_stage, adapt.hmr_step, adapt.md_step

    def hmr_stage_(inputs, store, model, hmr_config, params, state, lr, config, cycle_index, rng):
        if log["store_at_start"] is None:
            log["store_at_start"] = (store.theta.copy(), store.beta.copy())
        cycle[0] = cycle_index
        return hmr_stage(inputs, store, model, hmr_config, params, state, lr, config, cycle_index, rng)

    def hmr_step_(inputs, idx, model, hmr_config, params, state, gamma, lr, pseudo_theta=None, pseudo_beta=None, rows=None):
        out = hmr_step(inputs, idx, model, hmr_config, params, state, gamma, lr, pseudo_theta, pseudo_beta, rows)
        pull = None
        if pseudo_theta is not None:
            pull = float(np.abs(out[0] - pseudo_theta).mean() + gamma * np.abs(out[1] - pseudo_beta).mean())
        log["steps"].append((cycle[0], pull))
        return out

    def md_stage_(store, *rest):
        beta_before = store.beta.copy()
        out = md_stage(store, *rest)
        log["betas_kept"].append(np.array_equal(store.beta, beta_before))
        return out

    def md_step_(store, idx, window_theta, mask, *rest):
        log["masks"].append(None if mask is None else np.array(mask))
        return md_step(store, idx, window_theta, mask, *rest)

    for name, wrapper in (("hmr_stage", hmr_stage_), ("hmr_step", hmr_step_), ("md_stage", md_stage_), ("md_step", md_step_)):
        monkeypatch.setattr(adapt, name, wrapper)
    return log


def test_store_initializes_to_zero_and_tracks_writes():
    store = ResultStore(4)
    assert store.theta.shape == (4, 144) and not store.theta.any()
    assert store.beta.shape == (4, 10) and not store.beta.any()
    assert not store.md_written.any()

    theta = np.ones((2, 144))
    beta = np.ones((2, 10))
    store.write_hmr([1, 3], theta, beta)
    assert store.theta[1, 0] == 1.0 and store.theta[0, 0] == 0.0
    store.write_md([1], np.full((1, 144), 2.0))
    assert store.md_written[1] and not store.md_written[3]
    assert store.beta[1, 0] == 1.0  # write_md leaves betas alone
    store.write_hmr([1], theta[:1], beta[:1])
    assert not store.md_written[1]  # raw regressor output again


def test_store_fetch_returns_copies():
    store = ResultStore(3)
    theta, beta = store.fetch([0, 1])
    theta += 5.0
    beta += 5.0
    assert not store.theta.any() and not store.beta.any()


def test_store_rejects_empty_and_bad_shapes():
    with pytest.raises(InvariantError):
        ResultStore(0)
    store = ResultStore(3)
    with pytest.raises(InvariantError):
        store.write_hmr([0], np.zeros((2, 144)), np.zeros((2, 10)))
    with pytest.raises(InvariantError):
        store.write_md([0, 1], np.zeros((2, 10)))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(cycles=-1),
        dict(batch=0),
        dict(lr_end=-1e-6),
        dict(lr_start=1e-6, lr_end=1e-4),
        dict(gamma=-0.1),
        dict(seed=-1),
        dict(md_denoiser="median"),
        dict(gaussian_std=0.0),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        _config(**kwargs)


def test_adapt_inputs_strips_video_to_observables():
    video = make_video(SPEC, MODEL, 4, HMR_CONFIG.feature_dim, seed=0)
    inputs = adapt_inputs(video)
    assert inputs.features.shape == (4, HMR_CONFIG.feature_dim)
    assert inputs.keypoints.shape == (4, MODEL.joint_count, 3)
    assert inputs.frame_count == 4
    assert not hasattr(inputs, "gt_joints")


def test_adapt_inputs_validates_shapes():
    with pytest.raises(ValueError):
        AdaptInputs(features=np.zeros(8), keypoints=np.zeros((1, 24, 3)))
    with pytest.raises(ValueError):
        AdaptInputs(features=np.zeros((2, 8)), keypoints=np.zeros((3, 24, 3)))


def test_windows_per_cycle_rounds_up():
    assert windows_per_cycle(49, 49) == 1
    assert windows_per_cycle(50, 49) == 2
    assert windows_per_cycle(500, 49) == 11


def test_hmr_stage_step_count_and_full_store_coverage(monkeypatch):
    inputs = _setup(64)
    store = ResultStore(64)
    params = hmr_init(HMR_CONFIG, seed=0)
    config = _config(batch=32)
    state = adam_init(params)
    log = record_loop(monkeypatch)
    hmr_stage(
        inputs, store, MODEL, HMR_CONFIG, params, state, _lr, config, 1,
        np.random.default_rng(0),
    )
    assert state.step == 2  # 64 frames / batch 32
    assert np.all(np.any(store.theta != 0.0, axis=1))
    assert np.all(np.any(store.beta != 0.0, axis=1))
    assert log["steps"] == [(None, None), (None, None)]  # no pseudo targets in cycle 1


def test_hmr_stage_second_cycle_pulls_toward_store(monkeypatch):
    inputs = _setup(16)
    store = ResultStore(16)
    params = hmr_init(HMR_CONFIG, seed=0)
    config = _config()
    state = adam_init(params)
    hmr_stage(
        inputs, store, MODEL, HMR_CONFIG, params, state, _lr, config, 1,
        np.random.default_rng(0),
    )
    log = record_loop(monkeypatch)
    hmr_stage(
        inputs, store, MODEL, HMR_CONFIG, params, state, _lr, config, 2,
        np.random.default_rng(1),
    )
    assert len(log["steps"]) == 2
    assert all(pull is not None and pull > 0.0 for _, pull in log["steps"])


def test_hmr_stage_frozen_writes_but_never_steps():
    inputs = _setup(16)
    store = ResultStore(16)
    params = hmr_init(HMR_CONFIG, seed=0)
    config = _config(frozen_hmrnet=True)
    state = adam_init(params)
    given = dict(params)
    hmr_stage(
        inputs, store, MODEL, HMR_CONFIG, params, state, _lr, config, 1,
        np.random.default_rng(0),
    )
    assert _same_arrays(params, given) and state.step == 0
    assert np.all(np.any(store.theta != 0.0, axis=1))


@pytest.mark.parametrize("cycle_index", [1, 2])
def test_a_frozen_regressor_stage_writes_its_step_outputs_byte_for_byte(monkeypatch, cycle_index):
    """17 frames in batches of 8 end in a one-row batch, whose forward pass
    takes gemv's bits. The frozen stage's rows equal, byte for byte, what
    `hmr_step` returns for the same batches, yet the stage calls neither
    `hmr_step` nor the Adam update."""
    inputs = _setup(17)
    params = hmr_init(HMR_CONFIG, seed=0)
    config = _config(frozen_hmrnet=True)
    order = np.random.default_rng(5).permutation(17)
    batches = [order[lo : lo + 8] for lo in range(0, 17, 8)]
    assert [b.size for b in batches] == [8, 8, 1]
    store = _filled_store(17)
    expected_theta, expected_beta = store.theta.copy(), store.beta.copy()
    for idx in batches:
        pseudo = store.fetch(idx) if cycle_index > 1 else (None, None)
        state = adam_init(params)
        theta, beta = adapt.hmr_step(inputs, idx, MODEL, HMR_CONFIG, dict(params), state, 0.001, 1e-4, *pseudo)
        expected_theta[idx], expected_beta[idx] = theta, beta

    def refuse(*args, **kwargs):
        raise AssertionError("a frozen regressor's stage took a step")

    monkeypatch.setattr(adapt, "hmr_step", refuse)
    monkeypatch.setattr(adapt, "adam_step", refuse)
    state = adam_init(params)
    hmr_stage(inputs, store, MODEL, HMR_CONFIG, params, state, _lr, config, cycle_index, np.random.default_rng(5))
    assert store.theta.tobytes() == expected_theta.tobytes()
    assert store.beta.tobytes() == expected_beta.tobytes()
    assert state.step == 0 and not store.md_written.any()


def _filled_store(n, seed=7):
    rng = np.random.default_rng(seed)
    store = ResultStore(n)
    store.write_hmr(np.arange(n), 0.3 * rng.normal(size=(n, 144)), 0.3 * rng.normal(size=(n, 10)))
    return store


def test_md_stage_overwrites_thetas_but_never_betas(monkeypatch):
    store = _filled_store(5)
    beta_before = store.beta.copy()
    theta_before = store.theta.copy()
    params = md_init(MD_CONFIG, seed=0)
    state = adam_init(params)
    log = record_loop(monkeypatch)
    md_stage(store, MD_CONFIG, params, state, _lr, _config(), np.random.default_rng(2))
    assert np.array_equal(store.beta, beta_before)
    # one window covers all five frames, so every theta row is rewritten
    assert store.md_written.all()
    assert np.all(np.any(store.theta != theta_before, axis=1))
    assert state.step == 1
    assert [m.sum() for m in log["masks"]] == [3]  # ceil(5 / 2)


def test_md_stage_short_video_masks_real_rows_only(monkeypatch):
    store = _filled_store(3)
    params = md_init(MD_CONFIG, seed=0)
    log = record_loop(monkeypatch)
    md_stage(store, MD_CONFIG, params, adam_init(params), _lr, _config(), np.random.default_rng(2))
    (mask,) = log["masks"]
    assert mask.shape == (5,) and mask.sum() == 2  # ceil(3 / 2)
    assert not mask[3:].any()  # padding excluded
    assert store.md_written.all() and store.size == 3


def test_md_stage_frozen_keeps_params_but_still_denoises():
    store = _filled_store(5)
    params = md_init(MD_CONFIG, seed=0)
    state = adam_init(params)
    config = _config(md_denoiser="frozen_mdnet")
    given = dict(params)
    md_stage(store, MD_CONFIG, params, state, _lr, config, np.random.default_rng(2))
    assert _same_arrays(params, given) and state.step == 0
    assert store.md_written.all()


def test_md_stage_gaussian_filters_whole_sequence():
    store = _filled_store(12)
    theta_before = store.theta.copy()
    params = md_init(MD_CONFIG, seed=0)
    state = adam_init(params)
    config = _config(md_denoiser="gaussian", gaussian_std=2.0)
    given = dict(params)
    md_stage(store, MD_CONFIG, params, state, _lr, config, np.random.default_rng(2))
    assert _same_arrays(params, given) and state.step == 0
    assert np.array_equal(store.theta, gaussian_filter_baseline(theta_before, 2.0))
    assert store.md_written.all()


def test_cycle_adapt_row_layout_and_step_budget():
    inputs = _setup(16)
    config = _config(cycles=2)
    run = cycle_adapt(
        inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0),
        MD_CONFIG, md_init(MD_CONFIG, seed=0), config,
        evaluator=_stub_evaluator,
    )
    assert [(c, s) for c, s, _ in run.rows] == [
        (0, "hmrnet"),
        (1, "hmrnet"), (1, "store"),
        (2, "hmrnet"), (2, "store"),
    ]
    # 2 hmr batches + 4 md windows per cycle, 2 cycles
    assert run.steps_taken == 2 * (2 + 4)


def test_cycle_adapt_zero_cycles_is_pre_adaptation_eval():
    inputs = _setup(8)
    hmr0 = hmr_init(HMR_CONFIG, seed=0)
    md0 = md_init(MD_CONFIG, seed=0)
    run = cycle_adapt(inputs, MODEL, HMR_CONFIG, hmr0, MD_CONFIG, md0, _config(cycles=0),
                      evaluator=_stub_evaluator)
    assert _same_arrays(run.hmr_params, hmr0) and _same_arrays(run.md_params, md0)
    assert [(c, s) for c, s, _ in run.rows] == [(0, "hmrnet")]
    assert run.steps_taken == 0


def test_cycle_adapt_is_bit_identical_across_repeats():
    inputs = _setup(16)
    runs = []
    for _ in range(2):
        runs.append(
            cycle_adapt(
                inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0),
                MD_CONFIG, md_init(MD_CONFIG, seed=0), _config(cycles=2),
                evaluator=_stub_evaluator,
            )
        )
    a, b = runs
    assert a.rows == b.rows
    for key in a.hmr_params:
        assert np.array_equal(a.hmr_params[key], b.hmr_params[key])
    for key in a.md_params:
        assert np.array_equal(a.md_params[key], b.md_params[key])
    assert np.array_equal(a.store.theta, b.store.theta)
    assert np.array_equal(a.store.beta, b.store.beta)


def test_cycle_adapt_no_3d_loss_skips_denoiser_entirely(monkeypatch):
    inputs = _setup(16)
    md0 = md_init(MD_CONFIG, seed=0)
    log = record_loop(monkeypatch)
    run = cycle_adapt(
        inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0),
        MD_CONFIG, md0, _config(cycles=2, md_denoiser="none"), _stub_evaluator,
    )
    assert _same_arrays(run.md_params, md0)
    assert not run.store.md_written.any()
    assert log["steps"] == [(1, None)] * 2 + [(2, None)] * 2  # never a pull
    assert log["masks"] == [] and log["betas_kept"] == []
    assert run.steps_taken == 2 * 2  # hmr batches only


def test_cycle_adapt_frozen_hmrnet_only_trains_denoiser():
    inputs = _setup(16)
    hmr0 = hmr_init(HMR_CONFIG, seed=0)
    run = cycle_adapt(
        inputs, MODEL, HMR_CONFIG, hmr0, MD_CONFIG, md_init(MD_CONFIG, seed=0),
        _config(cycles=2, frozen_hmrnet=True), _stub_evaluator,
    )
    for key in hmr0:
        assert np.array_equal(run.hmr_params[key], hmr0[key])
    assert run.steps_taken == 2 * 4  # md windows only


def test_cycle_adapt_instrumentation_invariants(monkeypatch):
    inputs = _setup(16)
    log = record_loop(monkeypatch)
    cycle_adapt(
        inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0),
        MD_CONFIG, md_init(MD_CONFIG, seed=0), _config(cycles=3), _stub_evaluator,
    )
    theta0, beta0 = log["store_at_start"]
    assert not theta0.any() and not beta0.any()
    assert [c for c, _ in log["steps"]] == [1, 1, 2, 2, 3, 3]
    assert all(pull is None for c, pull in log["steps"] if c == 1)
    assert all(pull is not None for c, pull in log["steps"] if c >= 2)
    assert any(pull > 0.0 for c, pull in log["steps"] if c >= 2)
    assert [m.sum() for m in log["masks"]] == [3] * (3 * 4)  # ceil(5/2) per window
    assert log["betas_kept"] == [True] * 3


def test_cycle_adapt_writes_loadable_per_cycle_checkpoints(tmp_path):
    inputs = _setup(8)
    run = cycle_adapt(
        inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0),
        MD_CONFIG, md_init(MD_CONFIG, seed=0), _config(cycles=2), _stub_evaluator,
        checkpoint_dir=tmp_path,
    )
    for cycle in (1, 2):
        assert (tmp_path / f"hmr_cycle{cycle:02d}.ckpt").exists()
        assert (tmp_path / f"md_cycle{cycle:02d}.ckpt").exists()
    config, params = load_hmr(tmp_path / "hmr_cycle02.ckpt")
    assert config == HMR_CONFIG
    for key in params:
        assert np.array_equal(params[key], run.hmr_params[key])
    md_config, md_params = load_md(tmp_path / "md_cycle02.ckpt")
    assert md_config == MD_CONFIG
    for key in md_params:
        assert np.array_equal(md_params[key], run.md_params[key])


def test_online_truncation_leaves_earlier_outputs_bit_identical():
    inputs = _setup(23)
    short = AdaptInputs(features=inputs.features[:13], keypoints=inputs.keypoints[:13])
    kwargs = dict(config=_config(cycles=1), evaluator=_stub_evaluator)
    full = online_adapt(inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0),
                        MD_CONFIG, md_init(MD_CONFIG, seed=0), **kwargs)
    part = online_adapt(short, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0),
                        MD_CONFIG, md_init(MD_CONFIG, seed=0), **kwargs)
    assert np.array_equal(full.theta[:13], part.theta)
    assert np.array_equal(full.beta[:13], part.beta)


def test_online_short_video_never_touches_denoiser():
    inputs = _setup(4)
    md0 = md_init(MD_CONFIG, seed=0)
    run = online_adapt(inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0),
                       MD_CONFIG, md0, _config(), _stub_evaluator)
    assert _same_arrays(run.md_params, md0)
    assert run.steps_taken == 4  # one regressor step per frame, nothing else


def test_online_step_budget_and_determinism():
    inputs = _setup(11)
    runs = []
    for _ in range(2):
        runs.append(
            online_adapt(
                inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0),
                MD_CONFIG, md_init(MD_CONFIG, seed=0), _config(),
                evaluator=_stub_evaluator,
            )
        )
    a, b = runs
    assert a.steps_taken == 11 + 2  # 11 frames, two full windows of 5
    assert np.array_equal(a.theta, b.theta)
    assert a.report == b.report
    for key in a.hmr_params:
        assert np.array_equal(a.hmr_params[key], b.hmr_params[key])


def test_online_frozen_mdnet_still_denoises_the_store(monkeypatch):
    stores = []

    class RecordedStore(ResultStore):
        def __init__(self, n_frames):
            super().__init__(n_frames)
            stores.append(self)

    monkeypatch.setattr(adapt, "ResultStore", RecordedStore)
    inputs = _setup(12)
    md0 = md_init(MD_CONFIG, seed=0)
    run = online_adapt(inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0),
                       MD_CONFIG, md0, _config(md_denoiser="frozen_mdnet"), _stub_evaluator)
    assert _same_arrays(run.md_params, md0)
    assert run.steps_taken == 12  # one regressor step per frame, no denoiser step
    (store,) = stores
    assert store.md_written[:10].all()  # two full windows of 5, denoised
    assert not store.md_written[10:].any()


def test_hmr_step_rejects_a_non_finite_loss():
    inputs = _setup(8)
    params = hmr_init(HMR_CONFIG, seed=0)
    params["w0"][2, 3] = np.nan
    state = adam_init(params)
    state.step = 7
    with pytest.raises(InvariantError, match=r"regressor loss is nan \(Adam updates completed: 7\)"):
        adapt.hmr_step(inputs, np.arange(8), MODEL, HMR_CONFIG, params, state, 0.001, 1e-4)
    assert state.step == 7


@pytest.mark.parametrize("code", DEGENERATE_CODES)
def test_hmr_step_refuses_a_degenerate_pose_code(code):
    """A regressor whose output code for joint 5 is degenerate on every frame
    is stopped by the decoder node before the update, not by a NaN loss."""
    inputs = _setup(8)
    params = hmr_init(HMR_CONFIG, seed=0)
    params["w_out"][:, 30:36] = 0.0
    params["b_out"][30:36] = code
    state = adam_init(params)
    with pytest.raises(DegenerateRotationError, match=r"\(rot6d\).*at \(row 0, joint 5\)"):
        adapt.hmr_step(inputs, np.arange(8), MODEL, HMR_CONFIG, params, state, 0.001, 1e-4)
    assert state.step == 0


def test_md_step_rejects_a_non_finite_loss():
    store = _filled_store(5)
    params = md_init(MD_CONFIG, seed=0)
    params["w_in"][0, 0] = np.inf
    state = adam_init(params)
    state.step = 4
    mask = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    # the infinite weight meets zeroed inputs in the first matmul: inf * 0
    with pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"):
        with pytest.raises(InvariantError, match=r"denoiser loss is (nan|inf) \(Adam updates completed: 4\)"):
            adapt.md_step(store, np.arange(5), store.theta.copy(), mask, MD_CONFIG, params, state, 1e-4)


def test_md_step_refuses_to_write_non_finite_poses():
    store = _filled_store(5)
    theta_before = store.theta.copy()
    params = md_init(MD_CONFIG, seed=0)
    params["w_out"][1, 2] = np.nan
    state = adam_init(params)
    state.step = 3
    # no mask (a frozen denoiser), so no loss: only the write-back can see it
    with pytest.raises(InvariantError, match=r"denoiser wrote non-finite poses \(Adam updates completed: 3\)"):
        adapt.md_step(store, np.arange(5), store.theta.copy(), None, MD_CONFIG, params, state, 1e-4)
    assert np.array_equal(store.theta, theta_before) and not store.md_written.any()


def test_cycle_adapt_stops_at_a_frozen_denoisers_non_finite_write_back():
    inputs = _setup(16)
    md0 = md_init(MD_CONFIG, seed=0)
    md0["w_out"][0, 0] = np.nan
    config = _config(cycles=2, md_denoiser="frozen_mdnet")
    # after the regressor's two updates; the frozen denoiser has taken none
    with pytest.raises(InvariantError, match=r"denoiser wrote non-finite poses \(Adam updates completed: 0\)"):
        cycle_adapt(inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0), MD_CONFIG, md0, config, _stub_evaluator)


def _nan_params_from_second_call(evaluate):
    """A graph evaluation that binds NaN parameters from its second call on,
    so a training loop's loss turns NaN at its second update."""
    calls = [0]

    def wrapped(g, params):
        calls[0] += 1
        return evaluate(g, params if calls[0] == 1 else {k: np.full_like(v, np.nan) for k, v in params.items()})

    return wrapped


def test_every_training_loop_reports_a_divergence_alike(monkeypatch):
    """The regressor step, the denoiser step and denoiser pre-training name
    the net and the updates it had completed, in one wording."""
    inputs = _setup(16)
    messages = []

    def diverge(module, run):
        with monkeypatch.context() as patch:
            patch.setattr(module, "evaluate", _nan_params_from_second_call(module.evaluate))
            with pytest.raises(InvariantError) as info:
                run()
        messages.append(str(info.value))

    # the regressor step evaluates through `adapt.evaluate`, both denoiser loops through `diffcore`
    diverge(adapt, lambda: cycle_adapt(
        inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0), MD_CONFIG, md_init(MD_CONFIG, seed=0),
        _config(md_denoiser="none"), _stub_evaluator,
    ))
    diverge(diffcore, lambda: cycle_adapt(
        inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0), MD_CONFIG, md_init(MD_CONFIG, seed=0),
        _config(frozen_hmrnet=True), _stub_evaluator,
    ))
    motion = np.random.default_rng(0).normal(scale=0.3, size=(12, 144))
    diverge(diffcore, lambda: mdnet.md_pretrain(MD_CONFIG, md_init(MD_CONFIG, seed=0), [motion], steps=3))
    assert messages == [
        "regressor loss is nan (Adam updates completed: 1)",
        "denoiser loss is nan (Adam updates completed: 1)",
        "denoiser loss is nan (Adam updates completed: 1)",
    ]


def test_steps_taken_is_the_two_nets_adam_update_count(monkeypatch):
    states = {}

    def recording_adam_init(params):
        states["md" if "w_in" in params else "hmr"] = state = adam_init(params)
        return state

    monkeypatch.setattr(adapt, "adam_init", recording_adam_init)
    inputs = _setup(11)
    offline = cycle_adapt(
        inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0), MD_CONFIG, md_init(MD_CONFIG, seed=0),
        _config(cycles=2), _stub_evaluator,
    )
    assert (states["hmr"].step, states["md"].step) == (2 * 2, 2 * 3)  # per cycle: 2 batches of 8, 3 windows of 5
    assert offline.steps_taken == states["hmr"].step + states["md"].step
    online = online_adapt(
        inputs, MODEL, HMR_CONFIG, hmr_init(HMR_CONFIG, seed=0), MD_CONFIG, md_init(MD_CONFIG, seed=0),
        _config(), _stub_evaluator,
    )
    assert (states["hmr"].step, states["md"].step) == (11, 2)  # one update per frame; two full windows
    assert online.steps_taken == states["hmr"].step + states["md"].step


def _loop_run(loop: str, hmr0: dict, md0: dict):
    """Run one training loop on the given nets; returns (hmr, md) as it returned them."""
    inputs = _setup(16)
    if loop.startswith(("cycle_adapt", "online_adapt")):
        frozen = dict(frozen_hmrnet=True, md_denoiser="frozen_mdnet") if loop.endswith("frozen") else {}
        train = cycle_adapt if loop.startswith("cycle_adapt") else online_adapt
        run = train(inputs, MODEL, HMR_CONFIG, hmr0, MD_CONFIG, md0, _config(**frozen), _stub_evaluator)
        return run.hmr_params, run.md_params
    if loop == "hmr_pretrain":
        video = make_video(SPEC, MODEL, 16, HMR_CONFIG.feature_dim, seed=4)
        return benchmark.hmr_pretrain(MODEL, HMR_CONFIG, hmr0, [video], steps=3, batch=8)[0], md0
    motion = np.random.default_rng(0).normal(scale=0.3, size=(12, 144))
    steps = 0 if loop == "md_pretrain_no_steps" else 3
    return hmr0, mdnet.md_pretrain(MD_CONFIG, md0, [motion], steps=steps)[0]


@pytest.mark.parametrize("loop", [
    "cycle_adapt", "cycle_adapt_frozen", "online_adapt", "online_adapt_frozen",
    "hmr_pretrain", "md_pretrain", "md_pretrain_no_steps",
])
def test_training_loops_leave_the_callers_dicts_unchanged(loop):
    """Each loop trains its own copy: the dicts passed in keep their keys,
    their array objects and their bytes, whether the loop moved a net or not."""
    hmr0, md0 = hmr_init(HMR_CONFIG, seed=0), md_init(MD_CONFIG, seed=0)
    given = {"hmr": (dict(hmr0), {k: a.tobytes() for k, a in hmr0.items()}),
             "md": (dict(md0), {k: a.tobytes() for k, a in md0.items()})}
    out = dict(zip(("hmr", "md"), _loop_run(loop, hmr0, md0)))
    for net, params in (("hmr", hmr0), ("md", md0)):
        arrays, data = given[net]
        assert _same_arrays(params, arrays)
        assert {k: a.tobytes() for k, a in params.items()} == data
        assert list(out[net]) == list(params)
    trained = {"cycle_adapt": ("hmr", "md"), "online_adapt": ("hmr", "md"), "hmr_pretrain": ("hmr",),
               "md_pretrain": ("md",)}.get(loop, ())
    for net in trained:  # the loop did move the net it trained
        assert any(out[net][k].tobytes() != data for k, data in given[net][1].items()), net
    for net in {"hmr", "md"} - set(trained):
        assert all(out[net][k].tobytes() == data for k, data in given[net][1].items()), net


def test_a_regressor_stage_holds_one_working_copy_of_the_regressor():
    """Traced peak of a two-cycle `cycle_adapt` with the standard nets' shapes
    (random weights), 64 frames and an evaluator that does nothing, in units
    of the regressor's parameter bytes (2.43 MB).

    Measured: 6.74x when the loop kept the stage-start dict while each Adam
    step built a whole new dict beside the one it stepped, and 5.69x with
    one working copy whose arrays Adam replaces one at a time. The first call
    in a process pays about 0.4x more, for numpy's lazy import of `numpy.ma`
    in `np.unique`, so a warm-up call runs untraced first.
    """
    model = benchmark.benchmark_body()
    inputs = adapt_inputs(benchmark.make_target_video(0, n_frames=64, model=model))
    hmr0, md0 = benchmark.random_nets(1)

    def run(cycles):
        return cycle_adapt(inputs, model, benchmark.HMR_CONFIG, hmr0, benchmark.MD_CONFIG, md0,
                           AdaptConfig(cycles=cycles, seed=1), evaluator=lambda theta, beta: None)

    run(1)
    tracemalloc.start()
    try:
        run(2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.2 * sum(a.nbytes for a in hmr0.values())
