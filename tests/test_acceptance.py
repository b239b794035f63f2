"""Acceptance gate: every property and ordering the package promises.

One test per promise, each printing a single PASS/FAIL line (run with
``pytest -s`` to watch them appear).  The ordering checks run every row of
`bench.SUITES` and one online pass on the standard benchmark (500 frames,
24 joints, 120 vertices, 512-dim features), seeds 0..4, from one shared
pre-training: about 200-220 s of one CPU core. On final MPJPE they check:
no adaptation > 2D-only > non-cyclic > full cyclic, in medians (Table 2);
on >= 4 of 5 seeds, that with the regressor frozen the adapted store beats
the pretrained store and the raw outputs (Table 1), that full cyclic beats
the Gaussian filter (Table 4) and itself from random nets (Supp. E), and
that online lies between full cyclic and no adaptation; and on every seed,
that cycle 12 is below cycle 1 and the store at or below the regressor on
more than 5 of cycles 3-12. All hold at the defaults, `lr_start` 5e-5 and
12 cycles, and hinge on them, as comparisons of test-time adaptation
methods do (TTAB, Zhao et al., ICML 2023): at `lr_start` 1e-3, 2D-only is
best on every seed tried (0-3), and seeds 1-3 reverse the order 2D-only >
non-cyclic > full cyclic.
"""

import json
import statistics
import time
from math import ceil
from pathlib import Path

import numpy as np
import pytest

from oracles import rot6d_batch
from test_adapt import record_loop  # the loop's facts, read off its step functions
from test_bodymodel import decode_rot6d
from test_diffcore import _primitive_cases  # one source of truth for the op list

from cycleadapt import benchmark as bench
from cycleadapt import cli
from cycleadapt.adapt import AdaptConfig
from cycleadapt.bodymodel import build_toy_body, identity_pose
from cycleadapt.checkpoint import save_hmr, save_md
from cycleadapt.diffcore import Graph, grad_check
from cycleadapt.hmrnet import HmrConfig, hmr_forward_graph, hmr_init, hmr_loss_graph
from cycleadapt.mdnet import MdConfig, md_forward_graph, md_init, md_loss_graph
from cycleadapt.metrics import mpjpe, pa_mpjpe, procrustes_align

SEEDS = range(5)


def _verdict(ok: bool, label: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {label} [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def nets():
    """One full source pre-training, shared by every ordering check."""
    return bench.pretrain_nets()


@pytest.fixture(scope="session")
def sweep(nets):
    """Every row of every `bench.SUITES` suite by label, plus the online pass,
    the full cyclic run's rows and wall time, and seed 0's loop record; each
    keyed by seed."""
    hmr_params, md_params, _tau = nets
    model = bench.benchmark_body()
    rows = [row for suite in bench.SUITES.values() for row in suite]
    out = {key: {} for key in [label for label, *_ in rows] + ["online", "rows", "seconds"]}
    for seed in SEEDS:
        video = bench.make_target_video(seed, model=model)
        base = AdaptConfig(seed=seed)
        t0 = time.perf_counter()
        with pytest.MonkeyPatch.context() as mp:
            if seed == 0:
                out["loop"] = record_loop(mp)
            full = bench.run_offline(base, hmr_params, md_params, model, video)
        out["seconds"][seed] = time.perf_counter() - t0
        out["rows"][seed] = full.rows
        runs = {(base, False): full}  # the full cyclic rows' config and nets
        nets_for = {False: (hmr_params, md_params), True: bench.random_nets(seed)}
        for _cycle, label, report in bench.run_suite(rows, nets_for.get, False, model, video, base, runs):
            out[label][seed] = report.mpjpe
        assert len(runs) == 8  # one run per config and nets in the union of the suites
        out["online"][seed] = bench.run_online(hmr_params, md_params, model, video, base).report.mpjpe
    return out


def test_gradients_match_finite_differences_everywhere():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for g, bindings, loss in _primitive_cases(rng):
            worst = max(worst, grad_check(g, bindings, loss, step=1e-6))

    # end-to-end regressor loss: features -> network -> kinematics -> both terms
    config = HmrConfig(feature_dim=4, hidden_dim=6, num_hidden_layers=1)
    rng = np.random.default_rng(23)
    model = build_toy_body(23, joints=24, vertices=24)
    params = hmr_init(config, 23)
    params["b0"] = params["b0"] + 0.3 * rng.normal(size=params["b0"].shape)
    features = 0.3 * rng.normal(size=(1, 4))
    kp = 0.5 * rng.normal(size=(1, 24, 3))
    kp[:, :, 2] = rng.uniform(0.3, 1.0, size=(1, 24))
    g = Graph()
    theta, beta, cam = hmr_forward_graph(g, config, g.const(features))
    loss = hmr_loss_graph(
        g, model, theta, beta, cam, 1, kp,
        pseudo_theta=identity_pose(24)[None] + 0.2,
        pseudo_beta=0.3 * np.ones((1, 10)),
    )
    worst = max(worst, grad_check(g, params, loss, step=1e-5))

    # end-to-end denoiser loss through every parameter of a small stack
    md_config = MdConfig(window=5, blocks=1)
    md_params = md_init(md_config, 3)
    rng = np.random.default_rng(3)
    clean = rng.normal(size=(5, 144))
    mask = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    g = Graph()
    out = md_forward_graph(g, md_config, g.const(clean * (1.0 - mask)[:, None]))
    loss = md_loss_graph(g, out, clean, mask)
    worst = max(worst, grad_check(g, md_params, loss, step=1e-5))

    elapsed = time.perf_counter() - t0
    _verdict(
        worst < 1e-4 and elapsed < 60.0,
        "gradient suite: analytic gradients match central differences",
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_rotation_codes_give_orthonormal_proper_matrices():
    rng = np.random.default_rng(42)
    worst_ortho = 0.0
    worst_det = 0.0
    for rot in decode_rot6d(rng.normal(size=(10_000, 6))):
        worst_ortho = max(worst_ortho, float(np.abs(rot.T @ rot - np.eye(3)).max()))
        worst_det = max(worst_det, abs(float(np.linalg.det(rot)) - 1.0))
    _verdict(
        worst_ortho < 1e-9 and worst_det < 1e-9,
        "rotation validity: 10,000 random 6D codes decode to proper rotations",
        f"max |R^T R - I| {worst_ortho:.1e}, max |det - 1| {worst_det:.1e}",
    )


def test_metric_oracles_hold():
    rng = np.random.default_rng(0)

    # root alignment is one of the transforms the similarity fit searches, so
    # it bounds the fit's summed squared error (the theorem); on these random
    # clouds the fit also beats it in the mean distance (not a theorem)
    pa_bound = sse_bound = True
    for _ in range(1_000):
        pred = rng.normal(size=(1, 12, 3))
        gt = rng.normal(size=(1, 12, 3))
        pa_bound &= pa_mpjpe(pred, gt) <= mpjpe(pred, gt) + 1e-9
        (s,), (rot,), (t,) = procrustes_align(pred, gt)
        fit = float(((s * pred[0] @ rot.T + t - gt[0]) ** 2).sum())
        root = float((((pred[0] - pred[0, 0]) - (gt[0] - gt[0, 0])) ** 2).sum())
        sse_bound &= fit <= root * (1 + 1e-9) + 1e-12

    # the closed-form alignment beats a million random similarity transforms
    # on its own objective, the summed squared distance
    beats_random = True
    for _ in range(100):
        pred = rng.normal(size=(4, 3))
        gt = rng.normal(size=(4, 3))
        (s,), (rot,), (t,) = procrustes_align(pred[None], gt[None])
        best = float(((s * pred @ rot.T + t - gt) ** 2).sum())
        scales = rng.uniform(0.2, 3.0, size=10_000)
        rots = rot6d_batch(rng.normal(size=(10_000, 6)))
        trans = rng.normal(size=(10_000, 1, 3))
        moved = scales[:, None, None] * (pred @ rots.transpose(0, 2, 1)) + trans
        sampled = ((moved - gt) ** 2).sum(axis=(1, 2))
        beats_random &= bool(sampled.min() >= best - 1e-12)

    # exact recovery: a similarity-transformed copy scores zero after alignment
    base = rng.normal(size=(1, 16, 3))
    rot = rot6d_batch(rng.normal(size=6))
    moved = 1.3 * base @ rot.T + rng.normal(size=3)
    recovery = pa_mpjpe(moved, base) < 1e-9

    # both errors ignore a rigid shift of the prediction
    pred = rng.normal(size=(2, 16, 3))
    gt = rng.normal(size=(2, 16, 3))
    shift = rng.normal(size=3)
    translation = (
        abs(mpjpe(pred + shift, gt) - mpjpe(pred, gt)) < 1e-9
        and abs(pa_mpjpe(pred + shift, gt) - pa_mpjpe(pred, gt)) < 1e-9
    )

    _verdict(
        sse_bound and pa_bound and beats_random and recovery and translation,
        "metric oracles: alignment bound, optimality, exact recovery, shift invariance",
        f"squared-error bound {sse_bound}, mean bound {pa_bound}, optimal {beats_random}, "
        f"recovery {recovery}, shift {translation}",
    )


def test_benchmark_ordering_of_adaptation_variants(sweep):
    assert bench.N_FRAMES == 500 and bench.JOINTS == 24 and bench.Body().vertices == 120
    assert bench.FEATURE_DIM == 512
    target = bench.TARGET
    assert target.kp_noise_std == 0.02 and target.p_drop == 0.2
    med = [statistics.median(sweep[label].values()) for label, *_ in bench.SUITES["table2"]]
    slowest = max(sweep["seconds"].values())
    _verdict(
        med[0] > med[1] > med[2] > med[3] and slowest < 300.0,
        "benchmark ordering: no-adapt > 2D-only > non-cyclic 3D+2D > full cyclic (medians, 5 seeds)",
        " > ".join(f"{m:.2f}" for m in med) + f", slowest run {slowest:.1f}s",
    )


def test_denoiser_adaptation_improves_the_store_with_regressor_frozen(sweep):
    wins = sum(
        sweep["store_after"][s] < sweep["store_before"][s] and sweep["store_after"][s] < sweep["frozen_hmrnet"][s]
        for s in SEEDS
    )
    detail = ", ".join(
        f"s{s}: {sweep['store_after'][s]:.2f} vs {sweep['store_before'][s]:.2f}/{sweep['frozen_hmrnet'][s]:.2f}"
        for s in SEEDS
    )
    _verdict(wins >= 4, "frozen regressor: adapted store beats pretrained store and raw outputs (>=4/5)", detail)


def test_learned_denoiser_beats_gaussian_filter_stage(sweep):
    wins = sum(sweep["full_cyclic"][s] < sweep["gaussian"][s] for s in SEEDS)
    detail = ", ".join(f"s{s}: {sweep['full_cyclic'][s]:.2f} vs {sweep['gaussian'][s]:.2f}" for s in SEEDS)
    _verdict(wins >= 4, "full cyclic beats the Gaussian-filter denoiser stage (>=4/5)", detail)


def test_pretrained_initialization_beats_random(sweep):
    wins = sum(sweep["full_cyclic"][s] < sweep["random_init"][s] for s in SEEDS)
    detail = ", ".join(f"s{s}: {sweep['full_cyclic'][s]:.2f} vs {sweep['random_init'][s]:.2f}" for s in SEEDS)
    _verdict(wins >= 4, "pretrained initialization beats random initialization (>=4/5)", detail)


def test_online_trails_offline_but_beats_no_adaptation(sweep):
    wins = sum(
        sweep["online"][s] >= sweep["full_cyclic"][s] and sweep["online"][s] < sweep["no_adapt"][s]
        for s in SEEDS
    )
    detail = ", ".join(
        f"s{s}: {sweep['online'][s]:.2f} in [{sweep['full_cyclic'][s]:.2f}, {sweep['no_adapt'][s]:.2f})"
        for s in SEEDS
    )
    _verdict(wins >= 4, "online sits between offline and no adaptation (>=4/5)", detail)


def test_error_falls_across_cycles_and_store_tracks_regressor(sweep):
    falls = True
    majorities = []
    for s in SEEDS:
        hmr = {c: rep.mpjpe for c, src, rep in sweep["rows"][s] if src == "hmrnet"}
        store = {c: rep.mpjpe for c, src, rep in sweep["rows"][s] if src == "store"}
        falls &= hmr[12] < hmr[1]
        below = sum(store[c] <= hmr[c] for c in range(3, 13))
        majorities.append(below)
    tracks = all(b > 5 for b in majorities)
    _verdict(
        falls and tracks,
        "cycle curves: error at cycle 12 below cycle 1 on every seed; store at or below most cycles",
        f"store<=regressor counts over cycles 3..12: {majorities}",
    )


def test_repeat_runs_are_bit_identical(nets, tmp_path_factory):
    hmr_params, md_params, _tau = nets
    root = tmp_path_factory.mktemp("repeat")
    (root / "nets").mkdir()
    save_hmr(root / "nets" / "hmr.ckpt", bench.HMR_CONFIG, hmr_params)
    save_md(root / "nets" / "md.ckpt", bench.MD_CONFIG, md_params)
    cfg_path = root / "c.json"
    cfg_path.write_text(json.dumps({
        "paths": {
            "out_dir": str(root / "default_out"),
            "hmr_ckpt": str(root / "nets" / "hmr.ckpt"),
            "md_ckpt": str(root / "nets" / "md.ckpt"),
        },
    }))

    identical = True
    pieces = []
    for a, b, args in (
        ("synth_a", "synth_b", ["synth"]),
        ("adapt_a", "adapt_b", ["adapt", "--seed", "3"]),
    ):
        out_a, out_b = root / a, root / b
        assert cli.run(args + ["--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert cli.run(args + ["--config", str(cfg_path), "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        # the config echo records each run's own output directory; every
        # data file must match byte for byte
        data = [n for n in names if n != "config.json"]
        same = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in data)
        echo_a = json.loads((out_a / "config.json").read_text())
        echo_b = json.loads((out_b / "config.json").read_text())
        echo_a["paths"]["out_dir"] = echo_b["paths"]["out_dir"] = None
        same &= echo_a == echo_b
        identical &= same
        pieces.append(f"{args[0]}: {len(data)} files {'identical' if same else 'DIFFER'}")

    for out in ("eval_a", "eval_b"):
        assert cli.run([
            "eval", "--config", str(cfg_path), "--video", str(root / "synth_a" / "target.video"),
            "--out", str(root / out),
        ]) == 0
    same = (root / "eval_a" / "metrics.csv").read_bytes() == (root / "eval_b" / "metrics.csv").read_bytes()
    identical &= same
    pieces.append(f"eval: metrics {'identical' if same else 'DIFFER'}")
    _verdict(identical, "repeat runs emit bit-identical videos, CSVs, and checkpoints", "; ".join(pieces))


def test_adaptation_loop_fidelity(sweep):
    loop = sweep["loop"]
    store_init = max(np.abs(a).max() for a in loop["store_at_start"])
    zero_store = store_init == 0.0
    first_cycle = [pull for c, pull in loop["steps"] if c == 1]
    later = [pull for c, pull in loop["steps"] if c > 1]
    no_pull = len(first_cycle) > 0 and all(pull is None for pull in first_cycle)
    pull_later = any(pull is not None and pull > 0.0 for pull in later)
    window = bench.MD_CONFIG.window
    expected_masked = ceil(window / 2)
    windows_per_cycle = ceil(bench.N_FRAMES / window)
    masks = [int(m.sum()) for m in loop["masks"]]
    half_masked = (
        len(masks) == 12 * windows_per_cycle and all(m == expected_masked for m in masks)
    )
    beta_untouched = loop["betas_kept"] == [True] * 12
    _verdict(
        zero_store and no_pull and pull_later and half_masked and beta_untouched,
        "loop fidelity: zeroed store, no parameter pull in cycle one, half-window masking, shapes untouched",
        f"store init {store_init}, cycle-1 pulls all absent {no_pull}, "
        f"{len(masks)} windows each masking {expected_masked}, beta untouched {beta_untouched}",
    )
