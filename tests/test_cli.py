"""Command line behavior on a shrunken pipeline: every subcommand, the CSV
dialect, config round trips, and the documented exit codes.
"""

import json
import math
import re
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleadapt import benchmark, cli
from cycleadapt.adapt import AdaptConfig, InvariantError
from cycleadapt.checkpoint import load_hmr, read_arrays, save_hmr, write_arrays
from cycleadapt.diffcore import DegenerateRotationError
from cycleadapt.hmrnet import hmr_forward
from cycleadapt.metrics import DegenerateGeometryError, MetricReport
from cycleadapt.synth import read_video

TINY = {
    "seed": 0,
    "paths": {"out_dir": "out", "hmr_ckpt": "nets/hmr.ckpt", "md_ckpt": "nets/md.ckpt"},
    "hmr": {"feature_dim": 16, "hidden_dim": 24, "num_hidden_layers": 1},
    "md": {"window": 9, "blocks": 1},
    "adapt": {"cycles": 2, "batch": 8},
    "body": {"vertices": 24},
    "synth": {"video_frames": 24, "source_count": 2, "source_frames": 40},
    "pretrain": {"hmr_steps": 60, "md_plan": [[60, 0.001]]},
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One pretrained workspace shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    config = json.loads(json.dumps(TINY))
    config["paths"] = {
        "out_dir": str(root / "out"),
        "hmr_ckpt": str(root / "nets" / "hmr.ckpt"),
        "md_ckpt": str(root / "nets" / "md.ckpt"),
    }
    cfg_path = root / "c.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.run(["pretrain", "--config", str(cfg_path), "--out", str(root / "pre")]) == 0
    return {"root": root, "config": config, "cfg_path": cfg_path}


def _row(mpjpe=1.0, pa=0.5, mpvpe=2.0, accel=0.25):
    return MetricReport(mpjpe=mpjpe, pa_mpjpe=pa, mpvpe=mpvpe, accel=accel)


def _default_config():
    return cli.config_from_dict({})


def _parse_metrics_csv(path) -> list:
    """Back to (cycle, source, MetricReport) rows, at the file's precision."""
    with open(path, newline="\n") as fh:
        lines = fh.read().split("\n")
    assert lines[0] == cli.CSV_HEADER, f"{path}: header {lines[0]!r}"
    rows = []
    for line in filter(None, lines[1:]):
        fields = line.split(",")
        assert len(fields) == 6, f"{path}: malformed row {line!r}"
        rows.append((int(fields[0]), fields[1], MetricReport(*(float(v) for v in fields[2:]))))
    return rows


def test_metrics_csv_empty_rows_is_header_only(tmp_path):
    path = tmp_path / "m.csv"
    cli.emit_metrics_csv(path, [])
    assert path.read_bytes() == b"cycle,source,mpjpe,pa_mpjpe,mpvpe,accel\n"


def test_metrics_csv_uses_six_significant_digits_and_lf(tmp_path):
    path = tmp_path / "m.csv"
    cli.emit_metrics_csv(path, [(3, "hmrnet", _row(mpjpe=1234.56789, pa=0.000123456789))])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.split(b"\n")[1] == b"3,hmrnet,1234.57,0.000123457,2,0.25"


def test_metrics_csv_parse_back_round_trips(tmp_path):
    rows = [(0, "hmrnet", _row(9.87654321, 3.14159265, 12.3456789, 0.111111111)),
            (1, "store", _row(8.0, 4.0, 10.0, 0.5))]
    path = tmp_path / "m.csv"
    cli.emit_metrics_csv(path, rows)
    parsed = _parse_metrics_csv(path)
    assert [(c, s) for c, s, _ in parsed] == [(0, "hmrnet"), (1, "store")]
    # a second emit of the parsed rows reproduces the file exactly
    again = tmp_path / "m2.csv"
    cli.emit_metrics_csv(again, parsed)
    assert again.read_bytes() == path.read_bytes()


def test_config_round_trips_through_dict():
    cfg = _default_config()
    assert cli.config_from_dict(cli.config_to_dict(cfg)) == cfg
    cfg2 = cli.config_from_dict(json.loads(json.dumps(TINY)))
    assert cli.config_from_dict(cli.config_to_dict(cfg2)) == cfg2


def test_default_config_schema_is_pinned():
    assert cli.config_to_dict(_default_config()) == {
        "seed": 0,
        "paths": {"out_dir": "run_out", "hmr_ckpt": "hmr.ckpt", "md_ckpt": "md.ckpt", "video": None},
        "flags": {"random_init": False, "online": False},
        "hmr": {"feature_dim": 512, "hidden_dim": 256, "num_hidden_layers": 3},
        "md": {"window": 49, "blocks": 4},
        "adapt": {
            "cycles": 12,
            "batch": 32,
            "lr_start": 5e-5,
            "lr_end": 1e-6,
            "gamma": 1e-3,
            "md_denoiser": "mdnet",
            "gaussian_std": 2.0,
        },
        "source": {
            "name": "source",
            "freq_range": (0.01, 0.04),
            "amp_range": (0.2, 0.6),
            "mixing_seed": 101,
            "feature_noise_std": 0.01,
            "kp_noise_std": 0.0,
            "p_drop": 0.0,
        },
        "target": {
            "name": "target",
            "freq_range": (0.01, 0.04),
            "amp_range": (0.2, 0.6),
            "mixing_seed": 202,
            "feature_noise_std": 0.3,
            "kp_noise_std": 0.02,
            "p_drop": 0.2,
        },
        "body": {"seed": 7, "vertices": 120, "scale": 0.15},
        "synth": {"video_frames": 500, "gap_alpha": 0.35, "source_count": 6, "source_frames": 400},
        "pretrain": {
            "hmr_steps": 4000,
            "hmr_lr": 1e-3,
            "md_sigma": 0.05,
            "md_plan": ((6000, 1e-3), (6000, 3e-4)),
        },
    }


def test_config_casts_loosely_typed_json_values():
    cfg = cli.config_from_dict({"body": {"scale": 1, "vertices": 24.0}, "synth": {"gap_alpha": 0}, "flags": {"online": True}})
    echo = cli.config_to_dict(cfg)
    assert echo["body"]["scale"] == 1.0 and isinstance(echo["body"]["scale"], float)
    assert echo["body"]["vertices"] == 24 and isinstance(echo["body"]["vertices"], int)
    assert isinstance(echo["synth"]["gap_alpha"], float)
    assert echo["flags"]["online"] is True
    for lr_end in (0, 1):  # the edges of lr_end's range [0, lr_start]: a schedule down to zero, a constant one
        adapt = cli.config_from_dict({"adapt": {"lr_start": 1, "lr_end": lr_end}}).adapt_config()
        assert adapt.lr_end == lr_end and isinstance(adapt.lr_end, float)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("flags", "online", 1),
        ("flags", "random_init", None),
        ("body", "vertices", 24.7),
        ("body", "seed", True),
        ("synth", "video_frames", "500"),
        ("pretrain", "hmr_lr", "1e-3"),
        ("body", "scale", False),
        ("adapt", "cycles", 2.5),
        ("adapt", "gamma", "0.1"),
        ("hmr", "hidden_dim", 12.5),
        ("md", "blocks", "no"),
        ("adapt", "md_denoiser", 3),
        ("source", "mixing_seed", 1.5),
    ],
)
def test_config_rejects_mistyped_values(section, key, value, tmp_path, capsys):
    with pytest.raises(cli.ConfigError, match=rf"{section}\.{key} must be"):
        cli.config_from_dict({section: {key: value}})
    path = tmp_path / "c.json"
    path.write_text(json.dumps({section: {key: value}}))
    assert cli.run(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"{path}: {section}.{key} must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [1.5, "3", True])
def test_config_rejects_mistyped_seed(value, tmp_path, capsys):
    with pytest.raises(cli.ConfigError, match="seed must be int"):
        cli.config_from_dict({"seed": value})
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": value}))
    assert cli.run(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"{path}: seed must be int" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_adapt_knobs_default_to_the_adaptation_config():
    cfg = _default_config()
    assert cfg.adapt_config() == AdaptConfig()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("flags", "frozen_mdnet", True),
        ("flags", "no_3d_loss", True),
        ("flags", "unweighted_2d", True),
        ("md", "ramp", False),
        ("md", "pose_dim", 144),
        ("body", "joints", 24),
    ],
)
def test_removed_keys_are_refused(section, key, value, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({section: {key: value}}))
    assert cli.run(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{path} {section}: unknown key(s) ['{key}']" in err
    assert not (tmp_path / "o").exists()


def test_md_denoiser_is_set_in_the_adapt_section():
    for mode in ("mdnet", "frozen_mdnet", "gaussian", "none"):
        assert cli.config_from_dict({"adapt": {"md_denoiser": mode}}).adapt_config().md_denoiser == mode
    with pytest.raises(cli.ConfigError, match="adapt.md_denoiser must be one of"):
        cli.config_from_dict({"adapt": {"md_denoiser": "median"}})


# a list-valued case needs an explicit id: pytest numbers it by position,
# so inserting a case before it would rename it
@pytest.mark.parametrize(
    "section, key, value",
    [
        ("adapt", "batch", 0),
        ("adapt", "lr_end", 1.0),
        ("hmr", "hidden_dim", 0),
        ("md", "window", 0),
        ("target", "p_drop", 2.0),
        pytest.param("source", "freq_range", ["slow", "fast"], id="source-freq_range-value5"),
        ("synth", "gap_alpha", 2.0),
        ("synth", "video_frames", 0),
        ("pretrain", "md_sigma", -1.0),
        pytest.param("pretrain", "md_plan", [[0, 1e-3]], id="pretrain-md_plan-value9"),
        ("paths", "md_ckpt", "hmr.ckpt"),
        ("adapt", "gamma", float("nan")),
        ("adapt", "lr_start", float("nan")),
        ("pretrain", "hmr_lr", float("inf")),
        ("target", "kp_noise_std", float("nan")),
        pytest.param("pretrain", "md_plan", [[10, float("nan")]], id="pretrain-md_plan-value15"),
        pytest.param("source", "amp_range", [0.1, float("inf")], id="source-amp_range-value16"),
        ("body", "vertices", 3),
        ("body", "scale", 0.0),
        ("body", "scale", -1.0),
        ("body", "scale", float("nan")),
        ("body", "seed", -1),
        ("synth", "video_frames", 2),
        ("synth", "source_frames", 5),
        ("source", "feature_noise_std", float("inf")),
        ("target", "kp_noise_std", float("inf")),
        ("target", "mixing_seed", -1),
    ],
)
def test_a_refused_setting_is_a_config_error_naming_its_key(section, key, value, tmp_path, capsys):
    with pytest.raises(cli.ConfigError, match=rf"^c\.json: {section}\.{key} "):
        cli.config_from_dict({section: {key: value}}, where="c.json")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({section: {key: value}}))
    assert cli.run(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {path}: {section}.{key} " in capsys.readouterr().err


NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])  # json.loads parses all three
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=True, allow_infinity=True)
    | NON_FINITE | st.text(max_size=3)
)


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_setting_loads_or_is_a_config_error_naming_the_file(data):
    schema = cli.config_to_dict(_default_config())
    section = data.draw(st.sampled_from(sorted(schema)))
    value = data.draw(JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3) | st.lists(st.lists(JSON_SCALARS, max_size=3)))
    if section != "seed":
        value = {data.draw(st.sampled_from(sorted(schema[section]))): value}
    config = {section: value}
    try:
        loaded = cli.config_from_dict(config, where="c.json")
    except cli.ConfigError as err:
        assert str(err).startswith("c.json: ")
    else:
        floats = [v for v in _leaves(cli.config_to_dict(loaded)) if isinstance(v, float)]
        assert all(math.isfinite(v) for v in floats), config


def test_readme_json_examples_load_as_configs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```", readme, flags=re.S | re.M)
    assert blocks
    for block in blocks:
        cli.config_from_dict(json.loads(block), where="README.md")


def test_config_rejects_unknown_keys():
    with pytest.raises(cli.ConfigError, match="typo"):
        cli.config_from_dict({"typo": 1})
    with pytest.raises(cli.ConfigError, match="momentum"):
        cli.config_from_dict({"adapt": {"momentum": 0.9}})


def test_config_rejects_duplicate_paths():
    with pytest.raises(cli.ConfigError, match="distinct"):
        cli.config_from_dict({"paths": {"hmr_ckpt": "a/x.ckpt", "md_ckpt": "a/x.ckpt"}})


def test_config_rejects_bad_plan():
    with pytest.raises(cli.ConfigError, match="md_plan"):
        cli.config_from_dict({"pretrain": {"md_plan": [[0, 1e-3]]}})
    with pytest.raises(cli.ConfigError, match="md_plan"):
        cli.config_from_dict({"pretrain": {"md_plan": "soon"}})
    with pytest.raises(cli.ConfigError, match="md_plan"):
        cli.config_from_dict({"pretrain": {"md_plan": [[10.5, 1e-3]]}})


def test_run_missing_config_exits_1(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert cli.run(["adapt", "--config", str(missing)]) == 1
    assert str(missing) in capsys.readouterr().err


def test_run_invalid_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.run(["adapt", "--config", str(bad)]) == 1
    assert str(bad) in capsys.readouterr().err


def test_run_usage_error_exits_1(capsys):
    assert cli.run(["ablate", "--config", "c.json"]) == 1  # --suite is required
    assert cli.run(["no-such-command"]) == 1
    capsys.readouterr()


def test_synth_writes_both_videos_and_echo(ws, tmp_path):
    out = tmp_path / "vids"
    assert cli.run(["synth", "--config", str(ws["cfg_path"]), "--out", str(out)]) == 0
    src, src_spec = read_video(out / "source.video")
    tgt, tgt_spec = read_video(out / "target.video")
    assert src.frame_count == TINY["synth"]["source_frames"]
    assert tgt.frame_count == TINY["synth"]["video_frames"]
    assert src_spec.name == "source" and tgt_spec.name == "target"
    echoed = cli.load_config(out / "config.json")
    assert echoed.paths.out_dir == str(out)
    assert echoed.hmr == cli.load_config(ws["cfg_path"]).hmr


def test_pretrain_wrote_checkpoints_and_tau(ws):
    assert Path(ws["config"]["paths"]["hmr_ckpt"]).exists()
    assert Path(ws["config"]["paths"]["md_ckpt"]).exists()
    tau = json.loads((ws["root"] / "pre" / "pretrain.json").read_text())["tau"]
    assert tau > 0.0


def test_adapt_writes_rows_and_cycle_checkpoints(ws, tmp_path):
    out = tmp_path / "run"
    assert cli.run(["adapt", "--config", str(ws["cfg_path"]), "--out", str(out)]) == 0
    rows = _parse_metrics_csv(out / "metrics.csv")
    cycles = TINY["adapt"]["cycles"]
    assert len(rows) == 1 + 2 * cycles  # cycle-0 row, then hmrnet+store per cycle
    assert rows[0][:2] == (0, "hmrnet")
    for c in range(1, cycles + 1):
        assert (out / f"hmr_cycle{c:02d}.ckpt").exists()
        assert (out / f"md_cycle{c:02d}.ckpt").exists()
    assert (out / "config.json").exists()


def test_adapt_repeat_is_byte_identical(ws, tmp_path):
    args = ["adapt", "--config", str(ws["cfg_path"]), "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.run(args + ["--out", str(a)]) == 0
    assert cli.run(args + ["--out", str(b)]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    last = f"hmr_cycle{TINY['adapt']['cycles']:02d}.ckpt"
    assert (a / last).read_bytes() == (b / last).read_bytes()


def test_adapt_seed_changes_the_video_and_the_metrics(ws, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.run(["adapt", "--config", str(ws["cfg_path"]), "--seed", "1", "--out", str(a)]) == 0
    assert cli.run(["adapt", "--config", str(ws["cfg_path"]), "--seed", "2", "--out", str(b)]) == 0
    assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()


def test_adapt_online_writes_single_row_and_final_nets(ws, tmp_path):
    out = tmp_path / "onl"
    assert cli.run(["adapt", "--config", str(ws["cfg_path"]), "--online", "--out", str(out)]) == 0
    rows = _parse_metrics_csv(out / "metrics.csv")
    assert [(c, s) for c, s, _ in rows] == [(0, "hmrnet")]
    assert (out / "hmr_final.ckpt").exists() and (out / "md_final.ckpt").exists()


def test_eval_matches_the_unadapted_adapt_row(ws, tmp_path):
    vids, run, ev = tmp_path / "vids", tmp_path / "run", tmp_path / "ev"
    base = ["--config", str(ws["cfg_path"]), "--seed", "5"]
    assert cli.run(["synth"] + base + ["--out", str(vids)]) == 0
    assert cli.run(["adapt"] + base + ["--out", str(run)]) == 0
    assert cli.run(["eval"] + base + ["--video", str(vids / "target.video"), "--out", str(ev)]) == 0
    eval_rows = _parse_metrics_csv(ev / "metrics.csv")
    adapt_rows = _parse_metrics_csv(run / "metrics.csv")
    assert eval_rows[0] == adapt_rows[0]


def test_eval_of_a_damaged_video_exits_1(ws, tmp_path, capsys):
    vids = tmp_path / "vids"
    assert cli.run(["synth", "--config", str(ws["cfg_path"]), "--out", str(vids)]) == 0
    assert sorted(p.name for p in vids.iterdir()) == ["config.json", "source.video", "target.video"]
    video = vids / "target.video"
    video.write_bytes(video.read_bytes()[:-1])
    args = ["eval", "--config", str(ws["cfg_path"]), "--video", str(video), "--out", str(tmp_path / "ev")]
    assert cli.run(args) == 1
    assert f"{video}: not a readable" in capsys.readouterr().err


def _cut_target_video(ws, tmp_path, frames: int):
    """A synthesized target video with every per-frame member cut to ``frames``."""
    vids = tmp_path / "vids"
    assert cli.run(["synth", "--config", str(ws["cfg_path"]), "--out", str(vids)]) == 0
    video = vids / "target.video"
    with np.load(video, allow_pickle=False) as npz:
        members = {name: npz[name] for name in npz.files}
    with zipfile.ZipFile(video, "w") as archive:
        for name, array in members.items():
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w") as fh:
                np.lib.format.write_array(fh, array if array.ndim < 2 else array[:frames], allow_pickle=False)
    assert read_video(video)[0].frame_count == frames
    return video


def test_eval_of_a_video_without_frames_exits_1(ws, tmp_path, capsys):
    video = _cut_target_video(ws, tmp_path, 0)
    args = ["eval", "--config", str(ws["cfg_path"]), "--video", str(video), "--out", str(tmp_path / "ev")]
    assert cli.run(args) == 1
    assert f"{video}: no frames" in capsys.readouterr().err


def test_adapt_on_a_two_frame_video_exits_1_naming_the_file(ws, tmp_path, capsys):
    """accel_error needs three frames; the video is refused before any adaptation."""
    video = _cut_target_video(ws, tmp_path, 2)
    config = json.loads(json.dumps(ws["config"]))
    config["paths"]["video"] = str(video)
    cfg_path = tmp_path / "short.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.run(["adapt", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {video}: 2 frames; accel_error needs at least 3" in capsys.readouterr().err
    assert not (tmp_path / "o" / "metrics.csv").exists()


@pytest.mark.parametrize("member", ["features", "joints"])
def test_adapt_on_a_video_with_a_nan_exits_1_naming_the_file(ws, tmp_path, capsys, member):
    vids = tmp_path / "vids"
    assert cli.run(["synth", "--config", str(ws["cfg_path"]), "--out", str(vids)]) == 0
    video = vids / "target.video"
    members = read_arrays(video, lambda found: found)
    members[member] = members[member].copy()
    members[member].flat[0] = np.nan
    write_arrays(video, members)  # CRCs stay valid
    config = json.loads(json.dumps(ws["config"]))
    config["paths"]["video"] = str(video)
    cfg_path = tmp_path / "nan.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.run(["adapt", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{video}: not a readable" in err and "must be finite" in err
    assert not (tmp_path / "o" / "metrics.csv").exists()


def _eval_with_body(ws, tmp_path, **body):
    """Synthesize with the workspace's body, then eval under a config with ``body``."""
    vids = tmp_path / "vids"
    assert cli.run(["synth", "--config", str(ws["cfg_path"]), "--out", str(vids)]) == 0
    config = json.loads(json.dumps(ws["config"]))
    config["body"].update(body)
    cfg_path = tmp_path / "body.json"
    cfg_path.write_text(json.dumps(config))
    video = vids / "target.video"
    code = cli.run(["eval", "--config", str(cfg_path), "--video", str(video), "--out", str(tmp_path / "ev")])
    return code, video


def test_eval_of_a_video_posed_with_another_body_exits_1(ws, tmp_path, capsys):
    code, video = _eval_with_body(ws, tmp_path, seed=8, scale=0.3)
    assert code == 1
    err = capsys.readouterr().err
    assert f"{video}: not posed with the config's body (body.seed 8, body.scale 0.3, 24 vertices)" in err
    assert not (tmp_path / "ev" / "metrics.csv").exists()


def test_eval_of_a_video_with_another_vertex_count_names_the_video(ws, tmp_path, capsys):
    code, video = _eval_with_body(ws, tmp_path, vertices=30)
    assert code == 1
    err = capsys.readouterr().err
    assert f"{video}: not posed with the config's body (body.seed 7, body.scale 0.15, 30 vertices)" in err
    assert not (tmp_path / "ev" / "metrics.csv").exists()


def test_eval_with_the_matching_body_scores_the_video(ws, tmp_path):
    code, video = _eval_with_body(ws, tmp_path)
    assert code == 0
    cfg = cli.config_from_dict(ws["config"])
    model = benchmark.benchmark_body(cfg.body)
    clip, _spec = read_video(video)
    theta, beta, _cam = hmr_forward(load_hmr(cfg.paths.hmr_ckpt)[1], clip.features)
    expected = tmp_path / "expected.csv"
    cli.emit_metrics_csv(expected, [(0, "hmrnet", benchmark.make_evaluator(model, clip)(theta, beta))])
    assert (tmp_path / "ev" / "metrics.csv").read_bytes() == expected.read_bytes()


def test_eval_without_video_exits_1(ws, capsys):
    assert cli.run(["eval", "--config", str(ws["cfg_path"])]) == 1
    assert "video" in capsys.readouterr().err


def test_checkpoint_config_mismatch_exits_1(ws, tmp_path, capsys):
    config = json.loads(json.dumps(ws["config"]))
    config["hmr"]["hidden_dim"] = 32  # checkpoints on disk were trained at 24
    cfg_path = tmp_path / "mismatch.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.run(["adapt", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert config["paths"]["hmr_ckpt"] in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite,labels",
    [
        ("table2", ["no_adapt", "2d_only", "3d_noncyclic", "full_cyclic"]),
        ("table1", ["frozen_hmrnet", "store_before", "store_after"]),
        ("table4", ["full_cyclic", "gaussian"]),
        ("suppE", ["pretrained", "random_init"]),
    ],
)
def test_ablate_suites_emit_one_row_per_configuration(ws, tmp_path, suite, labels):
    out = tmp_path / suite
    assert cli.run(["ablate", "--config", str(ws["cfg_path"]), "--suite", suite, "--out", str(out)]) == 0
    rows = _parse_metrics_csv(out / "ablate.csv")
    assert [s for _, s, _ in rows] == labels
    assert all(rep.mpjpe > 0 for _, _, rep in rows)


def test_ablate_refuses_the_online_flag(ws, tmp_path, capsys):
    """The suites are offline cycles; an online flag would be echoed into
    config.json as a run that never happened."""
    config = json.loads(json.dumps(ws["config"]))
    config["flags"] = {"online": True}
    cfg_path = tmp_path / "online.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert cli.run(["ablate", "--config", str(cfg_path), "--suite", "table2", "--out", str(out)]) == 1
    assert "flags.online" in capsys.readouterr().err
    assert not out.exists()


def test_invariant_failure_exits_2(ws, tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise InvariantError("store written out of order")

    monkeypatch.setattr(benchmark, "cycle_adapt", boom)
    code = cli.run(["adapt", "--config", str(ws["cfg_path"]), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "store written out of order" in capsys.readouterr().err


@pytest.mark.parametrize("error", [DegenerateRotationError, DegenerateGeometryError])
def test_numerical_failure_exits_2(ws, tmp_path, monkeypatch, capsys, error):
    def boom(*args, **kwargs):
        raise error("columns are nearly parallel")

    monkeypatch.setattr(benchmark, "cycle_adapt", boom)
    code = cli.run(["adapt", "--config", str(ws["cfg_path"]), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "columns are nearly parallel" in capsys.readouterr().err


def test_diverged_pretraining_exits_2_without_checkpoints(tmp_path, capsys):
    """An absurd regressor rate blows the weights up after one step; the
    second step's loss is NaN, and pre-training stops before any file is
    written."""
    config = json.loads(json.dumps(TINY))
    config["paths"] = {"out_dir": str(tmp_path / "out"), "hmr_ckpt": str(tmp_path / "nets" / "hmr.ckpt"),
                       "md_ckpt": str(tmp_path / "nets" / "md.ckpt")}
    config["pretrain"] = {"hmr_steps": 6, "hmr_lr": 1e300, "md_plan": [[5, 1e-3]]}
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(config))
    with np.errstate(all="ignore"):
        code = cli.run(["pretrain", "--config", str(cfg_path)])
    assert code == 2
    assert "regressor loss is nan (Adam updates completed: 1)" in capsys.readouterr().err
    assert not (tmp_path / "nets").exists() and not (tmp_path / "out").exists()


def _diverged_denoiser_pretraining(tmp_path, plan) -> tuple:
    """`pretrain` on the tiny config with an absurd denoiser rate in ``plan``."""
    config = json.loads(json.dumps(TINY))
    config["paths"] = {"out_dir": str(tmp_path / "out"), "hmr_ckpt": str(tmp_path / "nets" / "hmr.ckpt"),
                       "md_ckpt": str(tmp_path / "nets" / "md.ckpt")}
    config["pretrain"] = {"hmr_steps": 6, "md_plan": plan}
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(config))
    with np.errstate(all="ignore"):
        return cli.run(["pretrain", "--config", str(cfg_path)])


def test_diverged_denoiser_pretraining_exits_2_without_checkpoints(tmp_path, capsys):
    """The regressor trains normally; an absurd denoiser rate blows its
    weights up after one step, and the guard stops the run before any file
    is written."""
    assert _diverged_denoiser_pretraining(tmp_path, [[10, 1e300]]) == 2
    err = capsys.readouterr().err
    assert "denoiser loss is nan (Adam updates completed: 1)" in err
    assert "md_plan stage 1 of 1: denoiser loss" in err
    assert not (tmp_path / "nets").exists() and not (tmp_path / "out").exists()


def test_diverged_second_md_plan_stage_is_named(tmp_path, capsys):
    """Each md_plan stage starts its own Adam state, so after 5 good updates
    the count restarts; the message names the stage whose updates it counts."""
    assert _diverged_denoiser_pretraining(tmp_path, [[5, 0.001], [10, 1e300]]) == 2
    err = capsys.readouterr().err
    assert "md_plan stage 2 of 2: denoiser loss is nan (Adam updates completed: 1)" in err
    assert not (tmp_path / "nets").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "adapt"])
def test_a_degenerate_pose_code_exits_2(ws, tmp_path, capsys, command):
    """A regressor whose joint-3 code is degenerate on every frame is stopped
    by the 6D decoder node: posing for `eval`, the first regressor step for
    `adapt`."""
    config_hmr, params = load_hmr(ws["config"]["paths"]["hmr_ckpt"])
    params["w_out"][:, 18:24] = 0.0
    params["b_out"][18:24] = [1.0, 0.0, 0.0, 2.0, 0.0, 0.0]
    config = json.loads(json.dumps(ws["config"]))
    config["paths"]["hmr_ckpt"] = str(tmp_path / "degenerate_hmr.ckpt")
    save_hmr(config["paths"]["hmr_ckpt"], config_hmr, params)
    cfg_path = tmp_path / "degenerate.json"
    cfg_path.write_text(json.dumps(config))
    args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    if command == "eval":
        assert cli.run(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "vids")]) == 0
        args += ["--video", str(tmp_path / "vids" / "target.video")]
    assert cli.run(args) == 2
    err = capsys.readouterr().err
    assert "numerical failure: node" in err and "(rot6d): Gram-Schmidt remainder norm at or below 1e-8" in err
    assert "joint 3)" in err


def test_non_finite_regressor_loss_exits_2(ws, tmp_path, capsys):
    """A NaN weight makes the first online regressor step's loss NaN; the
    step guard reports it as a numerical failure, not a finished run."""
    config_hmr, params = load_hmr(ws["config"]["paths"]["hmr_ckpt"])
    params["w_out"][0, 0] = np.nan
    config = json.loads(json.dumps(ws["config"]))
    config["paths"]["hmr_ckpt"] = str(tmp_path / "nan_hmr.ckpt")
    save_hmr(config["paths"]["hmr_ckpt"], config_hmr, params)
    cfg_path = tmp_path / "nan.json"
    cfg_path.write_text(json.dumps(config))
    code = cli.run(["adapt", "--online", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "regressor loss is nan (Adam updates completed: 0)" in capsys.readouterr().err
