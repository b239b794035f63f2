"""Command line front end: one JSON config file drives every stage.

Subcommands cover the whole pipeline on synthetic data:

  synth     write one source-domain and one target-domain video to disk
  pretrain  train both networks on generated source videos, save checkpoints
  adapt     run offline cyclic (or online causal) adaptation on the target
  eval      recompute the error report for any checkpoint + video pair
  ablate    run a named suite of configurations into one combined CSV

The work itself is done by the `benchmark` module; this one parses the
config, writes the files and maps failures onto exit codes. Most config
sections are library types themselves (`benchmark.Body`, `benchmark.Pretrain`,
the two `synth.DomainSpec` domains, `HmrConfig`, `MdConfig`), so a setting is
checked where it is declared; the sections defined here hold the run's
paths, its flags, the adaptation knobs and the synthesis sizes. Every command
echoes its effective config as ``config.json`` into the output directory,
so any run is reproducible from that file and nothing else.

Exit codes: 0 success, 1 unusable config or file (the message names the
offending path), 2 a violated internal invariant or a numerical failure
mid-run. A refused setting is a `ConfigError` naming the file and the JSON
key (``section.key``). ``adapt.md_denoiser`` picks the 3D targets of an
``adapt`` run (see `adapt.AdaptConfig`; each row of `benchmark.SUITES` but
``no_adapt`` sets its own); under the ``online`` flag ``"frozen_mdnet"``
keeps its meaning: the causal pass then still writes denoised windows to the
store, but never updates the denoiser.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .adapt import AdaptConfig, InvariantError
from .benchmark import (
    GAP_ALPHA,
    HMR_CONFIG,
    JOINTS,
    MD_CONFIG,
    N_FRAMES,
    SOURCE,
    SOURCE_FRAMES,
    SOURCE_SEEDS,
    SUITES,
    TARGET,
    Body,
    Pretrain,
    benchmark_body,
    last_row,
    make_evaluator,
    make_source_videos,
    make_target_video,
    pose_blocks,
    pretrain_nets,
    random_nets,
    run_offline,
    run_online,
    run_suite,
)
from .checkpoint import load_hmr, load_md, save_hmr, save_md
from .diffcore import DegenerateRotationError
from .hmrnet import HmrConfig, hmr_forward
from .mdnet import MdConfig
from .metrics import ACCEL_MIN_FRAMES, DegenerateGeometryError
from .synth import DomainSpec, read_video, write_video

CSV_HEADER = "cycle,source,mpjpe,pa_mpjpe,mpvpe,accel"

class ConfigError(ValueError):
    """The config file (or a file it references) cannot be used as given."""


# declared field types that a JSON value is checked against; tuple fields
# (ranges, the pretraining plan) are checked where they are parsed
_KINDS = ("str", "str | None", "bool", "int", "float")


def _cast(name: str, kind: str, value):
    """A JSON value as the field type ``kind``: a bool takes only a boolean, an int
    only an integral number, a str only a string; a float also takes an integer,
    but not NaN or +-Infinity (which Python's `json` parses)."""
    if kind.startswith("str") and (isinstance(value, str) or value is None and kind == "str | None"):
        return value
    if kind == "bool" and isinstance(value, bool):
        return value
    if kind in ("int", "float") and isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind == "float":
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            return float(value)
        if isinstance(value, int) or value.is_integer():
            return int(value)
    raise TypeError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class Paths:
    out_dir: str = "run_out"
    hmr_ckpt: str = "hmr.ckpt"
    md_ckpt: str = "md.ckpt"
    video: str | None = None

    def __post_init__(self) -> None:
        seen: dict = {}
        for label, p in dataclasses.asdict(self).items():
            key = os.path.normpath(str(p))
            if p is not None and key in seen:
                raise ValueError(f"paths.{label} names {key!r}, as does paths.{seen[key]}: paths must be distinct")
            seen[key] = label


@dataclass(frozen=True)
class Flags:
    random_init: bool = False
    online: bool = False


@dataclass(frozen=True)
class AdaptKnobs:
    """The JSON ``adapt`` section: `AdaptConfig` without ``seed`` (top-level)
    and ``frozen_hmrnet`` (set only by the rows of `benchmark.SUITES`)."""

    cycles: int = AdaptConfig.cycles
    batch: int = AdaptConfig.batch
    lr_start: float = AdaptConfig.lr_start
    lr_end: float = AdaptConfig.lr_end
    gamma: float = AdaptConfig.gamma
    md_denoiser: str = AdaptConfig.md_denoiser
    gaussian_std: float = AdaptConfig.gaussian_std

    def __post_init__(self) -> None:
        AdaptConfig(**dataclasses.asdict(self))  # refuse a bad knob where it is set


@dataclass(frozen=True)
class Synth:
    video_frames: int = N_FRAMES
    gap_alpha: float = GAP_ALPHA
    source_count: int = len(SOURCE_SEEDS)
    source_frames: int = SOURCE_FRAMES

    def __post_init__(self) -> None:
        for name in ("source_count", "source_frames"):
            if getattr(self, name) < 1:
                raise ValueError(f"synth.{name} must be >= 1, got {getattr(self, name)}")
        if self.video_frames < ACCEL_MIN_FRAMES:
            raise ValueError(f"synth.video_frames must be >= {ACCEL_MIN_FRAMES} (accel_error), got {self.video_frames}")
        if not 0.0 <= self.gap_alpha <= 1.0:
            raise ValueError(f"synth.gap_alpha must be in [0, 1], got {self.gap_alpha}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs: the seed plus one field per JSON section.

    The `adapt` section and the seed make the adaptation stage config, so a
    knob is never specified in two places; the denoiser window is the `md`
    section's alone.
    """

    seed: int = 0
    paths: Paths = Paths()
    flags: Flags = Flags()
    hmr: HmrConfig = HMR_CONFIG
    md: MdConfig = MD_CONFIG
    adapt: AdaptKnobs = AdaptKnobs()
    source: DomainSpec = SOURCE
    target: DomainSpec = TARGET
    body: Body = Body()
    synth: Synth = Synth()
    pretrain: Pretrain = Pretrain()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.synth.source_frames < self.md.window:
            raise ValueError(
                f"synth.source_frames ({self.synth.source_frames}) must be >= md.window ({self.md.window}):"
                " the denoiser pre-trains on windows of source frames"
            )

    def adapt_config(self) -> AdaptConfig:
        return AdaptConfig(**dataclasses.asdict(self.adapt), seed=self.seed)


def _take(section: dict, allowed: dict, where: str) -> dict:
    out = {key: section.pop(key, default) for key, default in allowed.items()}
    if section:
        raise ConfigError(f"{where}: unknown key(s) {sorted(section)}; allowed: {sorted(allowed)}")
    return out


def _parse_plan(raw, where: str) -> tuple:
    try:
        return tuple((_cast("steps", "int", steps), _cast("lr", "float", lr)) for steps, lr in raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: pretrain.md_plan must be a list of [steps, lr] pairs") from exc


def config_from_dict(data: dict, where: str = "<config>") -> RunConfig:
    data = dict(data)
    sections = {}
    for field in dataclasses.fields(RunConfig)[1:]:
        raw = data.pop(field.name, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"{where}: section {field.name!r} must be a JSON object")
        values = _take(dict(raw), dataclasses.asdict(field.default), f"{where} {field.name}")
        if field.name == "pretrain":
            values["md_plan"] = _parse_plan(values["md_plan"], where)
        try:
            for declared in dataclasses.fields(field.default):
                if declared.type in _KINDS:
                    name = f"{field.name}.{declared.name}"
                    values[declared.name] = _cast(name, declared.type, values[declared.name])
            sections[field.name] = type(field.default)(**values)
        except (TypeError, ValueError) as exc:
            # a library class names the key "hmr.hidden_dim" as "HmrConfig.hidden_dim"
            message = re.sub(r"^[A-Z]\w*\.", f"{field.name}.", str(exc))
            raise ConfigError(f"{where}: {message}") from None
    seed = data.pop("seed", 0)
    if data:
        raise ConfigError(f"{where}: unknown top-level key(s) {sorted(data)}")
    try:
        return RunConfig(seed=_cast("seed", "int", seed), **sections)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_to_dict(cfg: RunConfig) -> dict:
    """Inverse of config_from_dict; round trips exactly."""
    return dataclasses.asdict(cfg)


def load_config(path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return config_from_dict(data, where=str(p))


def write_config_echo(cfg: RunConfig, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w", newline="\n") as fh:
        fh.write(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def format_metrics_rows(rows) -> str:
    """Pinned CSV dialect: exact header, six significant digits, LF only."""
    lines = [CSV_HEADER]
    for cycle, source, rep in rows:
        vals = ",".join(f"{v:.6g}" for v in (rep.mpjpe, rep.pa_mpjpe, rep.mpvpe, rep.accel))
        lines.append(f"{cycle},{source},{vals}")
    return "\n".join(lines) + "\n"


def emit_metrics_csv(path, rows) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="\n") as fh:
        fh.write(format_metrics_rows(rows))


def _source_videos(cfg: RunConfig, model, seeds) -> list:
    return make_source_videos(model, seeds, cfg.synth.source_frames, cfg.hmr.feature_dim, cfg.source)


def _synth_target(cfg: RunConfig, model):
    return make_target_video(
        cfg.seed, cfg.synth.video_frames, cfg.hmr.feature_dim, model, cfg.synth.gap_alpha, cfg.source, cfg.target
    )


def _read_checked_video(cfg: RunConfig, model, path):
    """A video file, checked against the run's regressor and body: every frame's
    joints are posed again, in the evaluator's blocks, and must match to 1e-9 m."""
    video, _spec = read_video(path)
    if video.frame_count < ACCEL_MIN_FRAMES:
        raise ConfigError(f"{path}: {video.frame_count or 'no'} frames; accel_error needs at least {ACCEL_MIN_FRAMES}")
    if video.features.shape[1] != cfg.hmr.feature_dim:
        raise ConfigError(
            f"{path}: feature dim {video.features.shape[1]} does not match "
            f"the regressor's {cfg.hmr.feature_dim}"
        )
    if video.gt_joints.shape[1] != JOINTS:
        raise ConfigError(f"{path}: {video.gt_joints.shape[1]} joints but the body has {JOINTS}")
    body = f"the config's body (body.seed {cfg.body.seed}, body.scale {cfg.body.scale}, {cfg.body.vertices} vertices)"
    try:
        for rows, _verts, joints in pose_blocks(model, video.gt_params.theta, video.gt_params.beta):
            gaps = abs(joints - video.gt_joints[rows]).max(axis=(1, 2))
            k = int(gaps.argmax())
            if not gaps[k] <= 1e-9:
                raise ConfigError(f"{path}: not posed with {body}: frame {rows.start + k} is {gaps[k]:.3g} m off")
    except DegenerateRotationError as err:
        raise ConfigError(f"{path}: ground-truth pose codes: {err}") from None
    return video


def target_video(cfg: RunConfig, model):
    """The config's video file if given, else synthesized from (config, seed)."""
    if cfg.paths.video is None:
        return _synth_target(cfg, model)
    return _read_checked_video(cfg, model, cfg.paths.video)


def _load_checked(load, path, config, what: str) -> dict:
    loaded, params = load(path)
    if loaded != config:
        raise ConfigError(f"{path}: checkpoint {what} config {loaded} != run's {config}")
    return params


def load_nets(cfg: RunConfig, random_init: bool) -> tuple[dict, dict]:
    """Fresh nets from the run's seed if random_init, else the config's checkpoints."""
    if random_init:
        return random_nets(cfg.seed, cfg.hmr, cfg.md)
    return (
        _load_checked(load_hmr, cfg.paths.hmr_ckpt, cfg.hmr, "regressor"),
        _load_checked(load_md, cfg.paths.md_ckpt, cfg.md, "denoiser"),
    )


def _run_args(cfg: RunConfig, model, video) -> dict:
    """What every benchmark run driver takes from the config."""
    return dict(model=model, video=video, base=cfg.adapt_config(), hmr_config=cfg.hmr, md_config=cfg.md)


def cmd_synth(cfg: RunConfig) -> int:
    model = benchmark_body(cfg.body)
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the source sample reuses the pretraining seed family so it looks like
    # one more training video; the target is the evaluation video itself
    (src,) = _source_videos(cfg, model, (SOURCE_SEEDS[0] + cfg.seed,))
    tgt = _synth_target(cfg, model)
    write_video(out / "source.video", src, cfg.source)
    write_video(out / "target.video", tgt, cfg.target)
    write_config_echo(cfg, out)
    print(f"wrote {out / 'source.video'} ({src.frame_count} frames) and {out / 'target.video'} ({tgt.frame_count} frames)")
    return 0


def cmd_pretrain(cfg: RunConfig) -> int:
    model = benchmark_body(cfg.body)
    seeds = range(SOURCE_SEEDS[0], SOURCE_SEEDS[0] + cfg.synth.source_count)
    hmr_params, md_params, tau = pretrain_nets(
        model, recipe=cfg.pretrain, videos=_source_videos(cfg, model, seeds), hmr_config=cfg.hmr, md_config=cfg.md
    )
    for p in (cfg.paths.hmr_ckpt, cfg.paths.md_ckpt):
        Path(p).parent.mkdir(parents=True, exist_ok=True)
    save_hmr(cfg.paths.hmr_ckpt, cfg.hmr, hmr_params)
    save_md(cfg.paths.md_ckpt, cfg.md, md_params)
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "pretrain.json", "w", newline="\n") as fh:
        fh.write(json.dumps({"tau": tau}) + "\n")
    write_config_echo(cfg, out)
    print(f"wrote {cfg.paths.hmr_ckpt} and {cfg.paths.md_ckpt}; source error tau={tau:.6g}")
    return 0


def cmd_adapt(cfg: RunConfig) -> int:
    model = benchmark_body(cfg.body)
    video = target_video(cfg, model)
    hmr_params, md_params = load_nets(cfg, cfg.flags.random_init)
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.flags.online:
        run = run_online(hmr_params, md_params, **_run_args(cfg, model, video))
        rows = [(0, "hmrnet", run.report)]
        save_hmr(out / "hmr_final.ckpt", cfg.hmr, run.hmr_params)
        save_md(out / "md_final.ckpt", cfg.md, run.md_params)
    else:
        run = run_offline(cfg.adapt_config(), hmr_params, md_params, model, video, out, cfg.hmr, cfg.md)
        rows = run.rows
    emit_metrics_csv(out / "metrics.csv", rows)
    write_config_echo(cfg, out)
    cycle, rep = last_row(run, "hmrnet") if not cfg.flags.online else (0, run.report)
    print(f"wrote {out / 'metrics.csv'} ({len(rows)} rows); final mpjpe {rep.mpjpe:.6g} at cycle {cycle}")
    return 0


def cmd_eval(cfg: RunConfig, checkpoint, video_path) -> int:
    if video_path is None:
        raise ConfigError("eval needs a video file: pass --video or set paths.video")
    model = benchmark_body(cfg.body)
    video = _read_checked_video(cfg, model, video_path)
    params = _load_checked(load_hmr, checkpoint, cfg.hmr, "regressor")
    theta, beta, _cam = hmr_forward(params, video.features)
    report = make_evaluator(model, video)(theta, beta)
    rows = [(0, "hmrnet", report)]
    out = Path(cfg.paths.out_dir)
    emit_metrics_csv(out / "metrics.csv", rows)
    write_config_echo(cfg, out)
    print(format_metrics_rows(rows), end="")
    return 0


def cmd_ablate(cfg: RunConfig, suite: str) -> int:
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}, expected one of {sorted(SUITES)}")
    if cfg.flags.online:
        raise ConfigError("ablate runs offline cycles only; flags.online must be false")
    model = benchmark_body(cfg.body)
    video = target_video(cfg, model)
    rows = run_suite(
        SUITES[suite],
        lambda random_init: load_nets(cfg, random_init),
        cfg.flags.random_init,
        **_run_args(cfg, model, video),
    )
    out = Path(cfg.paths.out_dir)
    emit_metrics_csv(out / "ablate.csv", rows)
    write_config_echo(cfg, out)
    print(f"wrote {out / 'ablate.csv'} ({len(rows)} configurations)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleadapt",
        description="Cyclic test-time adaptation of a mesh regressor and a motion denoiser.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="JSON run config file")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, help="seed override")
        return p

    add("synth", "write a source video and a target video")
    add("pretrain", "train both networks on the source domain and save checkpoints")
    adapt_p = add("adapt", "adapt on the target video and write metrics.csv")
    adapt_p.add_argument("--online", action="store_true", help="single causal pass instead of offline cycles")
    eval_p = add("eval", "recompute metrics for a checkpoint on a video file")
    eval_p.add_argument("--checkpoint", help="regressor checkpoint (default: the config's)")
    eval_p.add_argument("--video", help="video file (default: the config's)")
    ablate_p = add("ablate", "run a suite of configurations into one combined CSV")
    ablate_p.add_argument("--suite", required=True, choices=sorted(SUITES))
    return parser


def run(argv) -> int:
    """Parse argv, dispatch, and map failures onto the documented exit codes."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors itself
        return 0 if not exc.code else 1
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, paths=replace(cfg.paths, out_dir=args.out))
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "pretrain":
            return cmd_pretrain(cfg)
        if args.command == "adapt":
            if args.online:
                cfg = replace(cfg, flags=replace(cfg.flags, online=True))
            return cmd_adapt(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint or cfg.paths.hmr_ckpt, args.video or cfg.paths.video)
        return cmd_ablate(cfg, args.suite)
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2
    except (DegenerateRotationError, DegenerateGeometryError) as exc:
        # ValueError subclasses, but a failure of the numbers, not of the config
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # ConfigError, CheckpointError, VideoFormatError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
