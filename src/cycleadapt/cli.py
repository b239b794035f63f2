"""Command line front end: one JSON config file drives every stage.

Subcommands cover the whole pipeline on synthetic data:

  synth     write one source-domain and one target-domain video to disk
  pretrain  train both networks on generated source videos, save checkpoints
  adapt     run offline cyclic (or online causal) adaptation on the target
  eval      recompute the error report for any checkpoint + video pair
  ablate    run a named suite of configurations into one combined CSV

The work itself is done by the `benchmark` module; this one parses the
config, writes the files and maps failures onto exit codes. Every command
echoes its effective config as ``config.json`` into the output directory,
so any run is reproducible from that file and nothing else.

Exit codes: 0 success, 1 unusable config or file (the message names the
offending path), 2 a violated internal invariant or a numerical failure
mid-run. The ``online`` flag keeps ``frozen_mdnet`` meaningful: the causal
pass then still writes denoised windows to the store, but never updates
the denoiser.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .adapt import AdaptConfig, InvariantError
from .benchmark import (
    BODY_SCALE,
    BODY_SEED,
    GAP_ALPHA,
    HMR_CONFIG,
    HMR_PRETRAIN_LR,
    HMR_PRETRAIN_STEPS,
    JOINTS,
    MD_CONFIG,
    MD_PRETRAIN_PLAN,
    MD_PRETRAIN_SIGMA,
    N_FRAMES,
    SOURCE_FRAMES,
    SOURCE_SEEDS,
    VERTICES,
    benchmark_body,
    make_evaluator,
    make_source_videos,
    make_target_video,
    pretrain_nets,
    random_nets,
    run_online,
    run_variant,
    source_domain,
    target_domain,
)
from .bodymodel import DegenerateRotationError
from .checkpoint import load_hmr, load_md, save_hmr, save_md
from .hmrnet import HmrConfig, hmr_forward
from .mdnet import MdConfig
from .metrics import DegenerateGeometryError, MetricReport
from .synth import DomainSpec, read_video, write_video

CSV_HEADER = "cycle,source,mpjpe,pa_mpjpe,mpvpe,accel"

# suite -> rows of (label, benchmark variant, random_init override or None
# for the config's own flag, row source); rows sharing a run reuse it
SUITES = {
    "table1": (
        ("frozen_hmrnet", "frozen_hmr", None, "hmrnet"),
        ("store_before", "frozen_hmr", None, "store"),
        ("store_after", "frozen_hmr_adapt_md", None, "store"),
    ),
    "table2": tuple((v, v, None, "hmrnet") for v in ("no_adapt", "2d_only", "3d_noncyclic", "full_cyclic")),
    "table4": tuple((v, v, None, "hmrnet") for v in ("full_cyclic", "gaussian")),
    "suppE": (("pretrained", "full_cyclic", False, "hmrnet"), ("random_init", "full_cyclic", True, "hmrnet")),
}


class ConfigError(ValueError):
    """The config file (or a file it references) cannot be used as given."""


# declared field types that a JSON value is checked against; tuple fields
# (ranges, the pretraining plan) are checked where they are parsed
_KINDS = ("str", "str | None", "bool", "int", "float")


def _cast(name: str, kind: str, value):
    """A JSON value as the field type ``kind``: a bool takes only a boolean, an int
    only an integral number, a str only a string; a float also takes an integer."""
    if kind.startswith("str") and (isinstance(value, str) or value is None and kind == "str | None"):
        return value
    if kind == "bool" and isinstance(value, bool):
        return value
    if kind in ("int", "float") and isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind == "float":
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


@dataclass(frozen=True)
class Flags:
    frozen_mdnet: bool = False
    no_3d_loss: bool = False
    random_init: bool = False
    online: bool = False
    unweighted_2d: bool = False


@dataclass(frozen=True)
class AdaptKnobs:
    cycles: int = AdaptConfig.cycles
    batch: int = AdaptConfig.batch
    lr_start: float = AdaptConfig.lr_start
    lr_end: float = AdaptConfig.lr_end
    gamma: float = AdaptConfig.gamma
    md_denoiser: str = AdaptConfig.md_denoiser
    gaussian_std: float = AdaptConfig.gaussian_std


@dataclass(frozen=True)
class Body:
    seed: int = BODY_SEED
    joints: int = JOINTS
    vertices: int = VERTICES
    scale: float = BODY_SCALE


@dataclass(frozen=True)
class Synth:
    video_frames: int = N_FRAMES
    gap_alpha: float = GAP_ALPHA
    source_count: int = len(SOURCE_SEEDS)
    source_frames: int = SOURCE_FRAMES


@dataclass(frozen=True)
class Pretrain:
    hmr_steps: int = HMR_PRETRAIN_STEPS
    hmr_lr: float = HMR_PRETRAIN_LR
    md_sigma: float = MD_PRETRAIN_SIGMA
    md_plan: tuple = MD_PRETRAIN_PLAN


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs: the seed plus one field per JSON section.

    The five mode flags are folded into the adaptation stage config together
    with the seed, so a flag is never specified in two places; the denoiser
    window is the `md` section's alone.
    """

    seed: int = 0
    paths: Paths = Paths()
    flags: Flags = Flags()
    hmr: HmrConfig = HMR_CONFIG
    md: MdConfig = MD_CONFIG
    adapt: AdaptKnobs = AdaptKnobs()
    source: DomainSpec = source_domain()
    target: DomainSpec = target_domain()
    body: Body = Body()
    synth: Synth = Synth()
    pretrain: Pretrain = Pretrain()

    def __post_init__(self) -> None:
        named = {"out_dir": self.paths.out_dir, "hmr_ckpt": self.paths.hmr_ckpt, "md_ckpt": self.paths.md_ckpt}
        if self.paths.video is not None:
            named["video"] = self.paths.video
        seen: dict = {}
        for label, p in named.items():
            key = os.path.normpath(str(p))
            if key in seen:
                raise ConfigError(f"paths must be distinct: {seen[key]} and {label} both name {key!r}")
            seen[key] = label
        for section, name in (
            (self.synth, "video_frames"),
            (self.synth, "source_count"),
            (self.synth, "source_frames"),
            (self.pretrain, "hmr_steps"),
        ):
            if getattr(section, name) < 1:
                raise ConfigError(f"RunConfig.{name} must be >= 1")
        if not 0.0 <= self.synth.gap_alpha <= 1.0:
            raise ConfigError(f"RunConfig.gap_alpha must be in [0, 1], got {self.synth.gap_alpha}")
        if self.pretrain.hmr_lr <= 0 or self.pretrain.md_sigma < 0:
            raise ConfigError("RunConfig: need hmr_lr > 0 and md_sigma >= 0")
        if not self.pretrain.md_plan or any(s < 1 or lr <= 0 for s, lr in self.pretrain.md_plan):
            raise ConfigError("RunConfig.md_plan needs at least one (steps >= 1, lr > 0) stage")
        self.adapt_config()  # surface bad stage knobs at load time, not mid-run

    def adapt_config(self) -> AdaptConfig:
        return AdaptConfig(
            **dataclasses.asdict(self.adapt),
            seed=self.seed,
            frozen_mdnet=self.flags.frozen_mdnet,
            no_3d_loss=self.flags.no_3d_loss,
            unweighted_2d=self.flags.unweighted_2d,
        )


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
            raise ConfigError(f"{where}: {exc}") from None
    try:
        seed = _cast("seed", "int", data.pop("seed", 0))
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if data:
        raise ConfigError(f"{where}: unknown top-level key(s) {sorted(data)}")
    return RunConfig(seed=seed, **sections)


def config_to_dict(cfg: RunConfig) -> dict:
    """Inverse of config_from_dict; round trips exactly."""
    return dataclasses.asdict(cfg)


def default_config() -> RunConfig:
    return config_from_dict({})


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
    try:
        return config_from_dict(data, where=str(p))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{p}: {exc}") from exc


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


def parse_metrics_csv(path) -> list:
    """Back to (cycle, source, MetricReport) rows, at the file's precision."""
    with open(path, newline="\n") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: expected header {CSV_HEADER!r}")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 6:
            raise ConfigError(f"{path}: malformed row {line!r}")
        cycle, source = int(fields[0]), fields[1]
        rows.append((cycle, source, MetricReport(*(float(v) for v in fields[2:]))))
    return rows


def _body(cfg: RunConfig):
    return benchmark_body(**dataclasses.asdict(cfg.body))


def _source_videos(cfg: RunConfig, model, seeds) -> list:
    return make_source_videos(model, seeds, cfg.synth.source_frames, cfg.hmr.feature_dim, cfg.source)


def _synth_target(cfg: RunConfig, model):
    return make_target_video(
        cfg.seed, cfg.synth.video_frames, cfg.hmr.feature_dim, model, cfg.synth.gap_alpha, cfg.source, cfg.target
    )


def _read_checked_video(cfg: RunConfig, path):
    """A video file, checked against the run's regressor and body."""
    video, _spec = read_video(path)
    if video.features.shape[1] != cfg.hmr.feature_dim:
        raise ConfigError(
            f"{path}: feature dim {video.features.shape[1]} does not match "
            f"the regressor's {cfg.hmr.feature_dim}"
        )
    if video.gt_joints.shape[1] != cfg.body.joints:
        raise ConfigError(f"{path}: {video.gt_joints.shape[1]} joints but the body has {cfg.body.joints}")
    return video


def target_video(cfg: RunConfig, model):
    """The config's video file if given, else synthesized from (config, seed)."""
    if cfg.paths.video is None:
        return _synth_target(cfg, model)
    return _read_checked_video(cfg, cfg.paths.video)


def _load_checked(load, path, config, what: str) -> dict:
    loaded, params = load(path)
    if loaded != config:
        raise ConfigError(f"{path}: checkpoint {what} config {loaded} != run's {config}")
    return params


def load_nets(cfg: RunConfig) -> tuple[dict, dict]:
    if cfg.flags.random_init:
        return random_nets(cfg.seed, cfg.hmr, cfg.md)
    return (
        _load_checked(load_hmr, cfg.paths.hmr_ckpt, cfg.hmr, "regressor"),
        _load_checked(load_md, cfg.paths.md_ckpt, cfg.md, "denoiser"),
    )


def _run_args(cfg: RunConfig, model, video) -> dict:
    """What every benchmark run driver takes from the config."""
    return dict(model=model, video=video, base=cfg.adapt_config(), hmr_config=cfg.hmr, md_config=cfg.md)


def _last_row(run, source: str):
    rows = [(cycle, rep) for cycle, s, rep in run.rows if s == source]
    if not rows:
        raise InvariantError(f"adaptation produced no {source!r} rows")
    return rows[-1]


def cmd_synth(cfg: RunConfig) -> int:
    model = _body(cfg)
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
    model = _body(cfg)
    seeds = range(SOURCE_SEEDS[0], SOURCE_SEEDS[0] + cfg.synth.source_count)
    hmr_params, md_params, tau = pretrain_nets(
        model,
        videos=_source_videos(cfg, model, seeds),
        hmr_config=cfg.hmr,
        md_config=cfg.md,
        **dataclasses.asdict(cfg.pretrain),
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
    model = _body(cfg)
    video = target_video(cfg, model)
    hmr_params, md_params = load_nets(cfg)
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.flags.online:
        run = run_online(cfg.seed, hmr_params, md_params, **_run_args(cfg, model, video))
        rows = [(0, "hmrnet", run.report)]
        save_hmr(out / "hmr_final.ckpt", cfg.hmr, run.hmr_params)
        save_md(out / "md_final.ckpt", cfg.md, run.md_params)
    else:
        run = run_variant(
            "full_cyclic", cfg.seed, hmr_params, md_params, checkpoint_dir=out, **_run_args(cfg, model, video)
        )
        rows = run.rows
    emit_metrics_csv(out / "metrics.csv", rows)
    write_config_echo(cfg, out)
    cycle, rep = _last_row(run, "hmrnet") if not cfg.flags.online else (0, run.report)
    print(f"wrote {out / 'metrics.csv'} ({len(rows)} rows); final mpjpe {rep.mpjpe:.6g} at cycle {cycle}")
    return 0


def cmd_eval(cfg: RunConfig, checkpoint, video_path) -> int:
    if video_path is None:
        raise ConfigError("eval needs a video file: pass --video or set paths.video")
    model = _body(cfg)
    video = _read_checked_video(cfg, video_path)
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
    model = _body(cfg)
    video = target_video(cfg, model)
    runs: dict = {}
    rows = []
    for label, variant, random_init, source in SUITES[suite]:
        flags = cfg.flags if random_init is None else replace(cfg.flags, random_init=random_init)
        key = (variant, flags.random_init)
        if key not in runs:
            nets = load_nets(replace(cfg, flags=flags))
            runs[key] = run_variant(variant, cfg.seed, *nets, **_run_args(cfg, model, video))
        cycle, rep = _last_row(runs[key], source)
        rows.append((cycle, label, rep))
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
