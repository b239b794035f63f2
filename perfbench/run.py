"""cycleadapt benchmark: one workload, one seed, end-to-end or traced.

  python3 perfbench/run.py --workload cyclic_offline --seed 0 --seconds 24 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's own `src`. The standard pretrained nets are made once by the
code under test and cached under `.perfbench/` keyed on a hash of `src`.
Each measured process runs on one thread with BLAS pinned to one thread.

Prints a readable report and, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). Exits 0 when every run was
correct, 1 when a run failed a check, 2 when the checkout cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("cyclic_offline", "online_causal", "pretrain_denoiser")
# optimizer steps of both nets in one standard run
STANDARD_STEPS = {"cyclic_offline": 324, "online_causal": 510, "pretrain_denoiser": 2000}
QUALITY = {
    "cyclic_offline": ("final_mpjpe_mm", "final_pa_mpjpe_mm", "final_mpvpe_mm", "final_accel_mm", "store_mpjpe_mm"),
    "online_causal": ("final_mpjpe_mm", "final_pa_mpjpe_mm", "final_mpvpe_mm", "final_accel_mm"),
    "pretrain_denoiser": ("md_eval_l1",),
}
# (metric, unit); bounds live in BENCHMARK.json
END_TO_END = (
    ("run_s", "s"),
    ("steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
NETS_TIMEOUT_S = 840
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked at all (exit 2, no result line)."""


def source_hash(src: Path) -> str:
    """sha256 over every file of the package source, path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CYCLEADAPT_THREADS"}
    env.update(PIN)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args: list, timeout: float) -> None:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} did not finish within {timeout:.0f} s") from exc
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")


def ensure_nets(src_hash: str, build: bool) -> tuple[Path | None, float]:
    """The pretrained nets for this source tree, built by it on first use.

    Without `build`, nets not built yet give (None, 0.0).
    """
    final = CACHE / f"nets-{src_hash[:20]}"
    if not (final / "nets.json").exists():
        if not build:
            return None, 0.0
        building = CACHE / f"nets-{src_hash[:20]}.building"
        shutil.rmtree(building, ignore_errors=True)
        building.mkdir(parents=True)
        print(f"building pretrained nets for src {src_hash[:12]} (one-off, about 2 min)", file=sys.stderr)
        _worker(["nets", "--out-dir", str(building)], NETS_TIMEOUT_S)
        building.rename(final)
    return final, float(json.loads((final / "nets.json").read_text())["nets_s"])


def measure(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Run the worker once and return its raw result."""
    if not (ROOT / "src" / "cycleadapt" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'cycleadapt'}; run from a cycleadapt checkout")
    src_hash = source_hash(ROOT / "src")
    # pretrain_denoiser never loads the nets, so it does not pay for building them
    nets_dir, nets_s = ensure_nets(src_hash, workload != "pretrain_denoiser") if size == "standard" else (None, 0.0)
    work = CACHE / "work" / f"{workload}-{os.getpid()}"
    out = work / "result.json"
    work.mkdir(parents=True, exist_ok=True)
    try:
        args = ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        args += ["--trace", str(trace), "--size", size, "--work", str(work), "--out", str(out)]
        if nets_dir is not None:
            args += ["--nets", str(nets_dir), "--nets-s", repr(nets_s)]
        _worker(args, WORKER_TIMEOUT_S)
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["env"].update(commit=git_commit(ROOT), src_sha256=src_hash)
    return result


def quality_problems(workload: str, seed: int, quality: dict, reference: dict) -> list:
    """Quality against the recorded reference: per seed if recorded, else a band."""
    table = reference["workloads"].get(workload)
    if not table:
        return [f"no recorded reference for {workload} in {REFERENCE.name}"]
    problems = []
    recorded = table.get(str(seed))
    for key in QUALITY[workload]:
        value = quality[key]
        if recorded is not None:
            ref = recorded[key]
            if abs(value - ref) > reference["rel_tol"] * abs(ref):
                problems.append(f"{key} {value:.9g} differs from reference {ref:.9g} by more than {reference['rel_tol']:g}")
        else:
            seen = [row[key] for row in table.values()]
            lo, hi = min(seen) * (1 - reference["band"]), max(seen) * (1 + reference["band"])
            if not lo <= value <= hi:
                problems.append(f"{key} {value:.6g} outside the band [{lo:.6g}, {hi:.6g}] of recorded seeds")
    if workload == "cyclic_offline" and not quality["final_mpjpe_mm"] < quality["start_mpjpe_mm"]:
        problems.append("adaptation did not lower MPJPE below the unadapted regressor's")
    if workload == "pretrain_denoiser" and not quality["md_eval_l1"] < quality["start_md_eval_l1"]:
        problems.append("pre-training did not lower the denoiser's eval error")
    return problems


def check(result: dict, reference: dict | None) -> list:
    """One list of failure reasons per run; an empty list is a correct run."""
    workload = result["workload"]
    standard = result["size"] == "standard"
    expected = STANDARD_STEPS[workload] if standard else result["expected_steps"]
    runs = result["runs"]
    first = next((r for r in runs if not r["error"]), None)
    verdicts = []
    for r in runs:
        if r["error"]:
            verdicts.append(["raised: " + r["error"].strip().splitlines()[-1]])
            continue
        reasons = []
        if r["steps"] != expected:
            reasons.append(f"took {r['steps']} optimizer steps, expected {expected}")
        if not r["finite"]:
            reasons.append("non-finite output")
        if r["digest"] != first["digest"] or r["quality"] != first["quality"]:
            kind = "traced" if r["traced"] else "untraced"
            reasons.append(f"not deterministic: this {kind} run's output differs from the first run's")
        if standard and reference is not None and r["finite"]:
            reasons += quality_problems(workload, result["seed"], r["quality"], reference)
        verdicts.append(reasons)
    return verdicts


def end_to_end(result: dict) -> dict:
    runs = [r for r in result["runs"] if not r["error"]]
    run_s = [r["run_s"] for r in runs]
    return {
        "run_s": statistics.median(run_s),
        "steps_per_s": statistics.median(r["steps"] / r["run_s"] for r in runs),
        "setup_s": statistics.median(s for r in runs for s in [*r["extra_setup_s"], r["setup_s"]]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _digest_note(result: dict, reference: dict | None) -> str:
    runs = [r for r in result["runs"] if not r["error"]]
    if not runs:
        return "no output"
    digest = runs[0]["digest"]
    recorded = (reference or {}).get("workloads", {}).get(result["workload"], {}).get(str(result["seed"]))
    if result["size"] != "standard" or recorded is None:
        return f"{digest[:16]} (no recorded digest for this seed)"
    if recorded["digest"] == digest:
        return f"{digest[:16]} matches the recorded digest"
    return f"{digest[:16]} DIFFERS from the recorded {recorded['digest'][:16]}: output bytes changed, declare it"


def report(result: dict, verdicts: list, metrics: dict, units: dict, reference: dict | None) -> str:
    runs = result["runs"]
    failed = sum(1 for v in verdicts if v)
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  size {result['size']}: "
        f"{len(runs)} runs ({sum(r['traced'] for r in runs)} traced), {failed} failed",
    ]
    for i, reasons in enumerate(verdicts):
        for reason in reasons:
            lines.append(f"  FAILED run {i}: {reason}")
    lines.append(f"  {'fail_ratio':32s} {failed / len(runs):.4g} ({failed}/{len(runs)})")
    ok = [r for r in runs if not r["error"]]
    if result["trace"] == 0 and ok:
        spread = [r["run_s"] for r in ok]
        lines.append(f"  run_s per run: {', '.join(f'{s:.4f}' for s in spread)}")
    for name, value in metrics.items():
        hi = result.get("hi_percentiles", {}).get(name.removesuffix("_hi_ms"))
        note = f"  (p{hi})" if name.endswith("_hi_ms") and hi is not None else ""
        lines.append(f"  {name:32s} {value:.6g} {units[name]}{note}")
    if ok:
        quality = ok[0]["quality"]
        lines.append("  quality, lower is better:")
        for key in QUALITY[result["workload"]]:
            unit = "mm" if key.endswith("_mm") else "l1"
            lines.append(f"    {key:30s} {quality[key]:.6g} {unit}")
        lines.append(f"  output sha256 {_digest_note(result, reference)}")
        shares = next((r["shares"] for r in ok if "shares" in r), None)
        if shares:
            lines.append("  self time as a share of the traced run:")
            for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
                lines.append(f"    {name:30s} {100 * share:6.2f} %")
    env = result["env"]
    lines.append(
        f"  env: python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']}, pin {env['blas_pin']}, "
        f"CYCLEADAPT_THREADS {env['cycleadapt_threads']}, nproc {env['nproc']} (affinity {env['affinity']}), "
        f"cpu {env['cpu']}, commit {env['commit']}, src sha256 {env['src_sha256'][:16]}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure this long (at least one run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("standard", "tiny"), default="standard", help="tiny: smoke test only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        reference = json.loads(REFERENCE.read_text()) if args.size == "standard" else None
        result = measure(args.workload, args.seed, args.seconds, args.trace, args.size)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    verdicts = check(result, reference)
    failed = sum(1 for v in verdicts if v)
    if args.trace:
        metrics = result.get("layers", {})
        units = result.get("layer_units", {})
    else:
        metrics = end_to_end(result) if any(not r["error"] for r in result["runs"]) else {}
        units = dict(END_TO_END)
    units = {name: units.get(name, "") for name in metrics}
    print(report(result, verdicts, metrics, units, reference))
    results_dir = CACHE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result.update(verdicts=verdicts, metrics=metrics)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    line = {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
