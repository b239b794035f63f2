"""Paired benchmark runs: the last commit against the working tree.

  python3 tools/bench_pairs.py --tag base --workload online_causal --pairs 10 --seeds 0 3 5

Exports HEAD, the parent of the working tree's change, with ``git archive``
into ``.perfbench/pairs/<commit>/`` and runs ``perfbench/run.py --trace 0``
for BENCHMARK.json's ``run_seconds`` alternately there and in the working
tree, one pair per seed in turn. Which side runs first alternates from pair
to pair, so slow drift of the machine falls on both sides alike. Each
checkout builds and caches its own nets the first time, outside the measured
runs.

Writes ``BENCH_<tag>.json`` at the repo root: the commits, both ``src/``
hashes, both sides' ``src/cycleadapt`` and ``tests`` line counts, the
machine, the BLAS thread count, every pair's end-to-end metrics, and per
workload and metric both medians and quartiles, the number of pairs the
working tree won, the relative change of the medians, their gap in units of
the parent's interquartile range and the runs that failed the benchmark's
correctness check. Each run also records its heap churn: the minor page
faults and the system CPU time of ``run.py`` and the workers it waits for,
and whether it built the nets; the summary gives their medians per side,
over the runs that built none, without a gate. Running again with the same tag adds pairs to the file, as
long as both ``src/`` hashes still match. Uses only the standard library, git and
the benchmark itself.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS_DIR = ROOT / ".perfbench" / "pairs"


def summarize(pairs: list, metrics: dict) -> dict:
    """Medians, quartiles and wins per metric over paired runs.

    ``pairs`` holds ``{"parent": {metric: value}, "change": {metric: value},
    "correct": {"parent": bool, "change": bool}}`` entries; ``metrics`` maps
    each metric name to ``"lower"`` or ``"higher"``, the better direction. A
    pair with a side that failed its correctness check is counted under
    ``failed`` for that side and left out of the medians and wins. A pair is a
    win when the change is strictly better. Quartiles interpolate linearly
    between order statistics (``statistics.quantiles(..., method="inclusive")``).
    ``change_rel`` is the change median over the parent median, minus one;
    ``gap_over_parent_iqr`` is the absolute gap between the medians over the
    parent's interquartile range. Each is None where its divisor is 0.
    """
    failed = {side: sum(not p["correct"][side] for p in pairs) for side in ("parent", "change")}
    kept = [p for p in pairs if all(p["correct"].values())]
    out = {}
    for name, better in metrics.items():
        rows = [(p["parent"][name], p["change"][name]) for p in kept if name in p["parent"] and name in p["change"]]
        if not rows:
            continue
        entry = {"better": better, "pairs": len(rows), "failed": failed}
        for side, values in (("parent", [r[0] for r in rows]), ("change", [r[1] for r in rows])):
            q1, q3 = quartiles(values)
            entry[side] = {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}
        wins = sum(c < p if better == "lower" else c > p for p, c in rows)
        entry["change_wins"] = wins
        parent, change = entry["parent"], entry["change"]
        entry["change_rel"] = change["median"] / parent["median"] - 1.0 if parent["median"] else None
        gap = abs(change["median"] - parent["median"])
        entry["gap_over_parent_iqr"] = gap / parent["iqr"] if parent["iqr"] else None
        out[name] = entry
    return out


def quartiles(values: list) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def py_lines(checkout: Path, folder: str) -> int:
    """Newlines in ``<folder>/*.py`` of a checkout: the total of ``wc -l``."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / folder).glob("*.py"))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export_parent(commit: str) -> Path:
    """The parent's files, exported once per commit and reused after."""
    dest = PAIRS_DIR / commit[:12]
    if not (dest / "perfbench" / "run.py").is_file():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    return dest


def run_counted(cmd: list, cwd: Path) -> tuple[subprocess.CompletedProcess, dict]:
    """Run ``cmd`` to its end; also returns the minor page faults and system
    CPU seconds that it and the descendants it waited for took."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc, {"minflt": after.ru_minflt - before.ru_minflt, "stime_s": after.ru_stime - before.ru_stime}


def summarize_churn(pairs: list) -> dict:
    """Per side, the median minor faults and system CPU seconds of a run,
    over the runs that did not build the nets; not gated."""
    out = {}
    for side in ("parent", "change"):
        runs = [p["churn"][side] for p in pairs if "churn" in p and not p["churn"][side]["built_nets"]]
        if runs:
            out[side] = {"runs": len(runs)}
            out[side].update((key, statistics.median(r[key] for r in runs)) for key in ("minflt", "stime_s"))
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` call: its metrics, checks, heap churn and environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", repr(seconds), "--trace", "0"]
    proc, churn = run_counted(cmd, checkout)
    if proc.returncode == 2 or not proc.stdout.strip():
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} could not run:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
        "correct": line["correct"],
        "digest_matches": "matches the recorded digest" in proc.stdout,
        "churn": {**churn, "built_nets": "building pretrained nets" in proc.stderr},
        "env": record["env"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json at the repo root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="pair k runs seed k mod len(seeds)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]

    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--", "src", "perfbench"))
    parent = export_parent(head)
    out_path = ROOT / f"BENCH_{args.tag}.json"
    bench = json.loads(out_path.read_text()) if out_path.exists() else {"workloads": {}}

    runs = bench["workloads"].setdefault(args.workload, {"pairs": []})["pairs"]
    for _ in range(args.pairs):
        seed = args.seeds[len(runs) % len(args.seeds)]
        order = ("parent", "change") if len(runs) % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(parent if side == "parent" else ROOT, args.workload, seed, seconds)
        for side in ("parent", "change"):
            src = pair[side]["env"]["src_sha256"]
            key = f"{side}_src_sha256"
            if bench.get(key, src) != src:
                raise RuntimeError(f"{out_path.name} holds runs of another {side} src/ ({bench[key][:12]})")
            bench[key] = src
        for side, checkout in (("parent", parent), ("change", ROOT)):
            bench[f"{side}_src_lines"] = py_lines(checkout, "src/cycleadapt")
            bench[f"{side}_tests_lines"] = py_lines(checkout, "tests")
        env = pair["change"]["env"]
        runs.append({
            "seed": seed,
            "first": pair["first"],
            **{side: pair[side]["metrics"] for side in ("parent", "change")},
            "correct": {side: pair[side]["correct"] for side in ("parent", "change")},
            "digest_matches": {side: pair[side]["digest_matches"] for side in ("parent", "change")},
            "churn": {side: pair[side]["churn"] for side in ("parent", "change")},
        })
        faults = {side: runs[-1]["churn"][side]["minflt"] for side in ("parent", "change")}
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{name} {runs[-1]['parent'][name]:.4g} -> {runs[-1]['change'][name]:.4g}" for name in better
        ) + f", minflt {faults['parent']} -> {faults['change']}", file=sys.stderr)
        bench.update(
            tag=args.tag,
            commit=head if not dirty else f"{head} plus uncommitted changes",
            parent_commit=head,
            machine={"platform": platform.platform(), "cpu_count": os.cpu_count(), "cpu": env["cpu"]},
            python=env["python"],
            numpy=env["numpy"],
            blas=env["blas"],
            blas_threads=int(env["blas_pin"]["OPENBLAS_NUM_THREADS"]),
            seconds=seconds,
        )
        for name, entry in bench["workloads"].items():
            entry["summary"] = summarize(entry["pairs"], better)
            entry["churn"] = summarize_churn(entry["pairs"])
        out_path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
