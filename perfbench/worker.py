"""One benchmark process: build the nets, or measure one workload.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and
the BLAS thread count pinned to one; writes its result as JSON to --out.

  worker.py nets --out-dir DIR
  worker.py run --workload W --seed N --seconds S --trace 0|1 --size standard|tiny
                --nets DIR --nets-s X --work DIR --out FILE
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import cycleadapt
import layers
import workloads
from cycleadapt import benchmark
from tracer import Tracer

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-ups timed on their own before each untraced run, so that setup_s is
# a median of samples spread over the whole measuring time; the machine's
# speed drifts over seconds, so back-to-back samples would move together
EXTRA_SETUPS = 2


def make_nets(out_dir: Path) -> float:
    """The standard pretrained nets, by the package's own recipe; returns seconds."""
    start = time.perf_counter()
    benchmark.pretrain_nets(cache_dir=out_dir)
    return time.perf_counter() - start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pin": {var: os.environ.get(var) for var in PIN_VARS},
        "cycleadapt_threads": os.environ.get("CYCLEADAPT_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "package": str(Path(cycleadapt.__file__).resolve().parent),
    }


def _finite(outcome) -> bool:
    values = [*outcome.arrays, np.array(list(outcome.quality.values()), dtype=float)]
    return all(bool(np.isfinite(a).all()) for a in values)


def one_run(name: str, seed: int, size, nets_dir, work: Path, tracer, extra_setups: int = 0) -> dict:
    """Set up, then run once; with a tracer, every layer call is timed.

    `extra_setups` untraced set-ups are timed first and thrown away; they
    only add samples to setup_s.
    """
    record = {"traced": tracer is not None, "error": None, "extra_setup_s": []}
    try:
        for _ in range(extra_setups):
            t0 = time.perf_counter()
            workloads.setup(name, seed, size, nets_dir)
            record["extra_setup_s"].append(time.perf_counter() - t0)
        if tracer is not None:
            layers.install(tracer)
        t0 = time.perf_counter()
        state = workloads.setup(name, seed, size, nets_dir, tracer)
        t1 = time.perf_counter()
        root = tracer.open(layers.ROOT) if tracer is not None else None
        outcome = workloads.run(name, state, seed, size, work / "run")
        if tracer is not None:
            tracer.close(root)
        t2 = time.perf_counter()
        record.update(
            setup_s=t1 - t0,
            run_s=t2 - t1,
            steps=int(outcome.steps),
            quality={k: float(v) for k, v in outcome.quality.items()},
            digest=outcome.digest,
            finite=_finite(outcome),
        )
    except Exception:  # a run that raises is a failed run, reported, not fatal
        record["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.restore()
    return record


def measure(args) -> dict:
    size = workloads.TINY if args.size == "tiny" else workloads.STANDARD
    work = Path(args.work)
    runs: list = []
    tracers: list = []
    begin = time.perf_counter()
    minimum = 2 if args.trace else 1
    while True:
        # with tracing, untraced and traced runs alternate, untraced first
        tracer = Tracer() if args.trace and len(runs) % 2 == 1 else None
        extra = 0 if args.trace else EXTRA_SETUPS
        record = one_run(args.workload, args.seed, size, args.nets, work, tracer, extra)
        runs.append(record)
        if record["error"]:
            break
        if tracer is not None:
            tracers.append(tracer)
            record["shares"] = layers.self_shares(tracer)
        # start another run while it would end no later than half a run
        # past the deadline
        spent = time.perf_counter() - begin
        if len(runs) >= minimum and spent + 0.5 * spent / len(runs) > args.seconds:
            break
    shutil.rmtree(work / "run", ignore_errors=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "expected_steps": workloads.expected_steps(args.workload, size),
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracers:
        untraced = [r["run_s"] for r in runs if not r["traced"]]
        traced = [r["run_s"] for r in runs if r["traced"]]
        metrics, percentiles = layers.layer_metrics(tracers, untraced, traced, args.nets_s)
        result["layers"] = metrics
        result["hi_percentiles"] = percentiles
        result["layer_units"] = dict(layers.metric_names())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    nets = sub.add_parser("nets")
    nets.add_argument("--out-dir", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--size", choices=("standard", "tiny"), default="standard")
    run.add_argument("--nets")
    run.add_argument("--nets-s", type=float, default=0.0)
    run.add_argument("--work", required=True)
    run.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.command == "nets":
        out = Path(args.out_dir)
        seconds = make_nets(out)
        (out / "nets.json").write_text(json.dumps({"nets_s": seconds}) + "\n")
        return 0
    result = measure(args)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
