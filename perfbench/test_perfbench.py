"""Tests of the benchmark itself, at the tiny smoke size (seconds in all).

  python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from cycleadapt import adapt, benchmark, checkpoint, diffcore, mdnet, metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = (adapt, benchmark, checkpoint, diffcore, mdnet, metrics)


def _attributes() -> dict:
    return {(m.__name__, k): v for m in MODULES for k, v in vars(m).items() if callable(v)}


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_probes_are_restored_after_a_traced_run(tmp_path, name):
    before = _attributes()
    record = worker.one_run(name, 0, workloads.TINY, None, tmp_path, Tracer())
    assert record["error"] is None
    assert _attributes() == before


def test_probes_are_restored_when_a_run_raises(tmp_path, monkeypatch):
    before = _attributes()

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(workloads, "run", broken)
    record = worker.one_run("cyclic_offline", 0, workloads.TINY, None, tmp_path, Tracer())
    assert "FloatingPointError: injected" in record["error"]
    assert _attributes() == before


def test_standard_step_counts_match_the_workload_sizes():
    for name in workloads.WORKLOADS:
        assert workloads.expected_steps(name, workloads.STANDARD) == run.STANDARD_STEPS[name]


def test_spec_names_match_what_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.metric_names()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run_emits_every_metric(name, trace):
    proc = _bench("--workload", name, "--seed", "1", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1 + trace
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace:
        # TINY: 60 frames, 2 cycles, window 49
        md_steps, calls = {"cyclic_offline": (4, 5), "online_causal": (1, 1), "pretrain_denoiser": (0, 0)}[name]
        assert line["metrics"]["adapt.md_steps"]["value"] == md_steps
        assert line["metrics"]["benchmark.evaluator_calls"]["value"] == calls


def _result(quality, digest="d", steps=324, traced=False) -> dict:
    run_record = {"error": None, "steps": steps, "finite": True, "quality": quality, "digest": digest, "traced": traced}
    return {"workload": "cyclic_offline", "seed": 0, "size": "standard", "runs": [run_record], "expected_steps": steps}


QUALITY = {
    "final_mpjpe_mm": 20.0,
    "final_pa_mpjpe_mm": 8.0,
    "final_mpvpe_mm": 20.0,
    "final_accel_mm": 38.0,
    "store_mpjpe_mm": 19.0,
    "start_mpjpe_mm": 40.0,
}
REFERENCE = {"rel_tol": 1e-6, "band": 0.5, "workloads": {"cyclic_offline": {"0": dict(QUALITY, digest="d")}}}


def test_gate_accepts_the_reference_and_rejects_wrong_outputs():
    assert run.check(_result(dict(QUALITY)), REFERENCE) == [[]]
    shifted = dict(QUALITY, final_pa_mpjpe_mm=8.001)
    assert "final_pa_mpjpe_mm" in run.check(_result(shifted), REFERENCE)[0][0]
    assert "optimizer steps" in run.check(_result(dict(QUALITY), steps=323), REFERENCE)[0][0]
    unseen = _result(dict(QUALITY, final_mpjpe_mm=90.0))
    unseen["seed"] = 7
    assert "outside the band" in run.check(unseen, REFERENCE)[0][0]


def test_gate_rejects_a_traced_run_that_differs_from_the_untraced_one():
    result = _result(dict(QUALITY))
    traced = copy.deepcopy(result["runs"][0])
    traced.update(traced=True, digest="other")
    result["runs"].append(traced)
    verdicts = run.check(result, REFERENCE)
    assert verdicts[0] == [] and "not deterministic" in verdicts[1][0]


def test_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cyclic_offline", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
