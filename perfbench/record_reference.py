"""Record the quality reference that run.py checks every run against.

  python3 perfbench/record_reference.py --seeds 20

Runs each workload once per seed 0..N-1 at the standard size and writes
perfbench/reference.json: the quality figures and the output sha256 per
workload and seed. Re-record only in a change that declares why the
numbers moved; a change that claims a speed-up keeps this file as it is.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

# a run on a recorded seed must match every quality figure to this
# relative tolerance; reordered floating-point sums stay far below it
REL_TOL = 1e-6
# a run on any other seed must stay within the recorded seeds' range,
# widened by this share on both sides
BAND = 0.25


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=20, help="record seeds 0..N-1")
    args = parser.parse_args(argv)
    table: dict = {name: {} for name in run.WORKLOADS}
    commit = None
    for seed in range(args.seeds):
        for name in run.WORKLOADS:
            result = run.measure(name, seed, seconds=0, trace=0, size="standard")
            record = result["runs"][0]
            if record["error"] or not record["finite"] or record["steps"] != run.STANDARD_STEPS[name]:
                print(f"{name} seed {seed}: unusable run, nothing written", file=sys.stderr)
                return 1
            table[name][str(seed)] = {key: record["quality"][key] for key in run.QUALITY[name]}
            table[name][str(seed)]["digest"] = record["digest"]
            commit = result["env"]["commit"], result["env"]["src_sha256"]
            print(f"{name} seed {seed}: {table[name][str(seed)]}", file=sys.stderr)
    reference = {
        "recorded_at": {"commit": commit[0], "src_sha256": commit[1]},
        "rel_tol": REL_TOL,
        "band": BAND,
        "workloads": table,
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
