"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads verify enumerate instance \\
        --seeds 1 2 3 4 5 6 7 8 9 10 [--record perfbench/baseline.json]

For each workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of that median, next to
the bound in BENCHMARK.json.  ``--record`` writes the runs, the machine,
Python version and git commit to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--record", default=None)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, lines = run_once(spec["command"], workload, seed, spec["run_seconds"])
            runs.append({"seed": seed, "result": result, "report": lines})
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            med, share = spread([r["result"]["metrics"][name]["value"] for r in runs])
            summary[name] = {"median": med, "iqr_share": share, "bound": bound}
            print(f"  {workload} {name}: median {med:.4f}  IQR/median {share:.4f}"
                  f"  bound {bound}", flush=True)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
