#!/usr/bin/env python3
"""Self-checks of the benchmark itself (a few minutes; not part of pytest).

Usage (from the repository root):  python3 bench/selftest.py [--seed 3]

1. BENCHMARK.json names exactly the metrics and workloads bench/run.py reports.
2. For each workload, two traced runs at one seed give
   identical exact counters, and each run's traced pass printed the same
   bytes as its untraced pass (run.py marks the run incorrect otherwise).
3. In a directory holding only BENCHMARK.json and bench/, run.py exits
   nonzero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

EXACT_COUNTERS = [
    "qkz.integrand.misses",
    "qkz.c_coeff.calls",
    "ring.det.calls",
    "hirota.octahedron_step.calls",
    "hirota.degenerate.count",
]


def check_names() -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    want_e2e = [(n, u) for n, u in run.END_TO_END]
    got_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    if got_e2e != want_e2e:
        problems.append(f"end_to_end {got_e2e} != {want_e2e}")
    want_layer = [list(m) for m in run.per_layer_metrics()]
    got_layer = [[m["name"], m["unit"], m["better"]] for m in bench["per_layer"]]
    if got_layer != want_layer:
        problems.append("per_layer differs from run.per_layer_metrics()")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(run.WORKLOADS):
        problems.append("workload names differ")
    return problems


def traced(workload: str, seed: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "1"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600,
    )


def check_counters(seed: int) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        results = []
        for _ in range(2):
            proc = traced(workload, seed)
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            if not result["correct"]:
                problems.append(f"{workload}: incorrect run: {proc.stderr.decode()[-400:]}")
            results.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTERS})
        if results[0] != results[1]:
            problems.append(f"{workload}: counters differ between runs: {results}")
        print(f"{workload} seed {seed}: {results[0]}")
    return problems


def check_bare_directory() -> list[str]:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "bench")
    try:
        proc = traced("det-tower", 1, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    problems = check_names() + check_bare_directory() + check_counters(args.seed)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
