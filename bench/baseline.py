#!/usr/bin/env python3
"""Repeat bench/run.py over seeds, check its spread, and record a baseline.

Usage (from the repository root):

    python3 bench/baseline.py --seeds 1-10 [--workloads verify-web,det-tower]
                              [--label "commit abc1234"] [--write bench/BASELINE.json]

For every workload it makes one untraced run per seed, then reports each
end-to-end metric's median, quartiles and spread (the distance between the
quartiles as a share of the median) against a third of the metric's bound
in BENCHMARK.json.  With ``--write`` it also makes one traced run per
workload at the first seed and writes the machine description, the
end-to-end figures, the per-layer figures and the layer-to-metric map.
Exit status 1 means some spread reached a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# which end-to-end metric each layer should move, and on which workload
MOVES = {
    "qkz": "wall_s on verify-web (integrand cache, triangular solve); wall_s on cold-edge (solve only); "
    "0 calls on det-tower",
    "ring": "ok_per_s on det-tower; little on verify-web",
    "tee": "ok_per_s on det-tower; verify_lemma2 moves wall_s on verify-web (multivariate type)",
    "hirota": "ok_per_s and failed_share on det-tower (degenerate divisions); failed_share on cold-edge",
    "combin": "wall_s on cold-edge (loop-diagram transfer matrix, path enumeration); little on verify-web",
    "cli": "wall_s and peak_rss_mb on verify-web (thread pool removal)",
}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr.decode())
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def machine() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    try:
        mem_kb = int(Path("/proc/meminfo").read_text().split()[1])
        info["mem_gb"] = round(mem_kb / 2**20, 1)
    except (OSError, ValueError, IndexError):
        pass
    return info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--label", default="")
    ap.add_argument("--write", default="")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    names = args.workloads.split(",") if args.workloads else list(whys)
    seeds = parse_seeds(args.seeds)
    steady = True
    out = {"label": args.label, "machine": machine(), "run_seconds": bench["run_seconds"],
           "seeds": seeds, "layer_moves": MOVES, "workloads": {}}
    for name in names:
        started = time.monotonic()
        results = [run_once(name, s, bench["run_seconds"], 0) for s in seeds]
        took = time.monotonic() - started
        entry = {"why": whys[name], "correct": all(r["correct"] for r in results),
                 "failed_share": [r["failed"] / r["attempted"] for r in results],
                 "seconds_per_run": took / len(seeds), "end_to_end": {}}
        print(f"{name}: {len(seeds)} runs, {took / len(seeds):.1f} s each, correct={entry['correct']}")
        for metric, bound in bounds.items():
            stats = summarise([r["metrics"][metric]["value"] for r in results])
            entry["end_to_end"][metric] = stats
            ok = metric == "setup_s" or stats["spread"] < bound / 3
            steady = steady and ok
            print(f"  {metric:12s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                  f"spread {stats['spread']:.4f}  bound/3 {bound / 3:.4f}  {'ok' if ok else 'WIDE'}")
            print("    " + " ".join(f"{v:.4g}" for v in stats["values"]))
        if args.write:
            traced = run_once(name, seeds[0], bench["run_seconds"], 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][name] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
