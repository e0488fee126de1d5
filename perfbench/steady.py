#!/usr/bin/env python3
"""Steadiness check: run each workload on several seeds and compare the
spread of every end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py                       # 10 seeds, every workload
    python3 perfbench/steady.py --workloads serve_ingest --runs 5

For each metric it prints the median of the runs and the spread — the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median — next to the bound.  A spread above a
third of the bound is flagged ``WIDE``, above the bound ``FAIL`` (except
``setup_s``, whose bound gates only the shift of its median).  It also
checks that the share of failed operations is the same in every run, and
prints the median of each named figure of the runs' detail lines.  Exits 1
when any run fails or any gate is missed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    result["wall_s"] = time.perf_counter() - start
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        results = []
        for k in range(args.runs):
            result = run_once(workload, args.first_seed + k, args.seconds)
            results.append(result)
            print(f"{workload} seed={args.first_seed + k} wall={result['wall_s']:.1f}s "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            print(f"{workload}: failed shares {sorted(shares)} differ or a run was incorrect")
            ok = False
        walls = [r["wall_s"] for r in results]
        print(f"{workload}: wall per run median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            mid = statistics.median(values)
            if len(values) >= 2:
                q1, _q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / mid
            else:
                spread = 0.0
            bound = bounds[name]
            verdict = "ok"
            if name != "setup_s" and spread > bound:
                verdict, ok = "FAIL", False
            elif spread > bound / 3:
                verdict = "WIDE"
            print(f"  {name:22s} median {mid:12.4f}  spread {spread:6.1%}  bound {bound:5.0%}  {verdict}")
        for name in results[0]["detail"]["figures"]:
            values = [r["detail"]["figures"][name] for r in results]
            print(f"  {name:22s} median {statistics.median(values):12.4f}  (named figure, not gated)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
