#!/usr/bin/env python3
"""Reduced-size self-test of the harness: every workload, timed and
traced, at a small scale with all of its correctness checks.

    python3 perfbench/selftest.py

Takes about a minute.  It checks that each run passes its checks,
attempts operations without failures, prints every metric BENCHMARK.json
declares for its kind of run, and measures a nonzero value for every
end-to-end metric and for each layer the workload exercises.
"""

from __future__ import annotations

import sys
import time

from common import BenchError, require_source, spec, stop_resource_tracker
from run import WORKLOADS, run_workload

#: Per-layer metrics each workload exercises, so each must read nonzero.
#: ``obs.trace.overhead_pct`` is left out: on ``serve_read`` it can be 0.
ACTIVE = {
    "train": {
        "data.store.to_log_s", "core.engine.table_build_s", "core.engine.assign_s",
        "core.stats.cell_fit_s", "core.shard.reduce_s", "core.training.unstaged_s",
        "core.training.iterations", "core.serialize.arrays", "core.serialize.artifact_mb",
        "core.serialize.publish_shm_s", "core.serialize.attach_shm_s",
    },
    "serve_read": {
        "recsys.ranking.predict_us", "core.difficulty.difficulty_us",
        "recsys.upskill.recommend_us", "recsys.similarity.similar_harder_us",
        "recsys.similarity.build_s", "serve.server.request_self_ms",
        "serve.server.serialize_ms", "serve.server.cpu_ms_per_req",
        "serve.recommend.resolve_ms", "serve.recommend.index_builds",
        "serve.batcher.queue_ms", "serve.batcher.flush_ms", "serve.batcher.flush_max_ms",
        "serve.batcher.batch_size", "loadgen.cpu_ms_per_req",
    },
}
ACTIVE["serve_ingest"] = ACTIVE["serve_read"] | {
    "serve.ingest.append_ms", "serve.ingest.batches", "serve.foldin.folds",
    "serve.foldin.fold_s", "serve.foldin.extend_s", "serve.foldin.publish_s",
    "serve.state.reloads",
}


def main() -> int:
    require_source()
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            start = time.perf_counter()
            try:
                _report, correct, attempted, failed, metrics = run_workload(
                    workload, seed=3, seconds=2.0 if workload == "train" else 5.0, trace=trace,
                    small=True,
                )
                declared = [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]
                if list(metrics) != declared:
                    raise BenchError(f"metrics {sorted(set(metrics) ^ set(declared))} differ")
                active = ACTIVE[workload] if trace else set(declared)
                idle = sorted(n for n in active if not metrics[n]["value"])
                if idle:
                    raise BenchError(f"metrics read 0: {idle}")
                if not correct or attempted < 1 or failed:
                    raise BenchError(f"correct={correct} attempted={attempted} failed={failed}")
            except BenchError as exc:
                failures += 1
                print(f"FAIL {workload} trace={int(trace)}: {exc}")
                continue
            print(f"ok   {workload} trace={int(trace)} ({time.perf_counter() - start:.1f}s, "
                  f"{attempted} operations)")
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
