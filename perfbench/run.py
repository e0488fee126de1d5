#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Workloads: ``train`` (fit, save, load), ``serve_read`` (mixed read traffic
against ``repro serve``) and ``serve_ingest`` (reads beside ``/ingest``
writes with fold-in).  ``--trace 0`` prints every end-to-end metric of
BENCHMARK.json, measured on the workload's own operation; ``--trace 1`` is
the separate traced run that prints every per-layer metric instead.  The
line before the result holds the per-operation counts, the workload's
named figures and the machine.  A failed correctness check exits 1
without a result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import sys

from common import BenchError, emit, machine, require_source, stop_resource_tracker

WORKLOADS = ("train", "serve_read", "serve_ingest")


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False):
    if name == "train":
        import train

        return train.run(seed, seconds, trace, train.SMALL if small else train.Scale())
    import serve

    return serve.run(name, seed, seconds, trace, serve.SMALL if small else serve.Scale())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_source()
        report, correct, attempted, failed, metrics = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_resource_tracker()
    report.update(seed=args.seed, seconds=args.seconds, trace=args.trace, machine=machine())
    emit(report, correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
