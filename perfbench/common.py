"""Shared harness pieces: source path, timing, spans, statistics, results.

Everything here is benchmark-side.  The program under test is reached
only through its public API (``repro.*``) and its CLI (``python -m
repro``), both taken from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median  # noqa: F401  (shared by the workloads)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"


class BenchError(Exception):
    """A failed correctness check or a broken harness step."""


def require_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` or fail.

    Without the program's source the benchmark has nothing to measure, so
    it must exit non-zero rather than pick up some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}/repro; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for ``python -m repro`` children: the checkout's src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@contextmanager
def work_dir(tag: str):
    """A fresh scratch directory inside the checkout, removed afterwards."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if this process started one,
    and wait for it to end.

    Shared-memory segments (``publish_model_shm``, the sharded trainer's
    tables) start the tracker as a child process.  Left alone it ends only
    after this process has exited, so a run would leave it behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def machine() -> dict:
    import numpy as np

    return {
        "nproc": nproc(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Spans:
    """The benchmark's own spans around each public call it makes.

    Held in memory (name, start, seconds, parent index) and summarised at
    the end; ``enabled=False`` makes :meth:`span` a plain timer so timed
    runs pay nothing for it.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[tuple[str, float, float, int | None]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        box = [0.0]
        start = time.perf_counter()
        if not self.enabled:
            try:
                yield box
            finally:
                box[0] = time.perf_counter() - start
            return
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append((name, start, 0.0, parent))
        self._stack.append(index)
        try:
            yield box
        finally:
            box[0] = time.perf_counter() - start
            self._stack.pop()
            self.records[index] = (name, start, box[0], parent)

    def seconds(self, name: str) -> list[float]:
        return [seconds for span_name, _s, seconds, _p in self.records if span_name == name]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def digest_fit(model) -> str:
    """SHA-256 over a fit's LL trace and every user's level path.

    Lets a child process prove its store fit equals the parent's in-RAM
    fit without shipping the model back.
    """
    h = hashlib.sha256()
    h.update(repr(tuple(model.trace.log_likelihoods)).encode())
    for user in sorted(model.assignments, key=repr):
        h.update(repr(user).encode())
        h.update(bytes(memoryview(model.assignments[user].astype("int64"))))
    return h.hexdigest()


def spec() -> dict:
    """``BENCHMARK.json`` at the checkout's root: metric names and units."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no {path}")
    return json.loads(path.read_text())


def result_metrics(values: dict, trace: bool) -> dict:
    """The result's ``metrics``: every metric of the run's kind, by name and unit.

    A timed run (``trace`` false) must have measured every end-to-end
    metric.  A traced run prints every per-layer metric; a layer the
    workload does not exercise did no work there and reads 0.
    """
    declared = spec()["per_layer" if trace else "end_to_end"]
    names = [entry["name"] for entry in declared]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise BenchError(f"metrics not declared in BENCHMARK.json: {unknown}")
    if not trace and len(values) != len(names):
        raise BenchError(f"end-to-end metrics not measured: {sorted(set(names) - set(values))}")
    return {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in declared
    }


def emit(report: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The detail line, then the result object as the last stdout line."""
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
