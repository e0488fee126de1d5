"""``serve_read`` and ``serve_ingest``: HTTP traffic against ``repro serve``.

The model is made the way a user makes it (``repro simulate cooking`` then
``repro fit``) and served by ``repro serve`` in its own process.  Load
comes from this process: a closed loop of two persistent connections
(``nproc`` on the reference host), each sending its next request only
after the previous answer arrived.

- ``serve_read``: both connections send the read mix — 2/3 ``/predict``,
  1/6 ``/difficulty``, 1/6 ``/recommend`` (half ``upskill``, half
  ``similar_harder``).
- ``serve_ingest``: the server runs with ``--ingest-wal``/``--data`` and a
  fold-in every 3 s; one connection posts one-event ``/ingest`` batches
  while the other sends the read mix.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import BenchError, child_env, median, percentile, result_metrics, work_dir

MB = float(1 << 20)
CONNECTIONS = 2
ENDPOINTS = ("predict", "difficulty", "upskill", "similar_harder")
#: One cycle of the read mix: 8 predict, 2 difficulty, 1 upskill, 1 similar_harder.
MIX = ("predict",) * 4 + ("difficulty", "upskill") + ("predict",) * 4 + ("difficulty", "similar_harder")
MARGIN = 0.1
TOP_K = 10


@dataclass(frozen=True)
class Scale:
    users: int = 400
    items: int = 3000
    levels: int = 4
    #: Distinct read queries, cycled through by every connection.
    pool: int = 600
    #: Full set-ups per run; ``setup_s`` is their median.
    setups: int = 3
    warmup: int = 48
    #: Seconds between fold-ins: six or so republishes per 20 s run, each
    #: followed by the lazy similarity-index rebuild (the named fault).
    foldin_every: float = 3.0
    #: One event per post keeps ingest (about 150 events/s) well inside
    #: fold-in's 1024 events per cycle, so the backlog never grows.
    ingest_batch: int = 1
    ingest_users: int = 64


SMALL = Scale(users=120, items=400, pool=96, setups=1, warmup=24, foldin_every=0.3)


# ------------------------------------------------------------------ server


class Server:
    """``python -m repro serve`` in its own process, on an ephemeral port."""

    def __init__(self, work: Path, model: Path, extra: list[str]) -> None:
        self.out = work / "server.out"
        self.err = work / "server.err"
        with self.out.open("w") as out, self.err.open("w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(model), "--port", "0", *extra],
                stdout=out,
                stderr=err,
                env=child_env(),
                cwd=work,
            )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            for line in self.out.read_text().splitlines():
                if " on http://" in line:
                    return int(line.split(" on http://", 1)[1].split()[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise BenchError(f"server did not start:\n{self.err.read_text()[-2000:]}")

    def cpu_seconds(self) -> float:
        """User+system CPU of the server process, from /proc/<pid>/stat."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmRSS in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _cli(*args: str, cwd: Path) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"repro {args[0]} failed:\n{proc.stderr[-2000:]}")


class Client:
    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def get_json(self, path: str) -> dict:
        status, body = self.call("GET", path)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()


# ----------------------------------------------------------------- queries


def _query_pool(seed: int, scale: Scale, log, items: list) -> list[tuple[str, dict]]:
    """``scale.pool`` read queries in mix order, drawn from the seed."""
    rng = np.random.default_rng([seed, 7])
    users = list(log.users)
    pool = []
    for position in range(scale.pool):
        kind = MIX[position % len(MIX)]
        user = users[int(rng.integers(len(users)))]
        times = log.sequence(user).times
        if kind == "predict":
            body = {
                "user": user,
                "time": float(times[int(rng.integers(len(times)))]),
                "k": TOP_K,
                "item": items[int(rng.integers(len(items)))],
            }
        elif kind == "difficulty":
            picks = rng.choice(len(items), size=8, replace=False)
            body = {
                "items": [items[int(i)] for i in picks],
                "prior": ("uniform", "empirical")[position % 2],
            }
        elif kind == "upskill":
            picks = rng.choice(len(items), size=3, replace=False)
            body = {"mode": "upskill", "user": user, "k": TOP_K,
                    "exclude": [items[int(i)] for i in picks]}
            if position % 2:
                body["time"] = float(times[-1])
        else:
            body = {"mode": "similar_harder", "item": items[int(rng.integers(len(items)))],
                    "k": TOP_K, "margin": MARGIN}
        pool.append((kind, body))
    return pool


def _path(kind: str) -> str:
    return {"predict": "/predict", "difficulty": "/difficulty"}.get(kind, "/recommend")


class Library:
    """The same queries answered in-process on the loaded artifact."""

    def __init__(self, prefix: Path) -> None:
        from repro.core.difficulty import generation_difficulty
        from repro.core.serialize import load_model
        from repro.recsys.similarity import build_similarity_index
        from repro.recsys.upskill import UpskillConfig, UpskillRecommender

        self.model = load_model(prefix)
        self.difficulties = {
            prior: generation_difficulty(self.model, prior=prior)
            for prior in ("uniform", "empirical")
        }
        # The serve defaults: window (-0.25, 0.75], interest weight 0.5,
        # decay 2, no exclude_seen (clients send `exclude`).
        self.recommender = UpskillRecommender(
            self.model,
            self.difficulties["empirical"],
            UpskillConfig(window_low=-0.25, window_high=0.75, interest_weight=0.5,
                          decay=2.0, exclude_seen=False),
        )
        start = time.perf_counter()
        self.index = build_similarity_index(self.model)
        self.build_s = time.perf_counter() - start
        self.items = set(self.model.encoded.item_ids)
        self.kernel_us: dict[str, list[float]] = {kind: [] for kind in ENDPOINTS}

    def ties(self, level: int, item) -> tuple[int, int]:
        """(items strictly more probable, items equally probable) at ``level``."""
        probabilities = self.model.item_probabilities(level)
        vocab = self.model.encoded.vocabulary("__item_id__")
        p = probabilities[list(vocab).index(item)]
        return int((probabilities > p).sum()), int((probabilities == p).sum())

    def answer(self, kind: str, q: dict) -> dict:
        """The expected response body (without ``model_version``); the
        kernel call itself is timed into ``kernel_us``."""
        from repro.core.difficulty import difficulty_array
        from repro.data.actions import Action
        from repro.data.splits import HeldOutAction
        from repro.recsys.ranking import predict_items
        from repro.recsys.similarity import similar_harder
        from repro.recsys.upskill import RecommendQuery

        model = self.model
        if kind == "predict":
            level = model.skill_at(q["user"], q["time"])
            held = [HeldOutAction(Action(time=q["time"], user=q["user"], item=q["item"]), 0, 1)]
            start = time.perf_counter()
            rank = float(predict_items(model, held).ranks[0])
            self.kernel_us[kind].append((time.perf_counter() - start) * 1e6)
            return {
                "user": q["user"], "time": q["time"], "level": level,
                "top": [{"item": i, "probability": p} for i, p in model.top_items(level, q["k"])],
                "item": q["item"], "rank": rank, "reciprocal_rank": 1.0 / rank,
            }
        if kind == "difficulty":
            start = time.perf_counter()
            values = difficulty_array(self.difficulties[q["prior"]], q["items"])
            self.kernel_us[kind].append((time.perf_counter() - start) * 1e6)
            return {"prior": q["prior"], "items": q["items"],
                    "difficulties": [float(v) for v in values]}
        if kind == "upskill":
            time_ = q.get("time")
            level = (model.skill_at(q["user"], time_) if time_ is not None
                     else int(model.skill_trajectory(q["user"])[-1]))
            query = RecommendQuery(level=level, k=q["k"], exclude=frozenset(q["exclude"]))
            start = time.perf_counter()
            (recs,) = self.recommender.recommend_batch([query])
            self.kernel_us[kind].append((time.perf_counter() - start) * 1e6)
            return {
                "mode": "upskill", "user": q["user"], "time": time_, "level": level,
                "recommendations": [
                    {"item": r.item, "score": r.score, "difficulty": r.difficulty,
                     "challenge_fit": r.challenge_fit, "interest": r.interest}
                    for r in recs
                ],
            }
        start = time.perf_counter()
        similars = similar_harder(self.index, self.recommender.difficulty_vector, q["item"],
                                  k=q["k"], margin=q["margin"])
        self.kernel_us[kind].append((time.perf_counter() - start) * 1e6)
        return {
            "mode": "similar_harder", "item": q["item"], "margin": q["margin"],
            "recommendations": [
                {"item": s.item, "similarity": s.similarity, "difficulty": s.difficulty}
                for s in similars
            ],
        }


def _check_properties(kind: str, q: dict, body: dict, levels: int, items: set,
                      num_items: int, anchor_difficulty: float | None = None,
                      ties: tuple[int, int] | None = None) -> None:
    """Properties of the method every answer must have, whatever the model.

    ``anchor_difficulty`` (similar_harder) and ``ties`` (predict: items
    strictly more and equally probable at the answer's level) need the
    served model; they are checked when it is known.
    """
    def fail(why: str):
        raise BenchError(f"{kind} {json.dumps(q)}: {why}")

    if kind == "predict":
        if not 1 <= body["level"] <= levels:
            fail(f"level {body['level']} outside 1..{levels}")
        top = [entry["item"] for entry in body["top"]]
        probabilities = [entry["probability"] for entry in body["top"]]
        if len(top) > q["k"] or not set(top) <= items:
            fail("top-k has unknown items or more than k")
        if any(b > a for a, b in zip(probabilities, probabilities[1:])):
            fail("top-k probabilities increase")
        if not 1 <= body["rank"] <= num_items:
            fail(f"rank {body['rank']} outside [1, {num_items}]")
        if ties is not None:
            # Mid-rank = higher + (ties + 1) / 2, so an item tied across the
            # k-th place can be listed with a rank above k.  Without ties
            # this is exactly "rank <= k iff the item is in the top-k".
            higher, tied = ties
            if body["rank"] != higher + (tied + 1) / 2.0:
                fail(f"rank {body['rank']} is not the mid-rank of its probability")
            if (q["item"] in top and higher >= q["k"]) or (
                q["item"] not in top and higher + tied <= q["k"]
            ):
                fail(f"rank {body['rank']} disagrees with top-{q['k']} membership")
    elif kind == "difficulty":
        values = body["difficulties"]
        if len(values) != len(q["items"]) or not all(1.0 <= v <= levels for v in values):
            fail(f"difficulties {values} not in [1, {levels}]")
    else:
        recs = [entry["item"] for entry in body["recommendations"]]
        if len(recs) > q["k"] or len(set(recs)) != len(recs) or not set(recs) <= items:
            fail("recommendations unknown, repeated or more than k")
        if kind == "upskill" and set(recs) & set(q["exclude"]):
            fail("an excluded item was recommended")
        if kind == "similar_harder":
            sims = [entry["similarity"] for entry in body["recommendations"]]
            if any(b > a for a, b in zip(sims, sims[1:])):
                fail("similarities increase")
            if q["item"] in recs:
                fail("the anchor recommended itself")
            if anchor_difficulty is not None and any(
                entry["difficulty"] < anchor_difficulty + q["margin"]
                for entry in body["recommendations"]
            ):
                fail("an item is not margin harder than the anchor")


# --------------------------------------------------------------- load loop


def _model_version(data: bytes) -> int:
    """The ``model_version`` of a read answer, without parsing the body."""
    at = data.rfind(b'"model_version": ')
    if at < 0:
        return -1
    at += len(b'"model_version": ')
    end = at
    while end < len(data) and data[end:end + 1].isdigit():
        end += 1
    return int(data[at:end]) if end > at else -1


def _cycles(reads: list[tuple[float, int]], done: list[float]) -> list[tuple[float, int]]:
    """(seconds, operations completed) of each whole model-version cycle.

    A cycle runs from the sending of the first read answered by one model
    version to the sending of the first read answered by the next.  The
    stall that follows a hot reload (the similarity-index rebuild) starts
    inside the first request of its version, or later, so each cycle holds
    exactly one.  ``reads`` are (send time, model version) pairs; ``done``
    is the completion time of every operation, reads and ingest posts alike.
    """
    starts = []
    last = None
    for when, version in sorted(reads):
        if version != last:
            starts.append(when)
            last = version
    ordered = np.sort(np.asarray(done))
    return [
        (end - begin, int(np.searchsorted(ordered, end) - np.searchsorted(ordered, begin)))
        for begin, end in zip(starts[1:], starts[2:])
    ]


class ReadLoop:
    """One closed-loop connection cycling through the query pool."""

    def __init__(self, port: int, pool: list, offset: int, deadline: float) -> None:
        self.client = Client(port)
        self.pool = [(kind, _path(kind), json.dumps(body).encode()) for kind, body in pool]
        self.offset = offset
        self.deadline = deadline
        self.latencies: list[float] = []
        self.done: list[float] = []
        self.versions: list[int] = []
        self.bodies: dict[int, set[bytes]] = {}
        self.bad: list[tuple[int, int]] = []
        self.counts = dict.fromkeys(ENDPOINTS, 0)
        self.error: Exception | None = None
        self.finished = 0.0

    def __call__(self) -> None:
        try:
            position = self.offset
            n = len(self.pool)
            while time.perf_counter() < self.deadline:
                index = position % n
                kind, path, body = self.pool[index]
                start = time.perf_counter()
                status, data = self.client.call("POST", path, body)
                done = time.perf_counter()
                self.latencies.append(done - start)
                self.done.append(done)
                self.versions.append(_model_version(data))
                self.counts[kind] += 1
                if status != 200:
                    self.bad.append((index, status))
                self.bodies.setdefault(index, set()).add(data)
                position += 1
            self.finished = time.perf_counter()
        except Exception as exc:  # surfaced by the caller after join
            self.error = exc
        finally:
            self.client.close()


class IngestLoop:
    """One closed-loop connection posting event batches."""

    def __init__(self, port: int, seed: int, scale: Scale, log, items: list,
                 deadline: float) -> None:
        self.client = Client(port)
        rng = np.random.default_rng([seed, 11])
        users = list(log.users)
        picks = rng.choice(len(users), size=min(scale.ingest_users, len(users)), replace=False)
        self.users = [users[int(i)] for i in picks]
        self.next_time = {u: float(log.sequence(u).times[-1]) + 1.0 for u in self.users}
        self.rng = rng
        self.items = items
        self.batch = scale.ingest_batch
        self.deadline = deadline
        self.sent: dict = {}
        self.events = 0
        self.batches = 0
        self.latencies: list[float] = []
        self.done: list[float] = []
        self.bad: list[str] = []
        self.error: Exception | None = None
        self.finished = 0.0

    def post_one(self) -> None:
        events = []
        for _ in range(self.batch):
            user = self.users[int(self.rng.integers(len(self.users)))]
            events.append({"user": user, "item": self.items[int(self.rng.integers(len(self.items)))],
                           "time": self.next_time[user]})
            self.next_time[user] += 1.0
        body = json.dumps({"events": events}).encode()
        start = time.perf_counter()
        status, data = self.client.call("POST", "/ingest", body)
        done = time.perf_counter()
        self.latencies.append(done - start)
        self.done.append(done)
        self.batches += 1
        answer = json.loads(data) if status == 200 else {}
        if status != 200 or answer.get("accepted") != len(events) or answer.get("durable") is not True:
            self.bad.append(f"{status} {data[:200]!r}")
            return
        self.events += len(events)
        for event in events:
            self.sent[event["user"]] = self.sent.get(event["user"], 0) + 1

    def __call__(self) -> None:
        try:
            while time.perf_counter() < self.deadline:
                self.post_one()
            self.finished = time.perf_counter()
        except Exception as exc:  # surfaced by the caller after join
            self.error = exc
        finally:
            self.client.close()


def _delta(before: dict, after: dict, kind: str, name: str, field: str | None = None) -> float:
    a = after[kind].get(name, {} if field else 0)
    b = before[kind].get(name, {} if field else 0)
    if field is None:
        return float(a) - float(b)
    return float(a.get(field, 0.0)) - float(b.get(field, 0.0))


def _hist_mean(before: dict, after: dict, name: str) -> float:
    count = _delta(before, after, "histograms", name, "count")
    return _delta(before, after, "histograms", name, "total") / count if count else 0.0


def _phase(server: Server, pool: list, seconds: float, ingest: IngestLoop | None) -> dict:
    """One timed phase of closed-loop load; returns its raw observations."""
    admin = Client(server.port)
    before = admin.get_json("/metrics")
    cpu_before = server.cpu_seconds()
    loadgen_before = time.process_time()
    wall_start = time.time()
    start = time.perf_counter()
    deadline = start + seconds
    readers = CONNECTIONS - (1 if ingest is not None else 0)
    loops = [ReadLoop(server.port, pool, i * len(pool) // CONNECTIONS, deadline)
             for i in range(readers)]
    if ingest is not None:
        ingest.deadline = deadline
    workers = [threading.Thread(target=loop) for loop in loops]
    if ingest is not None:
        workers.append(threading.Thread(target=ingest))
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    for loop in [*loops, *([ingest] if ingest is not None else [])]:
        if loop.error is not None:
            raise BenchError(f"load loop failed: {loop.error!r}")
    end = max(loop.finished for loop in [*loops, *([ingest] if ingest else [])])
    elapsed = end - start
    window = (wall_start, time.time())
    loadgen_cpu = time.process_time() - loadgen_before
    cpu = server.cpu_seconds() - cpu_before
    rss = server.rss_mb()
    after = admin.get_json("/metrics")
    admin.close()
    latencies = [x for loop in loops for x in loop.latencies]
    requests = len(latencies) + (ingest.batches if ingest else 0)
    reads = [
        (done - latency, version)
        for loop in loops
        for done, latency, version in zip(loop.done, loop.latencies, loop.versions)
    ]
    done = [when for loop in loops for when in loop.done] + (list(ingest.done) if ingest else [])
    counts = {kind: sum(loop.counts[kind] for loop in loops) for kind in ENDPOINTS}
    bodies: dict[int, set[bytes]] = {}
    for loop in loops:
        for index, seen in loop.bodies.items():
            bodies.setdefault(index, set()).update(seen)
    per_second = np.bincount(((np.asarray(done) - start) // 1.0).astype(np.int64))
    return {
        "elapsed": elapsed,
        "per_second": per_second.tolist(),
        "window": window,
        "cycles": _cycles(reads, done),
        "reads": len(latencies),
        "latencies": latencies,
        "counts": counts,
        "bad": [b for loop in loops for b in loop.bad],
        "bodies": bodies,
        "server_cpu": cpu,
        "loadgen_cpu": loadgen_cpu,
        "requests": requests,
        "rss_mb": rss,
        "before": before,
        "after": after,
    }


# ------------------------------------------------------------------ set-up


def _set_up(work: Path, seed: int, scale: Scale, ingest: bool, trace_out: Path | None) -> Server:
    """``repro simulate`` → ``repro fit`` → ``repro serve``, all under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    data = work / "cook"
    model = work / "model"
    _cli("simulate", "cooking", "--out", str(data), "--users", str(scale.users),
         "--items", str(scale.items), "--seed", str(seed), cwd=work)
    _cli("fit", str(data), "--levels", str(scale.levels), "--model", str(model), cwd=work)
    return _start(work, scale, ingest, data, model, trace_out)


def _start(work: Path, scale: Scale, ingest: bool, data: Path, model: Path,
           trace_out: Path | None) -> Server:
    extra: list[str] = []
    if ingest:
        extra += ["--ingest-wal", str(work / "wal"), "--data", str(data),
                  "--foldin-every", str(scale.foldin_every)]
    if trace_out is not None:
        extra += ["--trace-out", str(trace_out), "--trace-sample", "1.0"]
    return Server(work, model, extra)


def _warm_up(server: Server, pool: list, count: int) -> None:
    """Every read kind, so the lazy similarity-index build lands here."""
    client = Client(server.port)
    try:
        for kind, body in pool[:count]:
            status, data = client.call("POST", _path(kind), json.dumps(body).encode())
            if status != 200:
                raise BenchError(f"warm-up {kind} answered {status}: {data[:200]!r}")
    finally:
        client.close()


def _drain(server: Server, expected: int, timeout: float = 60.0) -> dict:
    """Wait until fold-in has applied every acked event; return /healthz."""
    client = Client(server.port)
    try:
        deadline = time.monotonic() + timeout
        while True:
            health = client.get_json("/healthz")
            foldin = health.get("foldin", {})
            if foldin.get("watermark_seq", -1) >= expected and foldin.get("pending_events") == 0:
                return health
            if time.monotonic() > deadline:
                raise BenchError(f"fold-in did not drain {expected} events: {health}")
            time.sleep(0.1)
    finally:
        client.close()


# --------------------------------------------------------------------- run


def _verify_reads(phase: dict, pool: list, library: Library, exact: bool, levels: int) -> None:
    if phase["bad"]:
        index, status = phase["bad"][0]
        raise BenchError(f"{len(phase['bad'])} read(s) failed, e.g. {pool[index]} -> {status}")
    items = library.items
    for index, seen in phase["bodies"].items():
        kind, q = pool[index]
        expected = library.answer(kind, q) if exact else None
        anchor = ties = None
        if exact and kind == "similar_harder":
            anchor = float(library.recommender.difficulty_vector[library.index.position(q["item"])])
        if exact and kind == "predict":
            ties = library.ties(expected["level"], q["item"])
        for raw in seen:
            body = json.loads(raw)
            version = body.pop("model_version")
            _check_properties(kind, q, body, levels, items, len(items), anchor, ties)
            if exact and (version != 1 or body != expected):
                raise BenchError(f"{kind} {q}: server answered {body}, library {expected}")


def _trace_summary(spans: Path, work: Path, window: tuple[float, float]) -> tuple[dict, float]:
    """``repro trace --json`` stages of the spans that started inside the
    timed phase, and the mean self time of its ``serve.request`` spans
    (duration minus the time their child spans cover)."""
    with spans.open() as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    records = [r for r in records if window[0] <= float(r["ts"]) <= window[1]]
    timed = work / "spans.timed.jsonl"
    timed.write_text("".join(json.dumps(r) + "\n" for r in records))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "trace", str(timed), "--json"],
        cwd=work, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"repro trace failed:\n{proc.stderr[-2000:]}")
    stages = json.loads(proc.stdout)["stages"]
    roots: dict[str, float] = {}
    covered: dict[str, float] = {}
    for record in records:
        if record["name"] == "serve.request":
            roots[record["span"]] = float(record["ms"])
    for record in records:
        parent = record.get("parent")
        if parent in roots:
            covered[parent] = covered.get(parent, 0.0) + float(record["ms"])
    selfs = [max(0.0, ms - covered.get(span, 0.0)) for span, ms in roots.items()]
    return stages, (sum(selfs) / len(selfs) if selfs else 0.0)


def _ops_per_s(phase: dict, ingest: bool) -> float:
    """Completed operations per second.

    Without ingest the model never changes, so this is the timed phase's
    count over its length.  With ingest, every fold-in republish stalls
    the server for a while, and how many stalls land inside a fixed-length
    phase varies by one from run to run; so the rate is taken over whole
    republish cycles instead, each of which holds exactly one.
    """
    if not ingest:
        return phase["requests"] / phase["elapsed"]
    cycles = phase["cycles"]
    if len(cycles) < 2:
        raise BenchError(f"only {len(cycles)} whole fold-in cycles in the timed phase")
    return sum(n for _s, n in cycles) / sum(s for s, _n in cycles)


def _stage_ms(stages: dict, name: str, field: str = "mean_ms") -> float:
    return float(stages.get(name, {}).get(field, 0.0))


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale = Scale()):
    from repro.data.io import load_log

    ingest = workload == "serve_ingest"
    server = None
    with work_dir(workload) as work:
        try:
            setup_s = []
            for attempt in range(scale.setups):
                if server is not None:
                    server.stop()
                start = time.perf_counter()
                home = work / f"setup{attempt}"
                server = _set_up(home, seed, scale, ingest,
                                 home / "spans.jsonl" if trace and ingest else None)
                data, model_prefix = home / "cook", home / "model"
                log = load_log(Path(str(data) + ".log.jsonl"))
                items = [item.id for item in _catalog(data)]
                pool = _query_pool(seed, scale, log, items)
                _warm_up(server, pool, scale.warmup)
                setup_s.append(time.perf_counter() - start)
            base = Library(model_prefix)

            loop = IngestLoop(server.port, seed, scale, log, items, 0.0) if ingest else None
            if loop is not None:
                loop.post_one()  # warm the WAL path; counted in the drain checks
                if loop.bad:
                    raise BenchError(f"warm-up ingest failed: {loop.bad[0]}")
                loop.batches = 0
                loop.latencies.clear()
                loop.done.clear()
                warm_events = loop.events
                loop.events = 0
            phase_seconds = seconds / 2 if trace and not ingest else seconds
            phase = _phase(server, pool, phase_seconds, loop)

            health = None
            final_lengths = None
            if loop is not None:
                if loop.bad:
                    raise BenchError(f"{len(loop.bad)} ingest(s) not acked, e.g. {loop.bad[0]}")
                total = loop.events + warm_events
                health = _drain(server, total)
                if health["ingest"]["durable_seq"] != total:
                    raise BenchError(f"WAL durable_seq {health['ingest']['durable_seq']} != {total} sent")
                if health["foldin"]["events_applied"] != total:
                    raise BenchError(f"fold-in applied {health['foldin']['events_applied']} of {total}")
                if health["foldin"]["events_dropped"] != 0:
                    raise BenchError(f"fold-in dropped {health['foldin']['events_dropped']} events")
                from repro.core.serialize import load_model

                final = load_model(model_prefix)
                for user, path in base.model.assignments.items():
                    grown = len(final.assignments[user]) - len(path)
                    if grown != loop.sent.get(user, 0):
                        raise BenchError(
                            f"user {user!r} grew by {grown}, sent {loop.sent.get(user, 0)}"
                        )
                final_lengths = len(final.assignments)

            traced = None
            if trace and not ingest:
                server.stop()
                spans = work / "spans.jsonl"
                server = _start(home, scale, False, data, model_prefix, spans)
                _warm_up(server, pool, scale.warmup)
                traced = _phase(server, pool, seconds / 2, None)
                _verify_reads(traced, pool, base, True, scale.levels)
            server.stop()
            _verify_reads(phase, pool, base, not ingest, scale.levels)
            stages, request_self_ms = ({}, 0.0)
            if trace:
                spans = work / "spans.jsonl" if not ingest else home / "spans.jsonl"
                window = (traced or phase)["window"]
                stages, request_self_ms = _trace_summary(spans, work, window)
        finally:
            if server is not None:
                server.stop()

    read_ms = [x * 1000.0 for x in phase["latencies"]]
    ingest_ms = [x * 1000.0 for x in loop.latencies] if loop is not None else []
    counts = dict(phase["counts"])
    operations = {kind: {"attempted": n, "failed": 0} for kind, n in counts.items()}
    attempted = phase["reads"]
    report = {
        "workload": workload,
        "operations": operations,
        "elapsed_s": phase["elapsed"],
        "completed_per_second": phase["per_second"],
        "figures": {
            "read_rps": phase["reads"] / phase["elapsed"],
            "read_p50_ms": percentile(read_ms, 50),
            "read_p99_ms": percentile(read_ms, 99),
            "server_rss_mb": phase["rss_mb"],
        },
    }
    if loop is not None:
        operations["ingest"] = {"attempted": loop.batches, "failed": 0}
        attempted += loop.batches
        report["ingest_events"] = loop.events
        report["figures"]["ingest_events_per_s"] = loop.events / phase["elapsed"]
        report["figures"]["ingest_p50_ms"] = percentile(ingest_ms, 50)
        report["fold_cycles"] = [[round(s, 3), n] for s, n in phase["cycles"]]
        report["final_users"] = final_lengths
        report["foldin"] = health["foldin"]
    before, after = phase["before"], phase["after"]
    if not trace:
        values = {
            "setup_s": median(setup_s),
            "op_p50_ms": percentile(read_ms + ingest_ms, 50),
            "ops_per_s": _ops_per_s(phase, ingest),
            "rss_mb": phase["rss_mb"],
        }
        return report, True, attempted, 0, result_metrics(values, trace)

    for kind, q in pool:
        base.answer(kind, q)  # times each kernel on every query of the mix
    values = {
        "recsys.ranking.predict_us": median(base.kernel_us["predict"]),
        "core.difficulty.difficulty_us": median(base.kernel_us["difficulty"]),
        "recsys.upskill.recommend_us": median(base.kernel_us["upskill"]),
        "recsys.similarity.similar_harder_us": median(base.kernel_us["similar_harder"]),
        "recsys.similarity.build_s": base.build_s,
        "serve.server.request_self_ms": request_self_ms,
        "serve.server.serialize_ms": _stage_ms(stages, "serve.serialize"),
        "serve.server.cpu_ms_per_req": 1000.0 * phase["server_cpu"] / phase["requests"],
        "serve.recommend.resolve_ms": _stage_ms(stages, "serve.recommend.resolve"),
        "serve.recommend.index_builds": after["counters"].get("serve.recommend.index_builds", 0),
        "serve.batcher.queue_ms": _stage_ms(stages, "serve.batch.queue"),
        "serve.batcher.flush_ms": _stage_ms(stages, "serve.batch.flush"),
        "serve.batcher.flush_max_ms": _stage_ms(stages, "serve.batch.flush", "max_ms"),
        "serve.batcher.batch_size": _hist_mean(before, after, "serve.batch_size"),
        "loadgen.cpu_ms_per_req": 1000.0 * phase["loadgen_cpu"] / phase["requests"],
    }
    if not ingest:
        traced_rps = traced["reads"] / traced["elapsed"]
        read_rps = phase["reads"] / phase["elapsed"]
        values["obs.trace.overhead_pct"] = 100.0 * (read_rps - traced_rps) / read_rps
        report["traced_read_rps"] = traced_rps
    else:
        values.update({
            "serve.ingest.append_ms": 1000.0 * _hist_mean(before, after, "ingest.append_seconds"),
            "serve.ingest.batches": _delta(before, after, "counters", "ingest.batches"),
            "serve.foldin.folds": _delta(before, after, "counters", "foldin.folds"),
            "serve.foldin.fold_s": _hist_mean(before, after, "foldin.fold_seconds"),
            "serve.foldin.extend_s": _stage_ms(stages, "foldin.extend") / 1000.0,
            "serve.foldin.publish_s": _stage_ms(stages, "foldin.publish") / 1000.0,
            "serve.state.reloads": _delta(before, after, "counters", "serve.reloads"),
        })
    report["trace_stages"] = {name: stages[name]["mean_ms"] for name in stages}
    return report, True, attempted, 0, result_metrics(values, trace)


def _catalog(data: Path):
    from repro.data.io import load_catalog

    return load_catalog(Path(str(data) + ".catalog.jsonl"))
