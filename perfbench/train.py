"""``train``: fit the progression model on the paper's synthetic recipe,
in RAM and out of core, then save and load the artifact.

Set-up streams Section VI-A's generator into an out-of-core
``ActionStore`` and builds its in-RAM twin with ``ActionStore.to_log()``.
Each timed round makes four calls: an in-RAM ``fit_skill_model``, the
same call on the store (routed to the sharded trainer), ``save_model``
and ``load_model``.  After the rounds, one more store fit runs in a fresh
child process so the peak RSS it reports is the store fit's own, apart
from the set-up that built the in-RAM twin.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import BenchError, Spans, child_env, digest_fit, median, result_metrics

FIT_CHILD = Path(__file__).resolve().parent / "fit_store.py"
MB = float(1 << 20)


@dataclass(frozen=True)
class Scale:
    #: 5k users x 50 actions keeps a round near 4 s, so a run takes the
    #: median of several rounds; the per-user artifact layout still makes
    #: save and load cost more than the fit at this size.
    users: int = 5_000
    items: int = 5_000
    levels: int = 5
    mean_length: float = 50.0
    #: Fixed, so every seed does the same work (the fit never converges
    #: before it at this scale).
    iterations: int = 10
    init_min_actions: int = 20
    users_per_shard: int = 4096
    setups: int = 3
    #: Floor on Spearman(generation difficulty, generator's true level).
    spearman_floor: float = 0.90


SMALL = Scale(users=600, items=500, iterations=5, setups=1, spearman_floor=0.5)


def _rank(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share their mean rank)."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_values = values[order]
    start = 0
    while start < len(values):
        stop = start
        while stop + 1 < len(values) and sorted_values[stop + 1] == sorted_values[start]:
            stop += 1
        ranks[order[start : stop + 1]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


def spearman(a, b) -> float:
    ra, rb = _rank(np.asarray(a, dtype=np.float64)), _rank(np.asarray(b, dtype=np.float64))
    return float(np.corrcoef(ra, rb)[0, 1])


def _set_up(work: Path, seed: int, scale: Scale, spans: Spans):
    """Generate the corpus into a store, write catalog/schema for the child
    fit, and build the in-RAM twin.  Returns (generated, log, to_log seconds)."""
    from repro.data.io import save_catalog
    from repro.synth import SyntheticConfig, generate_synthetic_store

    config = SyntheticConfig(
        num_users=scale.users,
        num_items=scale.items,
        num_levels=scale.levels,
        mean_sequence_length=scale.mean_length,
        seed=seed,
    )
    store_path = work / "corpus.store"
    if store_path.exists():
        import shutil

        shutil.rmtree(store_path)
    with spans.span("repro.synth.generate_synthetic_store"):
        generated = generate_synthetic_store(
            config, store_path, users_per_shard=scale.users_per_shard
        )
    save_catalog(generated.catalog, work / "catalog.jsonl")
    (work / "schema.json").write_text(json.dumps(generated.feature_set.to_json()))
    with spans.span("repro.data.store.ActionStore.to_log") as to_log:
        log = generated.store.to_log()
    return generated, log, to_log[0]


def _fit_kwargs(scale: Scale) -> dict:
    return {"max_iterations": scale.iterations, "init_min_actions": scale.init_min_actions}


def _store_fit_in_child(work: Path, scale: Scale, spans: Spans) -> dict:
    """Run the store fit in a fresh interpreter; its JSON answer on stdout."""
    with spans.span("repro.fit_skill_model[ActionStore, fresh process]"):
        proc = subprocess.run(
            [sys.executable, str(FIT_CHILD), str(work), json.dumps(
                {"levels": scale.levels, **_fit_kwargs(scale)}
            )],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=150,
        )
    if proc.returncode != 0:
        raise BenchError(f"store fit child failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _held_out(log, count: int, rng: np.random.Generator):
    from repro.data.splits import HeldOutAction

    users = log.users
    picks = rng.choice(len(users), size=min(count, len(users)), replace=False)
    held = []
    for index in picks:
        sequence = log.sequence(users[int(index)])
        position = int(rng.integers(len(sequence)))
        held.append(HeldOutAction(sequence[position], position, len(sequence)))
    return held


def _same_model(a, b, held, what: str) -> None:
    """Arrays and answers of two reconstructions of one fit must agree."""
    from repro.recsys.ranking import predict_items

    if digest_fit(a) != digest_fit(b):
        raise BenchError(f"{what}: LL trace or assignments differ")
    for user in a.assignments:
        if not np.array_equal(a.skill_trajectory(user), b.skill_trajectory(user)):
            raise BenchError(f"{what}: level path of {user!r} differs")
    if tuple(a.encoded.item_ids) != tuple(b.encoded.item_ids):
        raise BenchError(f"{what}: item ids differ")
    for fa, fb in zip(a.encoded.columns, b.encoded.columns):
        if not np.array_equal(fa, fb):
            raise BenchError(f"{what}: encoded feature columns differ")
    if not np.array_equal(a.item_score_table(), b.item_score_table()):
        raise BenchError(f"{what}: per-level item score tables differ")
    if not np.array_equal(predict_items(a, held).ranks, predict_items(b, held).ranks):
        raise BenchError(f"{what}: predict_items answers differ")


def _check_fit(model, scale: Scale) -> None:
    ll = model.trace.log_likelihoods
    if len(ll) != scale.iterations:
        raise BenchError(f"expected {scale.iterations} iterations, got {len(ll)}")
    for before, after in zip(ll, ll[1:]):
        if after < before - 1e-9 * abs(before):
            raise BenchError(f"log-likelihood decreased: {before} -> {after}")
    for user, path in model.assignments.items():
        if len(path) and (path[0] < 1 or path[-1] > scale.levels or np.any(np.diff(path) < 0)):
            raise BenchError(f"level path of user {user!r} is not monotone within 1..S")


def run(seed: int, seconds: float, trace: bool, scale: Scale = Scale()):
    from repro.core.difficulty import generation_difficulty
    from repro.core.serialize import (
        attach_model_shm,
        load_model,
        publish_model_shm,
        save_model,
    )
    from repro.core.training import fit_skill_model

    from common import work_dir

    spans = Spans(trace)
    ops = {"fit": 0, "fit_store": 0, "save": 0, "load": 0}
    with work_dir("train") as work:
        setup_s, to_log_s = [], []
        for _ in range(scale.setups):
            log = generated = None  # drop the previous twin before rebuilding
            start = time.perf_counter()
            generated, log, seconds_to_log = _set_up(work, seed, scale, spans)
            # Warm-up: one iteration in RAM and one from the store pull in
            # every lazily imported training module before the timed fits.
            for data in (log, generated.store):
                fit_skill_model(
                    data, generated.catalog, generated.feature_set, scale.levels,
                    max_iterations=1, init_min_actions=scale.init_min_actions,
                )
            setup_s.append(time.perf_counter() - start)
            to_log_s.append(seconds_to_log)
        # The in-RAM twin lives as long as the run; keep the collector from
        # rescanning the harness's own long-lived objects inside timed calls.
        gc.collect()
        gc.freeze()

        rounds: list[dict] = []
        prefix = work / "model"
        t0 = time.perf_counter()
        while True:
            row: dict = {}
            with spans.span("repro.fit_skill_model[ActionLog]") as box:
                model = fit_skill_model(
                    log, generated.catalog, generated.feature_set, scale.levels,
                    **_fit_kwargs(scale),
                )
            row["fit_s"] = box[0]
            ops["fit"] += 1
            with spans.span("repro.fit_skill_model[ActionStore]") as box:
                store_model = fit_skill_model(
                    generated.store, generated.catalog, generated.feature_set, scale.levels,
                    **_fit_kwargs(scale),
                )
            row["fit_store_s"] = box[0]
            ops["fit_store"] += 1
            with spans.span("repro.core.serialize.save_model") as box:
                save_model(model, prefix)
            row["save_s"] = box[0]
            ops["save"] += 1
            with spans.span("repro.core.serialize.load_model") as box:
                loaded = load_model(prefix)
            row["load_s"] = box[0]
            ops["load"] += 1
            if digest_fit(store_model) != digest_fit(model):
                raise BenchError("in-RAM and store fits disagree (LL trace or assignments)")
            row["stages"] = dict(model.telemetry.stage_seconds)
            row["store_stages"] = dict(store_model.telemetry.stage_seconds)
            rounds.append(row)
            elapsed = time.perf_counter() - t0
            per_round = elapsed / len(rounds)
            if elapsed + per_round > seconds:
                break
        # Peak RSS of a store fit alone: the same call in a fresh process.
        child = _store_fit_in_child(work, scale, spans)
        ops["fit_store"] += 1
        if child["digest"] != digest_fit(model):
            raise BenchError("store fit in a fresh process disagrees with the in-RAM fit")

        # Correctness of the last round's outputs (untimed).
        _check_fit(model, scale)
        estimates = generation_difficulty(model)
        items = list(estimates)
        rho = spearman(
            [estimates[i] for i in items], [generated.true_difficulty[i] for i in items]
        )
        if not rho > scale.spearman_floor:
            raise BenchError(
                f"Spearman(difficulty, true) = {rho:.3f} <= floor {scale.spearman_floor}"
            )
        held = _held_out(log, 256, np.random.default_rng(seed))
        _same_model(model, loaded, held, "load_model(save_model(m))")
        with spans.span("repro.core.serialize.publish_model_shm") as box:
            segment, descriptor = publish_model_shm(model)
        publish_s = box[0]
        try:
            with spans.span("repro.core.serialize.attach_model_shm") as box:
                attached, mapping = attach_model_shm(descriptor)
            attach_s = box[0]
            try:
                _same_model(model, attached, held, "attach_model_shm(publish_model_shm(m))")
            finally:
                del attached
                mapping.close()
        finally:
            segment.close()
            segment.unlink()

        json_path, npz_path = prefix.with_suffix(".json"), prefix.with_suffix(".npz")
        artifact_mb = (json_path.stat().st_size + npz_path.stat().st_size) / MB
        with np.load(npz_path) as npz:
            arrays = len(npz.files)

    def med(key):
        return median(row[key] for row in rounds)

    def stage(key, which="stages"):
        return median(row[which].get(key, 0.0) for row in rounds)

    phases = ("fit_s", "fit_store_s", "save_s", "load_s")
    report = {
        "workload": "train",
        "rounds": len(rounds),
        "round_s": [sum(row[key] for key in phases) for row in rounds],
        "operations": {name: {"attempted": n, "failed": 0} for name, n in ops.items()},
        "actions": int(generated.store.num_actions),
        "users": int(generated.store.num_users),
        "spearman": rho,
        "iterations": model.trace.num_iterations,
        "figures": {
            **{key: med(key) for key in phases},
            "fit_peak_rss_mb": child["peak_rss_bytes"] / MB,
            "to_log_s": median(to_log_s),
        },
    }
    if not trace:
        values = {
            "setup_s": median(setup_s),
            "op_p50_ms": 1000.0 * median(sum(row[key] for key in phases) for row in rounds),
            # Calls per second of call time: the harness's checks between
            # the calls are left out.
            "ops_per_s": len(phases) * len(rounds)
            / sum(row[key] for row in rounds for key in phases),
            "rss_mb": child["peak_rss_bytes"] / MB,
        }
    else:
        staged = [
            sum(row["stages"].get(k, 0.0) for k in ("table_build", "assign", "cell_fit", "checkpoint"))
            for row in rounds
        ]
        values = {
            "data.store.to_log_s": median(to_log_s),
            "core.engine.table_build_s": stage("table_build"),
            "core.engine.assign_s": stage("assign"),
            "core.stats.cell_fit_s": stage("cell_fit"),
            "core.shard.reduce_s": stage("reduce", "store_stages"),
            "core.training.unstaged_s": median(row["fit_s"] - s for row, s in zip(rounds, staged)),
            "core.training.iterations": model.trace.num_iterations,
            "core.serialize.arrays": arrays,
            "core.serialize.artifact_mb": artifact_mb,
            "core.serialize.publish_shm_s": publish_s,
            "core.serialize.attach_shm_s": attach_s,
        }
        report["spans"] = {
            name: {"count": len(spans.seconds(name)), "median_s": median(spans.seconds(name))}
            for name in sorted({r[0] for r in spans.records})
        }
    attempted = sum(ops.values())
    return report, True, attempted, 0, result_metrics(values, trace)
