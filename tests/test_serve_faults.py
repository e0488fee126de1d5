"""Chaos suite for the streaming ingest → fold-in → hot-swap loop.

The load-bearing claim (the crash-safety contract of
:mod:`repro.serve.ingest` + :mod:`repro.serve.foldin`): kill the process
at *any* injected fault point — a torn WAL append, a crash between the
artifact publish and the watermark side-file, a worker death mid-fold —
restart, and the replayed fold-in converges to a model **bit-identical**
to an uninterrupted run, with zero lost and zero double-applied events.

"Restart" here is literal object death: every scenario builds a fresh
:class:`WriteAheadLog` (re-running recovery against whatever bytes the
crash left) and a fresh :class:`FoldinWorker` (re-bootstrapping from the
artifact's embedded watermark), sharing no in-memory state with the
crashed generation.

Model identity is asserted over the *loaded* arrays — parameters,
assignments, assignment times, encoded columns, training trace — not the
raw ``.npz`` bytes, which embed zip timestamps.
"""

import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.serialize import artifact_metadata, load_model, save_model
from repro.core.serialize import _FORMAT_VERSION, _cell_payload
from repro.exceptions import DataError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve import (
    FoldinConfig,
    FoldinWorker,
    ModelState,
    ServeConfig,
    ServerThread,
    SkillServer,
    WalConfig,
    WriteAheadLog,
    inspect_wal,
)
from repro.serve.foldin import SNAPSHOT_FILENAME, WATERMARK_FILENAME, read_watermark
from repro.testing.faults import (
    SimulatedCrash,
    crash_after_publish,
    crash_before_snapshot,
    failing_foldin_extend,
    failing_reload,
    failing_wal_truncate,
    torn_wal_append,
)

from tests.test_serve_e2e import _request


@pytest.fixture(autouse=True)
def registry():
    with use_registry(MetricsRegistry()) as reg:
        yield reg


class FakeClock:
    """A manually advanced monotonic clock for backoff tests."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _events(count, *, start_time=100.0, users=("u0", "u1", "n0", "u2", "n1")):
    """A deterministic event stream over trained and brand-new users."""
    items = [f"i{index % 12}" for index in range(count)]
    return [
        {
            "user": users[index % len(users)],
            "item": items[index],
            "time": start_time + float(index),
        }
        for index in range(count)
    ]


def _assert_models_identical(left, right):
    """Bit-identical over every array a loaded model is made of."""
    assert left.parameters.num_levels == right.parameters.num_levels
    for level_left, level_right in zip(left.parameters.cells, right.parameters.cells):
        for cell_left, cell_right in zip(level_left, level_right):
            tag_left, params_left = _cell_payload(cell_left)
            tag_right, params_right = _cell_payload(cell_right)
            assert tag_left == tag_right
            assert np.array_equal(params_left, params_right)
    assert list(left.encoded.item_ids) == list(right.encoded.item_ids)
    assert list(left.assignments) == list(right.assignments)  # user order too
    for user in left.assignments:
        assert np.array_equal(left.assignments[user], right.assignments[user])
        assert np.array_equal(
            left._assignment_times[user], right._assignment_times[user]
        )
    assert left.trace.log_likelihoods == right.trace.log_likelihoods


def _fresh_site(model, tmp_path, name):
    """An isolated (artifact prefix, WAL directory) pair for one scenario."""
    site = tmp_path / name
    site.mkdir()
    prefix = site / "model"
    save_model(model, prefix)
    return prefix, site / "wal"


def _drain_fully(worker):
    worker.bootstrap()
    while worker.pending() > 0:
        worker.run_once()
    return worker


# ---------------------------------------------------------------- WAL unit


class TestWalBasics:
    def test_append_read_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        events = _events(6)
        first, last = wal.append(events[:4])
        assert (first, last) == (1, 4)
        assert wal.append(events[4:]) == (5, 6)
        assert wal.last_seq == 6
        assert wal.durable_seq == 6
        replayed = list(wal.read())
        assert [record.seq for record in replayed] == [1, 2, 3, 4, 5, 6]
        assert [record.event for record in replayed] == events

    def test_empty_batch_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        with pytest.raises(DataError, match="empty"):
            wal.append([])

    def test_ranged_read(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(_events(9))
        assert [r.seq for r in wal.read(after_seq=3, upto_seq=7)] == [4, 5, 6, 7]

    def test_rotation_and_reopen_resume_sequence(self, tmp_path):
        config = WalConfig(segment_bytes=200)
        wal = WriteAheadLog(tmp_path / "wal", config)
        for batch in range(4):
            wal.append(_events(2, start_time=10.0 * batch))
        assert wal.segment_count > 1
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal", config)
        assert reopened.last_seq == 8
        assert reopened.append(_events(1)) == (9, 9)
        assert [r.seq for r in reopened.read()] == list(range(1, 10))

    def test_prune_keeps_active_segment(self, tmp_path):
        config = WalConfig(segment_bytes=200)
        wal = WriteAheadLog(tmp_path / "wal", config)
        for batch in range(4):
            wal.append(_events(2, start_time=10.0 * batch))
        segments = wal.segment_count
        removed = wal.prune(upto_seq=wal.last_seq)
        assert removed == segments - 1
        assert wal.segment_count == 1
        # The surviving (active) segment still accepts appends.
        assert wal.append(_events(1))[0] == 9

    def test_corrupt_middle_segment_raises_on_open(self, tmp_path):
        config = WalConfig(segment_bytes=200)
        wal = WriteAheadLog(tmp_path / "wal", config)
        for batch in range(4):
            wal.append(_events(2, start_time=10.0 * batch))
        wal.close()
        victim = sorted((tmp_path / "wal").glob("wal-*.seg"))[0]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(DataError, match="corrupt"):
            WriteAheadLog(tmp_path / "wal", config)

    def test_missing_middle_segment_is_a_discontinuity(self, tmp_path):
        config = WalConfig(segment_bytes=200)
        wal = WriteAheadLog(tmp_path / "wal", config)
        for batch in range(4):
            wal.append(_events(2, start_time=10.0 * batch))
        wal.close()
        sorted((tmp_path / "wal").glob("wal-*.seg"))[1].unlink()
        with pytest.raises(DataError, match="discontinuity"):
            WriteAheadLog(tmp_path / "wal", config)

    def test_inspect_reports_ok_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", WalConfig(segment_bytes=200))
        for batch in range(3):
            wal.append(_events(2, start_time=10.0 * batch))
        report = inspect_wal(tmp_path / "wal")
        assert report["last_seq"] == 6
        assert report["total_records"] == 6
        assert all(s["status"] in ("ok", "empty") for s in report["segments"])


class TestTornTail:
    def test_torn_append_rolls_back_the_live_segment(self, tmp_path, registry):
        """A failed append must not leave garbage in front of later appends:
        the same live WAL object keeps journaling, and everything acked
        after the failure stays readable (no restart required)."""
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(_events(3))
        with torn_wal_append(keep_bytes=10) as state:
            with pytest.raises(SimulatedCrash):
                wal.append(_events(2, start_time=50.0))
        assert state["torn"] and state["dropped_bytes"] > 0
        assert registry.counter("ingest.append_rollbacks").value == 1
        assert wal.last_seq == 3  # nothing of the torn batch was acked
        # The un-acked batch can be blindly retried on the SAME object,
        # and later batches land behind it — all of them readable.
        assert wal.append(_events(2, start_time=50.0)) == (4, 5)
        assert wal.append(_events(3, start_time=60.0)) == (6, 8)
        assert [r.seq for r in wal.read()] == list(range(1, 9))
        # Restart sees the identical committed history.
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal")
        assert reopened.last_seq == 8
        assert [r.seq for r in reopened.read()] == list(range(1, 9))

    def test_torn_append_is_truncated_on_reopen(self, tmp_path, registry):
        """Process-death flavour: the rollback never runs (the disk cannot
        even truncate), the torn bytes stay on disk, and recovery at the
        next open truncates them — the original crash contract."""
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(_events(3))
        with failing_wal_truncate():
            with torn_wal_append(keep_bytes=10) as state:
                with pytest.raises(SimulatedCrash):
                    wal.append(_events(2, start_time=50.0))
        assert state["torn"] and state["dropped_bytes"] > 0
        reopened = WriteAheadLog(tmp_path / "wal")
        assert reopened.last_seq == 3  # nothing of the torn batch survives
        assert registry.counter("ingest.torn_tail_truncations").value == 1
        # The un-acked batch can be blindly retried: exactly-once.
        assert reopened.append(_events(2, start_time=50.0)) == (4, 5)
        assert [r.seq for r in reopened.read()] == [1, 2, 3, 4, 5]

    def test_unremovable_garbage_blocks_appends_until_truncate_succeeds(
        self, tmp_path, registry
    ):
        """While the failed-append garbage cannot be truncated away, the
        WAL must refuse to journal — an append behind garbage would be
        acked yet invisible to readers."""
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(_events(3))
        with failing_wal_truncate():
            with torn_wal_append(keep_bytes=10):
                with pytest.raises(SimulatedCrash):
                    wal.append(_events(2, start_time=50.0))
            with pytest.raises(DataError, match="garbage"):
                wal.append(_events(2, start_time=50.0))
        # Disk back: the pre-append rollback retry clears the tail and the
        # same object resumes journaling with no loss and no duplicates.
        assert wal.append(_events(2, start_time=50.0)) == (4, 5)
        assert registry.counter("ingest.append_rollbacks").value == 1
        assert [r.seq for r in wal.read()] == [1, 2, 3, 4, 5]

    def test_mid_batch_tear_discards_the_whole_batch(self, tmp_path):
        """A tear can leave complete, checksum-valid records of the un-acked
        batch on disk; the missing commit record must void them all, or a
        client retry would double-apply the survivors."""
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(_events(3))
        batch = _events(4, start_time=50.0)
        # Keep enough bytes that at least one full record of the batch
        # lands; the dead disk keeps the rollback from cleaning it up.
        with failing_wal_truncate():
            with torn_wal_append(keep_bytes=120):
                with pytest.raises(SimulatedCrash):
                    wal.append(batch)
        report = inspect_wal(tmp_path / "wal")
        assert report["segments"][-1]["status"] == "torn-tail"
        reopened = WriteAheadLog(tmp_path / "wal")
        assert reopened.last_seq == 3
        reopened.append(batch)
        replayed = [r.event for r in reopened.read()]
        assert replayed == _events(3) + batch  # no loss, no duplicates

    def test_inspect_is_read_only(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(_events(2))
        with failing_wal_truncate():
            with torn_wal_append(keep_bytes=9):
                with pytest.raises(SimulatedCrash):
                    wal.append(_events(1, start_time=50.0))
        segment = sorted((tmp_path / "wal").glob("wal-*.seg"))[-1]
        size_before = segment.stat().st_size
        report = inspect_wal(tmp_path / "wal")
        assert report["segments"][-1]["status"] == "torn-tail"
        assert segment.stat().st_size == size_before


# ------------------------------------------------------------- fold-in unit


class TestFoldinWorker:
    def test_fold_publishes_and_modelstate_hot_swaps(
        self, fitted_tiny_model, tiny_log, tmp_path
    ):
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "site")
        state = ModelState(prefix, poll_seconds=0.01)
        state.load()
        wal = WriteAheadLog(wal_dir)
        wal.append(_events(8))
        worker = FoldinWorker(wal, prefix, tiny_log)
        worker.bootstrap()
        assert worker.run_once() == 8
        assert worker.watermark == 8
        # The watermark rode inside the artifact commit.
        extra = artifact_metadata(prefix)["extra"]
        assert extra["foldin"]["watermark_seq"] == 8
        assert read_watermark(prefix, wal_dir) == 8
        # The serving layer sees it as an ordinary hot reload.
        stat = os.stat(prefix.with_suffix(".json"))
        os.utime(
            prefix.with_suffix(".json"),
            ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000),
        )
        assert state.maybe_reload() is True
        assert state.current.version == 2
        folded = state.current.model
        assert "n0" in folded.assignments and "n1" in folded.assignments

    def test_no_pending_events_is_a_noop(self, fitted_tiny_model, tiny_log, tmp_path):
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "site")
        worker = FoldinWorker(WriteAheadLog(wal_dir), prefix, tiny_log)
        worker.bootstrap()
        before = os.stat(prefix.with_suffix(".json")).st_mtime_ns
        assert worker.run_once() == 0
        assert os.stat(prefix.with_suffix(".json")).st_mtime_ns == before

    def test_new_user_folds_across_two_cycles(
        self, fitted_tiny_model, tiny_log, tmp_path
    ):
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "site")
        wal = WriteAheadLog(wal_dir)
        worker = FoldinWorker(wal, prefix, tiny_log)
        worker.bootstrap()
        wal.append([{"user": "fresh", "item": "i1", "time": 100.0}])
        worker.run_once()
        first = load_model(prefix).assignments["fresh"]
        assert len(first) == 1
        wal.append([{"user": "fresh", "item": "i2", "time": 101.0}])
        worker.run_once()
        second = load_model(prefix).assignments["fresh"]
        assert len(second) == 2  # the second fold saw the merged history

    def test_poison_event_is_dropped_not_wedged(
        self, fitted_tiny_model, tiny_log, tmp_path, registry
    ):
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "site")
        wal = WriteAheadLog(wal_dir)
        # Bypasses /ingest validation — e.g. the catalog shrank between
        # journaling and folding.
        wal.append(
            [
                {"user": "u0", "item": "i1", "time": 100.0},
                {"user": "u0", "item": "not-in-catalog", "time": 101.0},
                {"user": "u1", "item": "i2", "time": 102.0},
            ]
        )
        worker = FoldinWorker(wal, prefix, tiny_log)
        worker.bootstrap()
        assert worker.run_once() == 2
        assert worker.watermark == 3  # the poison seq is consumed, not retried
        assert worker.health()["events_dropped"] == 1
        assert registry.counter("foldin.events_dropped").value == 1

    def test_transient_failure_retries_after_backoff(
        self, fitted_tiny_model, tiny_log, tmp_path, registry
    ):
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "site")
        wal = WriteAheadLog(wal_dir)
        wal.append(_events(4))
        clock = FakeClock()
        worker = FoldinWorker(wal, prefix, tiny_log, clock=clock)
        worker.bootstrap()
        with failing_foldin_extend(calls=1, repeat=False):
            assert worker.attempt() is None
        assert worker.health()["consecutive_failures"] == 1
        assert registry.counter("foldin.retries").value == 1
        assert worker.attempt() is None  # still inside the backoff window
        clock.advance(1.0)  # past retry_base_seconds=0.5
        assert worker.attempt() == 4
        assert worker.health()["consecutive_failures"] == 0
        assert registry.info("foldin.status").value == "ok"

    def test_degraded_mode_serves_stale_keeps_journaling_then_recovers(
        self, fitted_tiny_model, tiny_log, tmp_path, registry
    ):
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "site")
        wal = WriteAheadLog(wal_dir)
        wal.append(_events(4))
        clock = FakeClock()
        config = FoldinConfig(max_retries=3, retry_base_seconds=0.5, retry_cap_seconds=4.0)
        worker = FoldinWorker(wal, prefix, tiny_log, config=config, clock=clock)
        worker.bootstrap()
        version_before = os.stat(prefix.with_suffix(".json")).st_mtime_ns
        with failing_foldin_extend(calls=1, repeat=True):
            for _ in range(3):
                assert worker.attempt() is None
                clock.advance(10.0)
            assert worker.health()["status"] == "degraded"
            assert registry.gauge("foldin.degraded").value == 1
            assert registry.info("foldin.status").value == "degraded"
            assert registry.info("foldin.last_error").value.startswith("SimulatedCrash")
            # Serve-stale, keep-journaling: the artifact is untouched and the
            # WAL still accepts durable appends while degraded.
            assert os.stat(prefix.with_suffix(".json")).st_mtime_ns == version_before
            assert wal.append(_events(2, start_time=500.0)) == (5, 6)
        clock.advance(10.0)  # fault gone: next attempt recovers automatically
        assert worker.attempt() == 6
        assert worker.health()["status"] == "ok"
        assert registry.gauge("foldin.degraded").value == 0

    def test_drift_gauges_published(self, fitted_tiny_model, tiny_log, tmp_path, registry):
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "site")
        wal = WriteAheadLog(wal_dir)
        wal.append(_events(6))
        worker = FoldinWorker(wal, prefix, tiny_log)
        _drain_fully(worker)
        training = registry.gauge("foldin.ll_per_action_training").value
        recent = registry.gauge("foldin.ll_per_action_recent").value
        assert training < 0 and recent < 0  # log-likelihoods per action
        assert registry.gauge("foldin.ll_drift").value == pytest.approx(
            recent - training
        )

    def test_decay_reassigns_stale_users(
        self, fitted_tiny_model, tiny_log, tmp_path, registry
    ):
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "site")
        wal = WriteAheadLog(wal_dir)
        # Only u0 stays active, far in the future: u1/u2 go stale.
        wal.append([{"user": "u0", "item": "i1", "time": 1000.0}])
        config = FoldinConfig(decay_half_life=5.0, decay_stale_after=100.0)
        worker = FoldinWorker(wal, prefix, tiny_log, config=config)
        _drain_fully(worker)
        assert registry.gauge("foldin.decay_users").value == 2
        model = load_model(prefix)
        # Decay re-solves stale users over the forgetting lattice; their
        # trajectories stay valid 1-based levels of unchanged length.
        for user in ("u1", "u2"):
            levels = model.assignments[user]
            assert len(levels) == len(fitted_tiny_model.assignments[user])
            assert levels.min() >= 1 and levels.max() <= model.num_levels


# ----------------------------------------------------------- chaos parity


class TestChaosParity:
    """Kill-and-restart at every injected fault point replays to a model
    bit-identical to an uninterrupted run — zero lost, zero double-applied.
    """

    BATCHES = (_events(5), _events(7, start_time=200.0), _events(4, start_time=300.0))
    TOTAL = 16

    def _baseline(self, model, log, tmp_path):
        prefix, wal_dir = _fresh_site(model, tmp_path, "baseline")
        wal = WriteAheadLog(wal_dir)
        for batch in self.BATCHES:
            wal.append(batch)
        worker = FoldinWorker(wal, prefix, log)
        _drain_fully(worker)
        assert worker.watermark == self.TOTAL
        return load_model(prefix)

    def _verify(self, prefix, wal_dir, log, baseline):
        """Restart from disk state, drain, and demand bit-identity."""
        wal = WriteAheadLog(wal_dir)  # fresh recovery pass
        worker = FoldinWorker(wal, prefix, log)  # fresh bootstrap
        _drain_fully(worker)
        assert worker.watermark == self.TOTAL
        assert list(wal.read(after_seq=0))[-1].seq == self.TOTAL
        final = load_model(prefix)
        _assert_models_identical(final, baseline)
        # Zero lost / zero doubled, asserted structurally: every trained
        # user plus both new users carries training + folded action counts.
        per_user: dict = {}
        for event in (e for batch in self.BATCHES for e in batch):
            per_user[event["user"]] = per_user.get(event["user"], 0) + 1
        for user, folded_count in per_user.items():
            trained = len(baseline.assignments.get(user, ())) - folded_count
            assert len(final.assignments[user]) == max(0, trained) + folded_count

    def test_uninterrupted_run_is_batch_partition_independent(
        self, fitted_tiny_model, tiny_log, tmp_path
    ):
        baseline = self._baseline(fitted_tiny_model, tiny_log, tmp_path)
        # Same 16 events, different batch cuts and fold granularity.
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "repartitioned")
        wal = WriteAheadLog(wal_dir)
        flat = [event for batch in self.BATCHES for event in batch]
        for start in range(0, self.TOTAL, 3):
            wal.append(flat[start : start + 3])
        worker = FoldinWorker(
            wal, prefix, tiny_log, config=FoldinConfig(max_events_per_fold=5)
        )
        _drain_fully(worker)
        _assert_models_identical(load_model(prefix), baseline)

    def test_restart_after_torn_ingest_append(
        self, fitted_tiny_model, tiny_log, tmp_path
    ):
        baseline = self._baseline(fitted_tiny_model, tiny_log, tmp_path)
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "torn")
        wal = WriteAheadLog(wal_dir)
        wal.append(self.BATCHES[0])
        with failing_wal_truncate():  # process death: no rollback runs
            with torn_wal_append(keep_bytes=150):  # dies mid-write of batch 2
                with pytest.raises(SimulatedCrash):
                    wal.append(self.BATCHES[1])
        # Restart: recovery voids the un-acked batch; the client retries it.
        wal = WriteAheadLog(wal_dir)
        wal.append(self.BATCHES[1])
        wal.append(self.BATCHES[2])
        self._verify(prefix, wal_dir, tiny_log, baseline)

    def test_foldin_sees_batches_acked_after_a_torn_append_without_restart(
        self, fitted_tiny_model, tiny_log, tmp_path
    ):
        """The live-process flavour of the torn append: the SAME WAL object
        keeps journaling after a failed append, and the fold-in worker must
        see every later acked batch (a rollback-less WAL would hide them
        behind the garbage while the watermark advanced past them)."""
        baseline = self._baseline(fitted_tiny_model, tiny_log, tmp_path)
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "torn-live")
        wal = WriteAheadLog(wal_dir)
        wal.append(self.BATCHES[0])
        with torn_wal_append(keep_bytes=150):
            with pytest.raises(SimulatedCrash):
                wal.append(self.BATCHES[1])
        # No restart: the client retries on the same live WAL, then keeps
        # sending, and fold-in drains everything.
        wal.append(self.BATCHES[1])
        wal.append(self.BATCHES[2])
        worker = FoldinWorker(wal, prefix, tiny_log)
        _drain_fully(worker)
        assert worker.watermark == self.TOTAL
        assert worker.health()["events_dropped"] == 0
        _assert_models_identical(load_model(prefix), baseline)

    def test_restart_after_prune_replays_from_snapshot(
        self, fitted_tiny_model, tiny_log, tmp_path
    ):
        """Pruned segments are gone from the WAL; the applied-events
        snapshot must carry their events or a restarted worker rebuilds an
        incomplete merged log (the documented pure-function-of-the-log
        guarantee would silently break under the default config)."""
        baseline = self._baseline(fitted_tiny_model, tiny_log, tmp_path)
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "pruned")
        wal = WriteAheadLog(wal_dir, WalConfig(segment_bytes=200))
        wal.append(self.BATCHES[0])
        wal.append(self.BATCHES[1])
        worker = FoldinWorker(wal, prefix, tiny_log)  # prune on by default
        worker.bootstrap()
        while worker.pending() > 0:
            worker.run_once()
        # Rotation + pruning really dropped folded history from the WAL.
        assert (wal_dir / SNAPSHOT_FILENAME).exists()
        remaining = [r.seq for r in wal.read(after_seq=0)]
        assert remaining[0] > 1, "test needs pruning to have removed segments"
        wal.close()
        # Restart: fresh WAL + worker; the tail batch arrives after reboot.
        wal = WriteAheadLog(wal_dir, WalConfig(segment_bytes=200))
        wal.append(self.BATCHES[2])
        worker = FoldinWorker(wal, prefix, tiny_log)
        _drain_fully(worker)
        assert worker.watermark == self.TOTAL
        _assert_models_identical(load_model(prefix), baseline)

    def test_restart_after_crash_between_publish_and_snapshot(
        self, fitted_tiny_model, tiny_log, tmp_path
    ):
        """Crash in the publish → snapshot gap: the artifact watermark is
        ahead of the snapshot, and the WAL (whose pruning never outruns
        the snapshot) must still cover the difference."""
        baseline = self._baseline(fitted_tiny_model, tiny_log, tmp_path)
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "snapshot-gap")
        wal = WriteAheadLog(wal_dir, WalConfig(segment_bytes=200))
        wal.append(self.BATCHES[0])
        worker = FoldinWorker(wal, prefix, tiny_log)
        worker.bootstrap()
        worker.run_once()  # fold 1 publishes artifact + snapshot, prunes
        wal.append(self.BATCHES[1])
        with crash_before_snapshot():
            with pytest.raises(SimulatedCrash):
                worker.run_once()  # artifact committed; snapshot write dies
        embedded = artifact_metadata(prefix)["extra"]["foldin"]["watermark_seq"]
        assert embedded == 12
        snapshot = json.loads((wal_dir / SNAPSHOT_FILENAME).read_text())
        assert snapshot["watermark_seq"] == 5  # still the previous fold's
        wal.close()
        wal = WriteAheadLog(wal_dir, WalConfig(segment_bytes=200))
        wal.append(self.BATCHES[2])
        worker = FoldinWorker(wal, prefix, tiny_log)
        _drain_fully(worker)
        assert worker.watermark == self.TOTAL
        _assert_models_identical(load_model(prefix), baseline)

    def test_restart_after_crash_between_publish_and_watermark(
        self, fitted_tiny_model, tiny_log, tmp_path
    ):
        baseline = self._baseline(fitted_tiny_model, tiny_log, tmp_path)
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "publish-gap")
        wal = WriteAheadLog(wal_dir)
        wal.append(self.BATCHES[0])
        wal.append(self.BATCHES[1])
        worker = FoldinWorker(wal, prefix, tiny_log)
        worker.bootstrap()
        with crash_after_publish():
            with pytest.raises(SimulatedCrash):
                worker.run_once()
        # The artifact (with its embedded watermark) committed; only the
        # advisory side file was lost.
        assert artifact_metadata(prefix)["extra"]["foldin"]["watermark_seq"] == 12
        assert not (wal_dir / WATERMARK_FILENAME).exists()
        wal.close()
        wal = WriteAheadLog(wal_dir)
        wal.append(self.BATCHES[2])
        self._verify(prefix, wal_dir, tiny_log, baseline)

    def test_restart_over_a_legacy_v1_artifact(
        self, fitted_tiny_model, tiny_log, tmp_path, save_v1_artifact
    ):
        """A fold-in server restarting over an artifact an older release
        published (per-user arrays, format version 1) resumes from its
        embedded watermark and republishes in the current format."""
        baseline = self._baseline(fitted_tiny_model, tiny_log, tmp_path)
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "legacy")
        wal = WriteAheadLog(wal_dir)
        wal.append(self.BATCHES[0])
        _drain_fully(FoldinWorker(wal, prefix, tiny_log))
        extra = artifact_metadata(prefix)["extra"]
        save_v1_artifact(load_model(prefix), prefix, extra=extra)
        assert artifact_metadata(prefix)["format_version"] == 1
        wal.close()
        wal = WriteAheadLog(wal_dir)
        wal.append(self.BATCHES[1])
        wal.append(self.BATCHES[2])
        self._verify(prefix, wal_dir, tiny_log, baseline)
        assert artifact_metadata(prefix)["format_version"] == _FORMAT_VERSION

    def test_restart_after_worker_death_mid_fold(
        self, fitted_tiny_model, tiny_log, tmp_path
    ):
        baseline = self._baseline(fitted_tiny_model, tiny_log, tmp_path)
        prefix, wal_dir = _fresh_site(fitted_tiny_model, tmp_path, "mid-fold")
        wal = WriteAheadLog(wal_dir)
        for batch in self.BATCHES:
            wal.append(batch)
        worker = FoldinWorker(
            wal, prefix, tiny_log, config=FoldinConfig(max_events_per_fold=6)
        )
        worker.bootstrap()
        worker.run_once()  # first fold publishes watermark 6
        with failing_foldin_extend(calls=1):
            with pytest.raises(SimulatedCrash):
                worker.run_once()  # dies before any publish
        assert artifact_metadata(prefix)["extra"]["foldin"]["watermark_seq"] == 6
        wal.close()
        self._verify(prefix, wal_dir, tiny_log, baseline)


# ------------------------------------------------------- reload backoff


class TestModelStateBackoff:
    def _bump(self, prefix):
        stat = os.stat(prefix.with_suffix(".json"))
        os.utime(
            prefix.with_suffix(".json"),
            ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000),
        )

    def test_backoff_suppresses_polls_and_recovers(
        self, fitted_tiny_model, tmp_path, registry
    ):
        prefix = tmp_path / "model"
        save_model(fitted_tiny_model, prefix)
        clock = FakeClock()
        state = ModelState(
            prefix,
            poll_seconds=0.01,
            retry_base_seconds=2.0,
            retry_cap_seconds=16.0,
            clock=clock,
        )
        state.load()
        with failing_reload(repeat=True):
            self._bump(prefix)
            assert state.maybe_reload() is False  # real attempt, fails
            assert state.reload_failures == 1
            # A flapping writer keeps changing the signature; polls inside
            # the backoff window are suppressed without touching disk.
            self._bump(prefix)
            assert state.maybe_reload() is False
            assert state.reload_failures == 1
            assert registry.counter("serve.reload_retry").value == 1
            clock.advance(3.0)  # past the 2s base backoff
            assert state.maybe_reload() is False  # second real attempt
            assert state.reload_failures == 2
            self._bump(prefix)
            clock.advance(3.0)  # inside the doubled (4s) window now
            assert state.maybe_reload() is False
            assert registry.counter("serve.reload_retry").value == 2
        clock.advance(60.0)
        self._bump(prefix)
        assert state.maybe_reload() is True  # fault gone: swap succeeds
        assert state.current.version == 2
        assert registry.counter("serve.reloads").value == 1

    def test_unexpected_exception_type_escapes(self, fitted_tiny_model, tmp_path):
        prefix = tmp_path / "model"
        save_model(fitted_tiny_model, prefix)
        state = ModelState(prefix, poll_seconds=0.01)
        state.load()
        self._bump(prefix)
        with failing_reload(repeat=False, exc=SimulatedCrash):
            with pytest.raises(SimulatedCrash):
                state.maybe_reload()


# ------------------------------------------------------------ /ingest e2e


@pytest.fixture
def served_with_ingest(fitted_tiny_model, tiny_log, tmp_path, registry):
    """A running server wired with a WAL and a (manually driven) fold-in
    worker — the full ingest → fold-in → hot-swap loop in one process."""
    prefix = tmp_path / "model"
    save_model(fitted_tiny_model, prefix)
    wal = WriteAheadLog(tmp_path / "wal")
    worker = FoldinWorker(
        wal, prefix, tiny_log, config=FoldinConfig(interval_seconds=60.0)
    )
    worker.bootstrap()
    server = SkillServer(
        ModelState(prefix, poll_seconds=0.02),
        ServeConfig(port=0, max_batch=8, max_wait_ms=2.0),
        wal=wal,
        foldin=worker,
    )
    thread = ServerThread(server)
    host, port = thread.start()
    try:
        yield host, port, prefix, wal, worker
    finally:
        thread.stop()
        worker.stop()
        wal.close()


class TestIngestEndpoint:
    def test_ingest_journals_durably(self, served_with_ingest):
        host, port, _, wal, _ = served_with_ingest
        status, raw = _request(
            host, port, "POST", "/ingest", {"events": _events(3)}
        )
        body = json.loads(raw)
        assert status == 200
        assert body["accepted"] == 3
        assert body["durable"] is True
        assert (body["first_seq"], body["last_seq"]) == (1, 3)
        assert wal.durable_seq == 3
        status, raw = _request(host, port, "GET", "/healthz")
        health = json.loads(raw)
        assert health["ingest"]["last_seq"] == 3
        assert health["foldin"]["pending_events"] == 3
        assert health["status"] == "ok"

    def test_ingest_validation(self, served_with_ingest):
        host, port, _, wal, _ = served_with_ingest
        status, raw = _request(host, port, "POST", "/ingest", {"events": []})
        assert status == 400
        status, raw = _request(
            host, port, "POST", "/ingest",
            {"events": [{"user": "u0", "time": 1.0}]},
        )
        assert status == 400 and b"item" in raw
        status, raw = _request(
            host, port, "POST", "/ingest",
            {"events": [{"user": "u0", "item": "nope", "time": 1.0}]},
        )
        assert status == 404 and b"retrain" in raw
        assert wal.last_seq == 0  # nothing invalid was journaled

    def test_ingest_unconfigured_is_503(self, fitted_tiny_model, tmp_path):
        prefix = tmp_path / "model"
        save_model(fitted_tiny_model, prefix)
        server = SkillServer(ModelState(prefix), ServeConfig(port=0))
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            status, raw = _request(
                host, port, "POST", "/ingest", {"events": _events(1)}
            )
        finally:
            thread.stop()
        assert status == 503
        assert b"--ingest-wal" in raw

    def test_mid_traffic_foldin_swap_loses_no_requests(self, served_with_ingest):
        """The acceptance gate: a fold-in publish hot-swaps the model while
        /predict traffic is in flight, with zero failed requests."""
        host, port, prefix, _, worker = served_with_ingest
        failures, stop = [], threading.Event()

        def hammer():
            while not stop.is_set():
                status, raw = _request(
                    host, port, "POST", "/predict",
                    {"user": "u1", "time": 5.0, "k": 3},
                )
                if status != 200:
                    failures.append((status, raw))

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            status, _ = _request(
                host, port, "POST", "/ingest", {"events": _events(6)}
            )
            assert status == 200
            worker.drain_now()  # fold + publish under live traffic
            # Defeat coarse mtime clocks so the watcher must notice.
            stat = os.stat(prefix.with_suffix(".json"))
            os.utime(
                prefix.with_suffix(".json"),
                ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000),
            )
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                _, raw = _request(host, port, "GET", "/healthz")
                if json.loads(raw)["model_version"] >= 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("hot swap of the folded model never happened")
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert failures == []
        _, raw = _request(host, port, "GET", "/healthz")
        health = json.loads(raw)
        assert health["foldin"]["watermark_seq"] == 6
        assert health["foldin"]["pending_events"] == 0
