"""Unit tests for the serving building blocks (batcher, admission, state)."""

import asyncio
import json
import os

import pytest

from repro.core.serialize import _FORMAT_VERSION, artifact_metadata, save_model
from repro.exceptions import ConfigurationError, DataError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve import AdmissionConfig, AdmissionController, MicroBatcher, ModelState


def run(coro):
    return asyncio.run(coro)


class TestMicroBatcher:
    def test_concurrent_submits_coalesce_into_one_flush(self):
        sizes = []

        def batch_fn(payloads):
            sizes.append(len(payloads))
            return [p * 10 for p in payloads]

        async def scenario():
            batcher = MicroBatcher(batch_fn, max_batch=16, max_wait_ms=20.0)
            await batcher.start()
            results = await asyncio.gather(*(batcher.submit(i) for i in range(5)))
            await batcher.stop()
            return results

        assert run(scenario()) == [0, 10, 20, 30, 40]
        assert sizes == [5]

    def test_max_batch_splits_flushes(self):
        sizes = []

        def batch_fn(payloads):
            sizes.append(len(payloads))
            return payloads

        async def scenario():
            batcher = MicroBatcher(batch_fn, max_batch=4, max_wait_ms=50.0)
            await batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(10)))
            await batcher.stop()

        run(scenario())
        assert sum(sizes) == 10
        assert max(sizes) <= 4
        assert len(sizes) >= 3

    def test_max_batch_one_is_sequential_dispatch(self):
        sizes = []

        def batch_fn(payloads):
            sizes.append(len(payloads))
            return payloads

        async def scenario():
            batcher = MicroBatcher(batch_fn, max_batch=1, max_wait_ms=5.0)
            await batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(6)))
            await batcher.stop()

        run(scenario())
        assert sizes == [1] * 6

    def test_batch_error_fails_every_request_of_the_flush(self):
        def batch_fn(payloads):
            raise ValueError("kernel exploded")

        async def scenario():
            batcher = MicroBatcher(batch_fn, max_batch=8, max_wait_ms=5.0)
            await batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(3)), return_exceptions=True
            )
            await batcher.stop()
            return results

        results = run(scenario())
        assert all(isinstance(r, ValueError) for r in results)

    def test_result_count_mismatch_is_a_typed_error(self):
        async def scenario():
            batcher = MicroBatcher(lambda payloads: [1], max_batch=8, max_wait_ms=5.0)
            await batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(2)), return_exceptions=True
            )
            await batcher.stop()
            return results

        assert all(isinstance(r, ConfigurationError) for r in run(scenario()))

    def test_stop_flushes_the_remaining_queue(self):
        flushed = []

        def batch_fn(payloads):
            flushed.extend(payloads)
            return payloads

        async def scenario():
            batcher = MicroBatcher(batch_fn, max_batch=64, max_wait_ms=10_000.0)
            await batcher.start()
            pending = [asyncio.ensure_future(batcher.submit(i)) for i in range(3)]
            await asyncio.sleep(0)  # queue the submits, far from the window
            await batcher.stop()
            return await asyncio.gather(*pending)

        assert run(scenario()) == [0, 1, 2]
        assert flushed == [0, 1, 2]

    def test_submit_when_not_running_raises(self):
        async def scenario():
            batcher = MicroBatcher(lambda p: p)
            with pytest.raises(ConfigurationError):
                await batcher.submit(1)
            await batcher.start()
            await batcher.stop()
            with pytest.raises(ConfigurationError):
                await batcher.submit(1)

        run(scenario())

    def test_observes_batch_size_histogram(self):
        async def scenario():
            batcher = MicroBatcher(lambda p: p, max_batch=8, max_wait_ms=20.0)
            await batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(4)))
            await batcher.stop()

        with use_registry(MetricsRegistry()) as registry:
            run(scenario())
            digest = registry.snapshot()["histograms"]["serve.batch_size"]
        assert digest["count"] >= 1
        assert digest["max"] == 4

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(lambda p: p, max_batch=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(lambda p: p, max_wait_ms=-1.0)


class TestAdmission:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_queue=0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(default_timeout_seconds=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(endpoint_timeouts={"predict": -1.0})

    def test_queue_full_sheds_with_counters(self):
        with use_registry(MetricsRegistry()) as registry:
            controller = AdmissionController(AdmissionConfig(max_queue=2))
            tickets = [controller.admit("predict") for _ in range(2)]
            assert all(t is not None for t in tickets)
            assert controller.admit("predict") is None
            snapshot = registry.snapshot()
            assert snapshot["counters"]["serve.shed"] == 1
            assert snapshot["counters"]["serve.shed.queue_full"] == 1
            assert snapshot["gauges"]["serve.queue_depth"] == 2
            for ticket in tickets:
                controller.release(ticket)
            assert registry.snapshot()["gauges"]["serve.queue_depth"] == 0
            assert controller.admit("predict") is not None

    def test_release_is_idempotent(self):
        with use_registry(MetricsRegistry()):
            controller = AdmissionController(AdmissionConfig(max_queue=4))
            ticket = controller.admit("skill")
            controller.release(ticket)
            controller.release(ticket)
            assert controller.inflight == 0

    def test_deadlines_use_the_injected_clock(self):
        now = [100.0]
        with use_registry(MetricsRegistry()) as registry:
            controller = AdmissionController(
                AdmissionConfig(
                    default_timeout_seconds=5.0,
                    endpoint_timeouts={"predict": 0.5},
                ),
                clock=lambda: now[0],
            )
            slow = controller.admit("skill")
            fast = controller.admit("predict")
            assert slow.deadline == pytest.approx(105.0)
            assert fast.deadline == pytest.approx(100.5)
            now[0] = 101.0
            assert not controller.expired(slow)
            assert controller.expired(fast)
            assert controller.remaining(fast) == pytest.approx(-0.5)
            controller.shed_deadline()
            assert registry.snapshot()["counters"]["serve.shed.deadline"] == 1


@pytest.fixture
def model_prefix(fitted_tiny_model, tmp_path):
    prefix = tmp_path / "model"
    save_model(fitted_tiny_model, prefix)
    return prefix


def _bump_mtime(prefix):
    """Make the next save's stat signature differ even on coarse clocks."""
    for suffix in (".json", ".npz"):
        path = prefix.with_suffix(suffix)
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))


class TestArtifactMetadata:
    def test_reports_the_pair(self, model_prefix, fitted_tiny_model):
        meta = artifact_metadata(model_prefix)
        assert meta["format_version"] == _FORMAT_VERSION
        assert meta["checksum_algorithm"] == "sha256"
        assert meta["checksum_verified"] is True
        assert len(meta["npz_checksum"]) == 64
        assert meta["num_users"] == len(fitted_tiny_model.assignments)
        assert meta["num_items"] == len(fitted_tiny_model.encoded.item_ids)
        assert meta["num_levels"] == fitted_tiny_model.num_levels
        assert meta["telemetry_run_id"] == fitted_tiny_model.telemetry.run_id
        assert meta["json_bytes"] > 0 and meta["npz_bytes"] > 0
        assert meta["converged"] == fitted_tiny_model.trace.converged

    def test_missing_npz_is_reported_not_raised(self, model_prefix):
        model_prefix.with_suffix(".npz").unlink()
        meta = artifact_metadata(model_prefix)
        assert meta["npz_bytes"] is None
        assert meta["checksum_verified"] is False

    def test_torn_pair_reports_unverified(self, model_prefix):
        with open(model_prefix.with_suffix(".npz"), "ab") as handle:
            handle.write(b"garbage")
        assert artifact_metadata(model_prefix)["checksum_verified"] is False

    def test_missing_json_raises(self, tmp_path):
        with pytest.raises(DataError):
            artifact_metadata(tmp_path / "nope")

    def test_malformed_json_raises(self, model_prefix):
        model_prefix.with_suffix(".json").write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError):
            artifact_metadata(model_prefix)


class TestModelState:
    def test_load_builds_a_full_bundle(self, model_prefix):
        state = ModelState(model_prefix)
        with pytest.raises(DataError):
            state.current  # noqa: B018 — access before load must raise
        bundle = state.load()
        assert state.loaded
        assert bundle.version == 1
        assert bundle.metadata["checksum_verified"] is True
        assert set(bundle.difficulties) == {"uniform", "empirical"}

    def test_one_bundle_build_hashes_the_npz_once(self, model_prefix, monkeypatch):
        from repro.core import serialize

        hashed = []
        real = serialize._sha256_hex
        monkeypatch.setattr(
            serialize, "_sha256_hex", lambda data: hashed.append(len(data)) or real(data)
        )
        bundle = ModelState(model_prefix).load()
        assert hashed == [model_prefix.with_suffix(".npz").stat().st_size]
        assert bundle.metadata["checksum_verified"] is True
        assert bundle.metadata["npz_bytes"] == hashed[0]

    def test_legacy_v1_artifact_serves(self, fitted_tiny_model, tmp_path, save_v1_artifact):
        save_v1_artifact(fitted_tiny_model, tmp_path / "legacy")
        bundle = ModelState(tmp_path / "legacy").load()
        assert bundle.metadata["format_version"] == 1
        assert bundle.metadata["checksum_verified"] is True
        for user, path in fitted_tiny_model.assignments.items():
            assert list(bundle.model.assignments[user]) == list(path)

    def test_unchanged_artifacts_do_not_reload(self, model_prefix):
        state = ModelState(model_prefix)
        state.load()
        assert state.maybe_reload() is False
        assert state.reloads == 0

    def test_rewrite_swaps_the_bundle(self, model_prefix, fitted_tiny_model):
        with use_registry(MetricsRegistry()) as registry:
            state = ModelState(model_prefix)
            first = state.load()
            save_model(fitted_tiny_model, model_prefix)
            _bump_mtime(model_prefix)
            assert state.maybe_reload() is True
            assert state.current.version == first.version + 1
            assert state.reloads == 1
            assert registry.snapshot()["counters"]["serve.reloads"] == 1

    def test_corrupt_rewrite_keeps_the_old_model(self, model_prefix):
        with use_registry(MetricsRegistry()) as registry:
            state = ModelState(model_prefix)
            first = state.load()
            with open(model_prefix.with_suffix(".npz"), "ab") as handle:
                handle.write(b"torn")
            _bump_mtime(model_prefix)
            assert state.maybe_reload() is False
            assert state.current is first
            assert state.reload_failures == 1
            assert registry.snapshot()["counters"]["serve.reload_failures"] == 1
            # same broken signature: no second validation attempt
            assert state.maybe_reload() is False
            assert state.reload_failures == 1

    def test_recovers_after_a_failed_reload(self, model_prefix, fitted_tiny_model):
        # A fake clock steps past the failure-backoff window so the good
        # artifact is revalidated on the very next poll.
        now = [1000.0]
        state = ModelState(model_prefix, clock=lambda: now[0])
        state.load()
        json_path = model_prefix.with_suffix(".json")
        structure = json.loads(json_path.read_text(encoding="utf-8"))
        structure["checksums"]["npz"] = "0" * 64
        json_path.write_text(json.dumps(structure), encoding="utf-8")
        _bump_mtime(model_prefix)
        assert state.maybe_reload() is False
        save_model(fitted_tiny_model, model_prefix)
        _bump_mtime(model_prefix)
        now[0] += state.retry_base_seconds + 0.1
        assert state.maybe_reload() is True
        assert state.current.version == 2
