"""Tests for repro.core.serialize (model persistence)."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import serialize
from repro.core.serialize import (
    _FORMAT_VERSION,
    artifact_metadata,
    attach_model_shm,
    load_model,
    publish_model_shm,
    save_model,
)
from repro.exceptions import DataError


def _restamp_checksum(json_path, npz_path):
    """Recompute the stored NPZ checksum after a test tampers with the NPZ.

    Lets a test target the failure mode *behind* the checksum gate (missing
    array, bad zip structure) instead of tripping the gate itself.
    """
    structure = json.loads(json_path.read_text())
    structure["checksums"]["npz"] = hashlib.sha256(npz_path.read_bytes()).hexdigest()
    json_path.write_text(json.dumps(structure))


class TestRoundTrip:
    def test_full_round_trip(self, fitted_tiny_model, tmp_path):
        save_model(fitted_tiny_model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")

        # structure
        assert loaded.num_levels == fitted_tiny_model.num_levels
        assert loaded.feature_set.names == fitted_tiny_model.feature_set.names
        assert loaded.trace.log_likelihoods == pytest.approx(
            fitted_tiny_model.trace.log_likelihoods
        )
        # scoring behaviour is byte-identical
        np.testing.assert_allclose(
            loaded.item_score_table(), fitted_tiny_model.item_score_table()
        )
        # assignments and time lookups
        for user in fitted_tiny_model.assignments:
            np.testing.assert_array_equal(
                loaded.skill_trajectory(user), fitted_tiny_model.skill_trajectory(user)
            )
            assert loaded.skill_at(user, 3.0) == fitted_tiny_model.skill_at(user, 3.0)
        # downstream estimators work on the loaded model
        from repro.core.difficulty import generation_difficulty

        original = generation_difficulty(fitted_tiny_model, prior="empirical")
        restored = generation_difficulty(loaded, prior="empirical")
        for item_id, value in original.items():
            assert restored[item_id] == pytest.approx(value)

    def test_returns_both_paths(self, fitted_tiny_model, tmp_path):
        json_path, npz_path = save_model(fitted_tiny_model, tmp_path / "m")
        assert json_path.exists() and npz_path.exists()

    def test_vocabularies_survive(self, fitted_tiny_model, tmp_path):
        save_model(fitted_tiny_model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        assert loaded.encoded.vocabulary("color") == fitted_tiny_model.encoded.vocabulary(
            "color"
        )
        top_original = fitted_tiny_model.top_items(1, 3)
        top_loaded = loaded.top_items(1, 3)
        assert [i for i, _ in top_original] == [i for i, _ in top_loaded]


class TestTelemetryPersistence:
    def test_telemetry_round_trips(self, fitted_tiny_model, tmp_path):
        assert fitted_tiny_model.telemetry is not None
        save_model(fitted_tiny_model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        assert loaded.telemetry == fitted_tiny_model.telemetry

    def test_null_telemetry_loads(self, fitted_tiny_model, tmp_path):
        json_path, _ = save_model(fitted_tiny_model, tmp_path / "model")
        structure = json.loads(json_path.read_text())
        structure["telemetry"] = None
        json_path.write_text(json.dumps(structure))
        loaded = load_model(tmp_path / "model")
        assert loaded.telemetry is None

    def test_legacy_model_without_telemetry_key(self, fitted_tiny_model, tmp_path):
        json_path, _ = save_model(fitted_tiny_model, tmp_path / "model")
        structure = json.loads(json_path.read_text())
        del structure["telemetry"]  # pre-telemetry writers did not record one
        json_path.write_text(json.dumps(structure))
        loaded = load_model(tmp_path / "model")
        assert loaded.telemetry is None

    def test_malformed_telemetry_rejected(self, fitted_tiny_model, tmp_path):
        json_path, _ = save_model(fitted_tiny_model, tmp_path / "model")
        structure = json.loads(json_path.read_text())
        structure["telemetry"] = {"run_id": "x"}  # missing required keys
        json_path.write_text(json.dumps(structure))
        with pytest.raises(DataError, match="malformed telemetry"):
            load_model(tmp_path / "model")

    def test_save_and_load_record_metrics(self, fitted_tiny_model, tmp_path):
        from repro.obs.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            save_model(fitted_tiny_model, tmp_path / "model")
            load_model(tmp_path / "model")
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["model.save_seconds"]["count"] == 1
        assert snapshot["histograms"]["model.load_seconds"]["count"] == 1
        assert snapshot["gauges"]["model.artifact_bytes"] > 0


class TestFailureModes:
    def test_missing_files(self, tmp_path):
        with pytest.raises(DataError):
            load_model(tmp_path / "nope")

    def test_malformed_json(self, fitted_tiny_model, tmp_path):
        json_path, _ = save_model(fitted_tiny_model, tmp_path / "model")
        json_path.write_text("{not json")
        with pytest.raises(DataError):
            load_model(tmp_path / "model")

    def test_wrong_format_version(self, fitted_tiny_model, tmp_path):
        json_path, _ = save_model(fitted_tiny_model, tmp_path / "model")
        structure = json.loads(json_path.read_text())
        structure["format_version"] = 999
        json_path.write_text(json.dumps(structure))
        with pytest.raises(DataError, match=str(json_path)):
            load_model(tmp_path / "model")

    def test_missing_array(self, fitted_tiny_model, tmp_path):
        json_path, npz_path = save_model(fitted_tiny_model, tmp_path / "model")
        # rewrite the npz without one required cell
        with np.load(npz_path) as npz:
            arrays = dict(npz)
        arrays.pop("cell_0_0")
        with npz_path.open("wb") as handle:
            np.savez(handle, **arrays)
        _restamp_checksum(json_path, npz_path)  # target the missing-array path
        with pytest.raises(DataError, match="missing required array"):
            load_model(tmp_path / "model")

    def test_truncated_npz(self, fitted_tiny_model, tmp_path):
        json_path, npz_path = save_model(fitted_tiny_model, tmp_path / "model")
        data = npz_path.read_bytes()
        npz_path.write_bytes(data[: len(data) // 2])
        _restamp_checksum(json_path, npz_path)  # target the truncation path
        with pytest.raises(DataError, match="truncated or corrupted"):
            load_model(tmp_path / "model")

    def test_checksum_mismatch_names_both_hashes(self, fitted_tiny_model, tmp_path):
        json_path, npz_path = save_model(fitted_tiny_model, tmp_path / "model")
        data = bytearray(npz_path.read_bytes())
        data[-1] ^= 0xFF  # flip one byte, keep the length
        npz_path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="checksum mismatch") as excinfo:
            load_model(tmp_path / "model")
        assert str(npz_path) in str(excinfo.value)

    def test_legacy_model_without_checksums_still_loads(
        self, fitted_tiny_model, tmp_path
    ):
        json_path, _ = save_model(fitted_tiny_model, tmp_path / "model")
        structure = json.loads(json_path.read_text())
        del structure["checksums"]  # pre-checksum writers did not record one
        json_path.write_text(json.dumps(structure))
        loaded = load_model(tmp_path / "model")
        assert loaded.num_levels == fitted_tiny_model.num_levels


class TestCrashSafety:
    def test_no_tmp_litter_after_save(self, fitted_tiny_model, tmp_path):
        save_model(fitted_tiny_model, tmp_path / "model")
        assert not list(tmp_path.glob("*.tmp"))

    def test_resave_over_loaded_model(self, fitted_tiny_model, tmp_path):
        """The NPZ is read fully into memory on load, so the file handle is
        closed and the pair can be overwritten immediately (regression for
        a leaked NpzFile handle)."""
        save_model(fitted_tiny_model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        save_model(loaded, tmp_path / "model")
        again = load_model(tmp_path / "model")
        assert again.log_likelihood == pytest.approx(fitted_tiny_model.log_likelihood)


# ------------------------------------------------------------ columnar layout


def _assert_same_model(left, right):
    """Identical user order, level paths, action times and LL trace."""
    assert list(left.assignments) == list(right.assignments)
    for user in left.assignments:
        assert left.assignments[user].dtype == np.int64
        assert left._assignment_times[user].dtype == np.float64
        np.testing.assert_array_equal(left.assignments[user], right.assignments[user])
        np.testing.assert_array_equal(
            left._assignment_times[user], right._assignment_times[user]
        )
    assert left.trace.log_likelihoods == right.trace.log_likelihoods
    np.testing.assert_array_equal(left.item_score_table(), right.item_score_table())


class TestColumnarLayout:
    def test_array_count_does_not_grow_with_users(self, fitted_tiny_model, tmp_path):
        _, npz_path = save_model(fitted_tiny_model, tmp_path / "model")
        levels, features = fitted_tiny_model.num_levels, len(fitted_tiny_model.feature_set)
        expected = {f"cell_{s}_{f}" for s in range(levels) for f in range(features)}
        expected |= {f"column_{f}" for f in range(features)}
        expected |= {"levels", "times", "offsets"}
        with np.load(npz_path) as npz:
            assert set(npz.files) == expected
            offsets = npz["offsets"]
        lengths = [len(path) for path in fitted_tiny_model.assignments.values()]
        np.testing.assert_array_equal(offsets, np.concatenate([[0], np.cumsum(lengths)]))
        assert offsets.dtype == np.int64

    def test_restored_paths_are_views_into_one_flat_array(
        self, fitted_tiny_model, tmp_path
    ):
        save_model(fitted_tiny_model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        paths = list(loaded.assignments.values())
        assert all(path.base is not None and path.base is paths[0].base for path in paths)
        _assert_same_model(loaded, fitted_tiny_model)

    def test_predict_ranks_survive_disk_and_shm(self, fitted_tiny_model, tiny_log, tmp_path):
        from repro.data.splits import HeldOutAction
        from repro.recsys.ranking import predict_items

        held = []
        for user in tiny_log.users:
            sequence = tiny_log.sequence(user)
            held.append(HeldOutAction(sequence[len(sequence) // 2], len(sequence) // 2, len(sequence)))
        expected = predict_items(fitted_tiny_model, held).ranks
        save_model(fitted_tiny_model, tmp_path / "model")
        np.testing.assert_array_equal(predict_items(load_model(tmp_path / "model"), held).ranks, expected)
        segment, descriptor = publish_model_shm(fitted_tiny_model)
        try:
            attached, mapping = attach_model_shm(descriptor)
            np.testing.assert_array_equal(predict_items(attached, held).ranks, expected)
            del attached
            mapping.close()
        finally:
            segment.close()
            segment.unlink()


def _with_state(model, users, paths, stamps):
    return dataclasses.replace(
        model,
        assignments={user: paths[user] for user in users},
        _assignment_times={user: stamps[user] for user in users},
    )


@st.composite
def _assignment_state(draw):
    """Users (all int or all unicode ids, possibly none) with monotone
    level paths of arbitrary length, including empty ones."""
    users = draw(
        st.one_of(
            st.lists(st.integers(-(2**40), 2**40), unique=True, max_size=6),
            st.lists(st.text(max_size=5), unique=True, max_size=6),
        )
    )
    paths, stamps = {}, {}
    for user in users:
        length = draw(st.integers(0, 7))
        levels = draw(st.lists(st.integers(1, 3), min_size=length, max_size=length))
        gaps = draw(
            st.lists(st.floats(0.0, 1e6), min_size=length, max_size=length)
        )
        paths[user] = np.sort(np.asarray(levels, dtype=np.int64))
        stamps[user] = np.cumsum(np.asarray(gaps, dtype=np.float64))
    return users, paths, stamps


_FIXTURE_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestRoundTripProperty:
    @_FIXTURE_SETTINGS
    @given(state=_assignment_state())
    def test_save_load(self, fitted_tiny_model, tmp_path, state):
        model = _with_state(fitted_tiny_model, *state)
        save_model(model, tmp_path / "model")
        _assert_same_model(load_model(tmp_path / "model"), model)

    @_FIXTURE_SETTINGS
    @given(state=_assignment_state())
    def test_publish_attach(self, fitted_tiny_model, state):
        model = _with_state(fitted_tiny_model, *state)
        segment, descriptor = publish_model_shm(model)
        try:
            attached, mapping = attach_model_shm(descriptor)
            _assert_same_model(attached, model)
            del attached
            mapping.close()
        finally:
            segment.close()
            segment.unlink()


def _shorten(name):
    def corrupt(arrays):
        arrays[name] = arrays[name][:-1]

    return corrupt


def _set_offset(position, value):
    def corrupt(arrays):
        offsets = arrays["offsets"].copy()
        offsets[position] = value(offsets)
        arrays["offsets"] = offsets

    return corrupt


#: (corruption of the payload arrays, fragment of the expected error)
_TORN_OFFSETS = {
    "wrong_length": (_shorten("offsets"), "offsets must be 4 integers"),
    "nonzero_start": (_set_offset(0, lambda o: 1), "offsets must start at 0"),
    "decreasing": (_set_offset(1, lambda o: o[2] + 1), "offsets decrease"),
    "short_end": (_set_offset(-1, lambda o: o[-1] - 1), "offsets end at"),
    "levels_times_differ": (_shorten("times"), "must be flat arrays of one length"),
}


@pytest.fixture
def torn_payload(monkeypatch):
    """Make every publication path write arrays mangled by ``corrupt``."""

    def install(corrupt):
        original = serialize._model_payload

        def payload(model, **kwargs):
            structure, arrays = original(model, **kwargs)
            corrupt(arrays)
            return structure, arrays

        monkeypatch.setattr(serialize, "_model_payload", payload)

    return install


class TestTornOffsets:
    @pytest.mark.parametrize("case", sorted(_TORN_OFFSETS))
    def test_npz_rejects(self, fitted_tiny_model, tmp_path, torn_payload, case):
        corrupt, fragment = _TORN_OFFSETS[case]
        assert len(fitted_tiny_model.assignments) == 3
        torn_payload(corrupt)
        _, npz_path = save_model(fitted_tiny_model, tmp_path / "model")
        with pytest.raises(DataError, match=fragment) as excinfo:
            load_model(tmp_path / "model")
        assert str(npz_path) in str(excinfo.value)

    @pytest.mark.parametrize("case", sorted(_TORN_OFFSETS))
    def test_shm_rejects(self, fitted_tiny_model, torn_payload, case):
        corrupt, fragment = _TORN_OFFSETS[case]
        torn_payload(corrupt)
        segment, descriptor = publish_model_shm(fitted_tiny_model)
        try:
            with pytest.raises(DataError, match=fragment) as excinfo:
                attach_model_shm(descriptor)
            assert f"shm:{descriptor['name']}" in str(excinfo.value)
        finally:
            segment.close()
            segment.unlink()


class TestLegacyV1:
    def test_v1_pair_loads_to_the_v2_model(
        self, fitted_tiny_model, tmp_path, save_v1_artifact
    ):
        save_model(fitted_tiny_model, tmp_path / "v2")
        json_path, npz_path = save_v1_artifact(fitted_tiny_model, tmp_path / "v1")
        assert json.loads(json_path.read_text())["format_version"] == 1
        with np.load(npz_path) as npz:
            assert "assign_0" in npz.files and "offsets" not in npz.files
        legacy = load_model(tmp_path / "v1")
        _assert_same_model(legacy, load_model(tmp_path / "v2"))
        assert legacy.telemetry == fitted_tiny_model.telemetry

    def test_v1_pair_resaves_as_v2(self, fitted_tiny_model, tmp_path, save_v1_artifact):
        save_v1_artifact(fitted_tiny_model, tmp_path / "v1")
        save_model(load_model(tmp_path / "v1"), tmp_path / "again")
        save_model(fitted_tiny_model, tmp_path / "v2")
        for suffix in (".json", ".npz"):
            assert (tmp_path / "again").with_suffix(suffix).read_bytes() == (
                tmp_path / "v2"
            ).with_suffix(suffix).read_bytes()
        assert artifact_metadata(tmp_path / "again")["format_version"] == _FORMAT_VERSION
