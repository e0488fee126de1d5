"""Tests for the simulate → fit → score CLI pipeline and schema IO."""

import json

import pytest

from repro.cli import main
from repro.core.serialize import _FORMAT_VERSION
from repro.core.features import FeatureKind, FeatureSet, FeatureSpec
from repro.exceptions import ConfigurationError


class TestFeatureSetJson:
    def test_round_trip(self):
        fs = FeatureSet(
            [
                FeatureSpec("a", FeatureKind.CATEGORICAL, vocabulary=("x", "y")),
                FeatureSpec("b", FeatureKind.COUNT),
                FeatureSpec("c", FeatureKind.POSITIVE),
            ]
        )
        restored = FeatureSet.from_json(fs.to_json())
        assert restored.names == fs.names
        assert restored.specs[0].vocabulary == ("x", "y")
        assert restored.specs[1].kind is FeatureKind.COUNT

    def test_json_serializable(self):
        fs = FeatureSet([FeatureSpec("a", FeatureKind.COUNT)])
        json.dumps(fs.to_json())  # must not raise

    def test_malformed_payload(self):
        with pytest.raises(ConfigurationError):
            FeatureSet.from_json([{"name": "a", "kind": "nonsense"}])
        with pytest.raises(ConfigurationError):
            FeatureSet.from_json([{"kind": "count"}])


class TestCliPipeline:
    def test_simulate_fit_score(self, tmp_path, capsys):
        data = str(tmp_path / "cook")
        model = str(tmp_path / "model")
        assert main(
            ["simulate", "cooking", "--out", data, "--users", "60", "--items", "200", "--seed", "2"]
        ) == 0
        assert (tmp_path / "cook.log.jsonl").exists()
        assert (tmp_path / "cook.catalog.jsonl").exists()
        assert (tmp_path / "cook.schema.json").exists()

        assert main(
            [
                "fit", data,
                "--levels", "4",
                "--model", model,
                "--init-min-actions", "10",
                "--max-iterations", "10",
            ]
        ) == 0
        assert (tmp_path / "model.json").exists()
        assert (tmp_path / "model.npz").exists()

        out_file = str(tmp_path / "difficulty.jsonl")
        assert main(["score", model, "--top", "3", "--output", out_file]) == 0
        lines = (tmp_path / "difficulty.jsonl").read_text().strip().splitlines()
        assert len(lines) == 200
        record = json.loads(lines[0])
        assert 1.0 <= record["difficulty"] <= 4.0
        out = capsys.readouterr().out
        assert "fitted in" in out

    def test_simulate_language_has_no_items_knob(self, tmp_path, capsys):
        code = main(
            ["simulate", "language", "--out", str(tmp_path / "x"), "--items", "10"]
        )
        assert code == 2
        assert "no --items knob" in capsys.readouterr().err

    def test_simulate_unknown_domain(self):
        with pytest.raises(SystemExit):
            main(["simulate", "chess", "--out", "x"])

    def test_score_missing_model(self, tmp_path, capsys):
        assert main(["score", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err


class TestCliObservability:
    @pytest.fixture(autouse=True)
    def _clean_logging(self):
        from repro.obs.logging import reset_logging

        yield
        reset_logging()

    def _simulate(self, tmp_path):
        data = str(tmp_path / "cook")
        assert main(
            ["simulate", "cooking", "--out", data, "--users", "40", "--items", "120", "--seed", "3"]
        ) == 0
        return data

    def test_fit_emits_jsonl_logs_and_metrics(self, tmp_path, capsys):
        from repro.obs.metrics import MetricsRegistry, use_registry

        data = self._simulate(tmp_path)
        model = str(tmp_path / "model")
        metrics_path = tmp_path / "metrics.json"
        # A scoped registry keeps the snapshot free of instruments other
        # tests in this process already touched.
        with use_registry(MetricsRegistry()):
            assert main(
                [
                    "fit", data,
                    "--levels", "3",
                    "--model", model,
                    "--init-min-actions", "10",
                    "--max-iterations", "5",
                    "--checkpoint-every", "1",
                    "--log-level", "INFO",
                    "--log-json",
                    "--metrics-out", str(metrics_path),
                ]
            ) == 0
        captured = capsys.readouterr()
        assert "wrote metrics to" in captured.out

        # Every log line is a JSON record with the documented schema, and
        # the iteration events carry the structured payload.
        log_lines = [l for l in captured.err.splitlines() if l.strip()]
        assert log_lines
        events = []
        for line in log_lines:
            record = json.loads(line)
            for key in ("ts", "level", "run", "component", "event", "elapsed_ms"):
                assert key in record
            events.append(record["event"])
        assert "iteration" in events
        assert "checkpoint written" in events
        assert "fit complete" in events
        assert "model saved" in events

        # The metrics file satisfies the acceptance criteria: per-iteration
        # LLs, per-stage wall time, pool events, checkpoint accounting.
        payload = json.loads(metrics_path.read_text())
        assert payload["schema"] == "repro-metrics/1"
        telemetry = payload["telemetry"]
        iterations = len(telemetry["log_likelihoods"])
        assert iterations >= 1
        assert len(telemetry["iterations"]) == iterations
        for stage in ("table_build", "assign", "cell_fit", "checkpoint", "iteration"):
            assert stage in telemetry["stage_seconds"]
            assert payload["histograms"][f"train.{stage}_seconds"]["count"] == iterations
        assert set(telemetry["pool_events"]) == {"rebuilds", "degraded", "chunk_timeouts"}
        assert telemetry["checkpoints"], "checkpoint-every 1 must record events"
        assert payload["counters"]["checkpoint.writes"] == len(telemetry["checkpoints"])
        assert payload["counters"]["train.iterations"] == iterations
        assert payload["run"] == telemetry["run_id"]

        # The stdlib checker accepts both artifacts end to end.
        import subprocess
        import sys as _sys
        from pathlib import Path as _Path

        log_file = tmp_path / "fit.log.jsonl"
        log_file.write_text("\n".join(log_lines) + "\n")
        checker = _Path(__file__).resolve().parents[1] / "tools" / "check_obs_output.py"
        proc = subprocess.run(
            [_sys.executable, str(checker), "--log", str(log_file), "--metrics", str(metrics_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_inspect_prints_telemetry_section(self, tmp_path, capsys):
        data = self._simulate(tmp_path)
        model = str(tmp_path / "model")
        assert main(
            [
                "fit", data,
                "--levels", "3",
                "--model", model,
                "--init-min-actions", "10",
                "--max-iterations", "5",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["inspect", model]) == 0
        out = capsys.readouterr().out
        assert "## Telemetry" in out
        assert "stage wall-time" in out

    def test_inspect_prints_artifact_section(self, tmp_path, capsys):
        data = self._simulate(tmp_path)
        model = str(tmp_path / "model")
        assert main(
            [
                "fit", data,
                "--levels", "3",
                "--model", model,
                "--init-min-actions", "10",
                "--max-iterations", "5",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["inspect", model]) == 0
        out = capsys.readouterr().out
        assert "## Artifacts" in out
        assert f"format version: {_FORMAT_VERSION}" in out
        assert "(verified)" in out
        assert "telemetry run: " in out
        # the run id printed in Artifacts is the saved telemetry's run id
        import json as _json

        run_id = _json.loads((tmp_path / "model.json").read_text())["telemetry"]["run_id"]
        assert run_id in out

    def test_run_metrics_out_without_fit_telemetry(self, tmp_path, capsys):
        metrics_path = tmp_path / "run-metrics.json"
        assert main(["run", "table1", "--metrics-out", str(metrics_path)]) == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["schema"] == "repro-metrics/1"
        assert payload["telemetry"] is None
        capsys.readouterr()


class TestCliCheckpointing:
    def _simulate(self, tmp_path):
        data = str(tmp_path / "cook")
        assert main(
            ["simulate", "cooking", "--out", data, "--users", "40", "--items", "120", "--seed", "3"]
        ) == 0
        return data

    def test_fit_writes_checkpoint_and_resume_continues(self, tmp_path, capsys):
        data = self._simulate(tmp_path)
        model = str(tmp_path / "model")
        assert main(
            [
                "fit", data,
                "--levels", "4",
                "--model", model,
                "--init-min-actions", "10",
                "--max-iterations", "2",
                "--checkpoint-every", "1",
            ]
        ) == 0
        ckpt = tmp_path / "model.ckpt.json"
        assert ckpt.exists()
        assert (tmp_path / "model.json").exists()

        # resume from the checkpoint; config (including the iteration cap)
        # comes from the checkpoint, so this re-materializes and re-saves
        assert main(
            ["fit", data, "--levels", "4", "--model", model, "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert "resuming from" in out
        assert "fitted in" in out

    def test_resume_without_checkpoint_fails_cleanly(self, tmp_path, capsys):
        data = self._simulate(tmp_path)
        model = str(tmp_path / "model")
        assert main(
            ["fit", data, "--levels", "4", "--model", model, "--resume"]
        ) == 2
        assert "no checkpoint" in capsys.readouterr().err


class TestCliStorePipeline:
    """simulate --store / convert → fit → inspect on columnar stores."""

    def _simulate_log(self, tmp_path):
        data = str(tmp_path / "syn")
        assert main(
            [
                "simulate", "synthetic",
                "--out", data,
                "--users", "30",
                "--items", "80",
                "--seed", "4",
            ]
        ) == 0
        return data

    def test_convert_fit_inspect(self, tmp_path, capsys):
        data = self._simulate_log(tmp_path)
        store = str(tmp_path / "syn.store")
        assert main(
            ["convert", data, store, "--users-per-shard", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "converted 30 users" in out
        assert "4 shard(s)" in out

        model = str(tmp_path / "model")
        assert main(
            [
                "fit", data,
                "--levels", "3",
                "--model", model,
                "--init-min-actions", "10",
                "--max-iterations", "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "training out-of-core" in out
        assert (tmp_path / "model.json").exists()

        assert main(["inspect", store]) == 0
        out = capsys.readouterr().out
        assert "## Action store" in out
        assert "users: 30" in out
        assert "shards: 4" in out
        assert "verified" in out
        assert "shard-00000" in out

    def test_store_fit_matches_log_fit(self, tmp_path, capsys):
        data = self._simulate_log(tmp_path)
        store = str(tmp_path / "syn.store")
        assert main(["convert", data, store]) == 0
        assert main(
            [
                "fit", store,
                "--levels", "3",
                "--model", str(tmp_path / "m_store"),
                "--init-min-actions", "10",
                "--max-iterations", "5",
            ]
        ) == 0
        # Hide the store so the same prefix resolves to the JSONL log.
        (tmp_path / "syn.store").rename(tmp_path / "aside.store")
        assert main(
            [
                "fit", data,
                "--levels", "3",
                "--model", str(tmp_path / "m_log"),
                "--init-min-actions", "10",
                "--max-iterations", "5",
            ]
        ) == 0
        capsys.readouterr()
        a = json.loads((tmp_path / "m_store.json").read_text())
        b = json.loads((tmp_path / "m_log.json").read_text())
        assert a["trace"] == b["trace"]
        assert a["cells"] == b["cells"]

    def test_simulate_store_writes_trainable_store(self, tmp_path, capsys):
        data = str(tmp_path / "big")
        assert main(
            [
                "simulate", "synthetic",
                "--out", data,
                "--users", "25",
                "--items", "60",
                "--seed", "1",
                "--store",
                "--users-per-shard", "10",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote 25 users" in out
        assert (tmp_path / "big.store" / "manifest.json").exists()
        assert (tmp_path / "big.catalog.jsonl").exists()
        assert (tmp_path / "big.schema.json").exists()
        assert main(
            [
                "fit", data,
                "--levels", "3",
                "--model", str(tmp_path / "m"),
                "--init-min-actions", "5",
                "--max-iterations", "3",
            ]
        ) == 0

    def test_simulate_store_rejects_real_domains(self, tmp_path, capsys):
        assert main(
            ["simulate", "cooking", "--out", str(tmp_path / "c"), "--store"]
        ) == 2
        assert "synthetic domain" in capsys.readouterr().err

    def test_fit_store_rejects_checkpoint_flags(self, tmp_path, capsys):
        data = str(tmp_path / "big")
        assert main(
            ["simulate", "synthetic", "--out", data, "--users", "10",
             "--items", "40", "--store"]
        ) == 0
        capsys.readouterr()
        args = ["fit", data, "--levels", "3", "--model", str(tmp_path / "m")]
        assert main(args + ["--resume"]) == 2
        assert "not supported for store-backed fits" in capsys.readouterr().err
        assert main(args + ["--checkpoint-every", "2"]) == 2
        assert "not supported for store-backed fits" in capsys.readouterr().err

    def test_convert_missing_log_fails_cleanly(self, tmp_path, capsys):
        assert main(
            ["convert", str(tmp_path / "nope"), str(tmp_path / "n.store")]
        ) == 2
        assert "no action log" in capsys.readouterr().err

    def test_inspect_corrupt_store_exits_nonzero(self, tmp_path, capsys):
        data = self._simulate_log(tmp_path)
        store = str(tmp_path / "syn.store")
        assert main(["convert", data, store]) == 0
        victim = tmp_path / "syn.store" / "shard-00000" / "item.npy"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["inspect", store]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "checksum mismatch" in out
