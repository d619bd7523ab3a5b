"""Tests for run provenance: collection and stamping."""

import json

import numpy as np
import pytest

from repro.sim.config import ScenarioConfig
from repro.telemetry.provenance import (
    Provenance,
    checkpoint_checksum,
    collect,
    config_hash,
    env_snapshot,
    git_revision,
    reset_git_cache,
    stamp_provenance,
)
from repro.telemetry.trace import TraceWriter, validate_event

pytestmark = pytest.mark.telemetry


class TestGitRevision:
    def test_reports_this_checkout(self):
        reset_git_cache()
        sha, dirty = git_revision()
        assert sha != "" and isinstance(dirty, bool)
        if sha != "unknown":
            assert len(sha) == 40

    def test_cached_per_process(self):
        reset_git_cache()
        assert git_revision() is git_revision()

    def test_non_checkout_degrades(self, tmp_path):
        sha, dirty = git_revision(tmp_path)
        assert (sha, dirty) == ("unknown", False)


class TestConfigHash:
    def test_none_means_default_scenario(self):
        assert config_hash(None) == config_hash(ScenarioConfig())

    def test_sensitive_to_any_field(self):
        default = config_hash(ScenarioConfig())
        changed = config_hash(ScenarioConfig(dt=0.05))
        assert default != changed
        assert len(default) == 64

    def test_deterministic(self):
        assert config_hash(ScenarioConfig()) == config_hash(ScenarioConfig())


class TestCheckpointChecksum:
    def test_reads_embedded_checksum_without_arrays(self, tmp_path):
        from repro.utils.serialization import load_checkpoint, save_checkpoint

        path = tmp_path / "weights.npz"
        save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3)})
        checksum = checkpoint_checksum(path)
        assert checksum is not None and checksum.startswith("sha256:")
        # Same value the loader verifies against.
        load_checkpoint(path)  # does not raise => checksum is the real one

    def test_legacy_npz_falls_back_to_recompute(self, tmp_path):
        from repro.utils.serialization import checksum_arrays

        path = tmp_path / "legacy.npz"
        arrays = {"w": np.ones(4)}
        np.savez(path, **arrays)
        assert checkpoint_checksum(path) == (
            f"sha256:{checksum_arrays(arrays)}"
        )

    def test_missing_file_is_none(self, tmp_path):
        assert checkpoint_checksum(tmp_path / "nope.npz") is None


class TestCollect:
    def test_fresh_block_has_all_fields(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "1")
        block = collect()
        assert block.config_hash == config_hash(None)
        assert block.env.get("REPRO_TEST_KNOB") == "1"
        assert block.python and block.numpy

    def test_weights_checksums_resolved_and_missing_dropped(self, tmp_path):
        from repro.utils.serialization import save_checkpoint

        path = tmp_path / "w.npz"
        save_checkpoint(path, {"w": np.ones(2)})
        block = collect(weights={
            "present": path,
            "missing": tmp_path / "gone.npz",
            "precomputed": "sha256:deadbeef",
        })
        assert set(block.weights) == {"present", "precomputed"}
        assert block.weights["precomputed"] == "sha256:deadbeef"


class TestEnvSnapshot:
    def test_only_repro_vars(self, monkeypatch):
        monkeypatch.setenv("REPRO_FOO", "x")
        monkeypatch.setenv("NOT_REPRO", "y")
        snap = env_snapshot()
        assert snap.get("REPRO_FOO") == "x"
        assert "NOT_REPRO" not in snap


class TestStamping:
    def test_one_event_per_writer_and_schema_valid(self):
        writer = TraceWriter(None)
        record = stamp_provenance(writer, ScenarioConfig())
        assert record is not None
        assert stamp_provenance(writer, ScenarioConfig()) is None
        events = [e for e in writer.events if e["event"] == "provenance"]
        assert len(events) == 1
        assert validate_event(json.loads(json.dumps(events[0]))) == []

    def test_run_episode_stamps_before_episode_start(self):
        from repro.agents.modular import ModularAgent
        from repro.eval.episodes import run_episode

        writer = TraceWriter(None)
        for seed in (0, 1):
            run_episode(
                lambda w: ModularAgent(w.road), seed=seed,
                trace=writer, episode_id=seed,
            )
        kinds = [e["event"] for e in writer.events]
        assert kinds[0] == "provenance"
        assert kinds.count("provenance") == 1  # idempotent across episodes
        assert writer.events[0]["config_hash"] == config_hash(None)

    def test_roundtrip_json(self):
        block = collect()
        assert Provenance.from_json(block.to_json()) == block
