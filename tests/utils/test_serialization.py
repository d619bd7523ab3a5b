"""Tests for checkpoint save/load, integrity checking, and atomicity."""

import gc
import json
import warnings
import zipfile

import numpy as np
import pytest

from repro import faults
from repro.utils.serialization import (
    CheckpointCorruptError,
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
)


class TestCheckpointRoundtrip:
    def test_arrays_roundtrip(self, tmp_path):
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        path = save_checkpoint(tmp_path / "model", arrays)
        loaded, meta = load_checkpoint(path)
        assert set(loaded) == {"w", "b"}
        np.testing.assert_array_equal(loaded["w"], arrays["w"])
        assert meta == {}

    def test_meta_roundtrip(self, tmp_path):
        meta = {"obs_dim": 12, "kind": "sac", "nested": {"lr": 3e-4}}
        path = save_checkpoint(tmp_path / "m", {"w": np.ones(2)}, meta)
        _, loaded_meta = load_checkpoint(path)
        assert loaded_meta == meta

    def test_suffix_forced(self, tmp_path):
        path = save_checkpoint(tmp_path / "model.ckpt", {"w": np.ones(1)})
        assert path.suffix == ".npz"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "m", {"__meta__": np.ones(1)})

    def test_creates_parent_dirs(self, tmp_path):
        path = save_checkpoint(tmp_path / "a" / "b" / "m", {"w": np.ones(1)})
        assert path.exists()

    def test_dtype_preserved(self, tmp_path):
        arrays = {"f32": np.ones(3, dtype=np.float32)}
        path = save_checkpoint(tmp_path / "m", arrays)
        loaded, _ = load_checkpoint(path)
        assert loaded["f32"].dtype == np.float32


def _write_legacy(path, arrays, meta=None):
    """A pre-checksum (format v1) checkpoint, as the seed code wrote it."""
    payload = dict(arrays)
    payload["__meta__"] = np.frombuffer(
        json.dumps(meta or {}).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as handle:
        np.savez(handle, **payload)


class TestCheckpointIntegrity:
    def test_truncated_file_raises_actionable_error(self, tmp_path):
        path = save_checkpoint(tmp_path / "m", {"w": np.ones(1000)})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptError) as excinfo:
            load_checkpoint(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "verify-artifacts" in message

    def test_truncated_archive_closes_its_file(self, tmp_path):
        path = save_checkpoint(tmp_path / "m", {"w": np.ones(1000)})
        data = path.read_bytes()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for size in (100, len(data) // 2):
                path.write_bytes(data[:size])
                with pytest.raises(CheckpointCorruptError):
                    load_checkpoint(path)
                assert not verify_checkpoint(path).ok
            gc.collect()
        leaked = [
            str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)
        ]
        assert leaked == []

    def test_bit_flip_fails_checksum(self, tmp_path):
        path = save_checkpoint(tmp_path / "m", {"w": np.arange(64.0)})
        # Corrupt one payload byte while keeping the zip structure valid:
        # rewrite the archive with one array value changed, then splice
        # the original (stale) checksum metadata back in.
        arrays, _ = load_checkpoint(path)
        original_meta = _read_raw_meta(path)
        arrays["w"][3] += 1.0
        payload = dict(arrays)
        payload["__meta__"] = np.frombuffer(
            original_meta.encode("utf-8"), dtype=np.uint8
        )
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
        with pytest.raises(CheckpointCorruptError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_reserved_format_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="__format__"):
            save_checkpoint(
                tmp_path / "m", {"w": np.ones(1)}, {"__format__": {}}
            )

    def test_legacy_checkpoint_loads_with_warning(self, tmp_path):
        import io

        from repro.telemetry.log import configure

        _write_legacy(tmp_path / "old.npz", {"w": np.arange(3.0)}, {"k": 1})
        stream = io.StringIO()
        configure(level="warning", stream=stream, force=True)
        try:
            arrays, meta = load_checkpoint(tmp_path / "old.npz")
        finally:
            configure(force=True)
        np.testing.assert_array_equal(arrays["w"], np.arange(3.0))
        assert meta == {"k": 1}
        assert "checkpoint.legacy_format" in stream.getvalue()

    def test_format_metadata_hidden_from_caller(self, tmp_path):
        path = save_checkpoint(tmp_path / "m", {"w": np.ones(2)}, {"a": 1})
        _, meta = load_checkpoint(path)
        assert meta == {"a": 1}

    def test_failed_write_leaves_previous_checkpoint_intact(
        self, tmp_path, monkeypatch
    ):
        path = save_checkpoint(tmp_path / "m", {"w": np.zeros(4)})
        original = path.read_bytes()

        def boom(*args, **kwargs):
            raise OSError("disk exploded mid-write")

        monkeypatch.setattr(np, "savez", boom)
        with pytest.raises(OSError):
            save_checkpoint(tmp_path / "m", {"w": np.ones(4)})
        assert path.read_bytes() == original
        assert list(tmp_path.glob("*.tmp")) == []  # temp file cleaned up

    def test_enospc_fault_hook_fires_before_touching_the_file(
        self, tmp_path, monkeypatch
    ):
        path = save_checkpoint(tmp_path / "m", {"w": np.zeros(4)})
        original = path.read_bytes()
        monkeypatch.setenv("REPRO_FAULTS", "enospc@save=0")
        faults.reset_active_plan()
        try:
            with pytest.raises(OSError) as excinfo:
                save_checkpoint(tmp_path / "m", {"w": np.ones(4)})
            assert "space" in str(excinfo.value)
            assert path.read_bytes() == original
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            faults.reset_active_plan()


def _read_raw_meta(path) -> str:
    with np.load(path, allow_pickle=False) as data:
        return bytes(data["__meta__"].tobytes()).decode("utf-8")


class TestVerifyCheckpoint:
    def test_good_checkpoint(self, tmp_path):
        path = save_checkpoint(tmp_path / "m", {"w": np.ones(5)})
        report = verify_checkpoint(path)
        assert report.ok and not report.legacy
        assert report.status == "ok"
        assert report.arrays == 1

    def test_legacy_checkpoint(self, tmp_path):
        _write_legacy(tmp_path / "old.npz", {"w": np.ones(2)})
        report = verify_checkpoint(tmp_path / "old.npz")
        assert report.ok and report.legacy
        assert report.status == "legacy"

    def test_truncated_checkpoint(self, tmp_path):
        path = save_checkpoint(tmp_path / "m", {"w": np.ones(500)})
        path.write_bytes(path.read_bytes()[:100])
        report = verify_checkpoint(path)
        assert not report.ok
        assert report.status == "CORRUPT"
        assert report.reason

    def test_missing_checkpoint(self, tmp_path):
        report = verify_checkpoint(tmp_path / "nope.npz")
        assert not report.ok
        assert report.reason == "missing"

    def test_not_a_zip(self, tmp_path):
        target = tmp_path / "junk.npz"
        target.write_bytes(b"this is not an npz archive")
        report = verify_checkpoint(target)
        assert not report.ok

    def test_zip_without_meta_is_legacy(self, tmp_path):
        target = tmp_path / "plain.npz"
        with open(target, "wb") as handle:
            np.savez(handle, w=np.ones(3))
        assert zipfile.is_zipfile(target)
        report = verify_checkpoint(target)
        assert report.ok and report.legacy
