"""Checkpoint (de)serialization.

Checkpoints are ``.npz`` archives holding named float arrays plus one JSON
metadata blob under the reserved key ``__meta__``. They are the interchange
format between the training pipeline (``examples/train_all.py``), the
shipped artifacts in ``artifacts/`` and the benchmark harness.

Writes are **crash-safe**: :func:`save_checkpoint` serializes into a
same-directory temporary file, fsyncs it, and atomically renames it over
the target with ``os.replace``, so a SIGKILL or power loss mid-write
leaves either the previous checkpoint or the new one — never a torn
half-archive (the failure that corrupted the originally shipped
artifacts). Every checkpoint embeds a format version and a SHA-256
content checksum in its metadata; :func:`load_checkpoint` verifies the
checksum and raises :class:`CheckpointCorruptError` with an actionable
message on truncation or bit-rot instead of surfacing numpy's opaque
zipfile errors. Checkpoints written before the checksum era (format
version 1) still load, with a warning.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import faults
from repro.telemetry.log import get_logger

log = get_logger("utils.serialization")

_META_KEY = "__meta__"
#: Reserved key inside the metadata JSON carrying format/integrity info.
_FORMAT_KEY = "__format__"

#: Format history: 1 = bare ``np.savez`` without integrity info (legacy,
#: read-only); 2 = atomic write + SHA-256 content checksum.
FORMAT_VERSION = 2


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file exists but cannot be trusted.

    Raised on truncated archives, checksum mismatches, and undecodable
    metadata. The message names the file and the repair options, so it is
    actionable from a traceback alone.
    """

    def __init__(self, path: str | Path, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(
            f"checkpoint {self.path} is corrupt: {reason}. "
            "Restore it from the last good snapshot (see the checkpoint "
            "directory's rotation), regenerate it via "
            "examples/train_all.py, or audit the whole directory with "
            "`python -m repro.obsv verify-artifacts`."
        )


def checksum_arrays(arrays: dict[str, np.ndarray]) -> str:
    """Deterministic SHA-256 over array names, dtypes, shapes, and bytes."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(value.dtype).encode("ascii"))
        digest.update(repr(value.shape).encode("ascii"))
        digest.update(value.tobytes())
    return digest.hexdigest()


def save_checkpoint(
    path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None
) -> Path:
    """Atomically write ``arrays`` and ``meta`` to ``path`` (suffix ``.npz``).

    The archive is staged in a same-directory temporary file, fsynced,
    and renamed over ``path`` with ``os.replace`` — readers never observe
    a partially written checkpoint. Returns the final path written.
    """
    path = Path(path).with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved for metadata")
    meta = dict(meta or {})
    if _FORMAT_KEY in meta:
        raise ValueError(
            f"meta key {_FORMAT_KEY!r} is reserved for format/integrity info"
        )
    plan = faults.active_plan()
    if plan is not None:
        plan.on_checkpoint_write(path)
    payload = {name: np.asarray(value) for name, value in arrays.items()}
    meta[_FORMAT_KEY] = {
        "version": FORMAT_VERSION,
        "checksum": f"sha256:{checksum_arrays(payload)}",
        "arrays": len(payload),
    }
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)
    return path


def _fsync_dir(directory: Path) -> None:
    """Flush the directory entry so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; best effort
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def load_checkpoint(
    path: str | Path, verify: bool = True
) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns ``(arrays, meta)``. Raises ``FileNotFoundError`` if missing
    and :class:`CheckpointCorruptError` if the archive is truncated,
    undecodable, or fails its content checksum (``verify=False`` skips
    the checksum recomputation, not the structural checks). Legacy
    checkpoints without integrity metadata load with a warning.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    try:
        # np.load keeps the file it opens when the zip parse of a torn
        # archive raises; opening it here closes it either way.
        with open(path, "rb") as handle, np.load(
            handle, allow_pickle=False
        ) as data:
            arrays = {
                name: data[name] for name in data.files if name != _META_KEY
            }
            if _META_KEY in data.files:
                meta = json.loads(bytes(data[_META_KEY].tobytes()).decode("utf-8"))
            else:
                meta = {}
    except (zipfile.BadZipFile, ValueError, EOFError, OSError, KeyError) as exc:
        raise CheckpointCorruptError(
            path, f"unreadable archive ({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(meta, dict):
        raise CheckpointCorruptError(path, "metadata is not a JSON object")
    fmt = meta.pop(_FORMAT_KEY, None)
    if fmt is None:
        log.warning(
            "checkpoint.legacy_format", path=str(path),
            detail="no checksum; written before format v2",
        )
        return arrays, meta
    if verify:
        expected = str(fmt.get("checksum", ""))
        actual = f"sha256:{checksum_arrays(arrays)}"
        if expected != actual:
            raise CheckpointCorruptError(
                path,
                f"content checksum mismatch (stored {expected or '<missing>'}"
                f", computed {actual})",
            )
    return arrays, meta


@dataclass(frozen=True)
class CheckpointReport:
    """Outcome of auditing one ``.npz`` checkpoint file."""

    path: Path
    ok: bool
    legacy: bool
    arrays: int
    size: int
    reason: str = ""

    @property
    def status(self) -> str:
        if not self.ok:
            return "CORRUPT"
        return "legacy" if self.legacy else "ok"


def verify_checkpoint(path: str | Path) -> CheckpointReport:
    """Audit one checkpoint: structure, metadata, and content checksum."""
    path = Path(path)
    size = path.stat().st_size if path.exists() else 0
    try:
        arrays, _ = load_checkpoint(path)
        # Loadable: distinguish checksummed (v2) from legacy by re-reading
        # the raw metadata blob (load_checkpoint strips the format key).
        with open(path, "rb") as handle, np.load(
            handle, allow_pickle=False
        ) as data:
            legacy = True
            if _META_KEY in data.files:
                meta = json.loads(
                    bytes(data[_META_KEY].tobytes()).decode("utf-8")
                )
                legacy = not (
                    isinstance(meta, dict) and _FORMAT_KEY in meta
                )
    except FileNotFoundError:
        return CheckpointReport(path, False, False, 0, 0, "missing")
    except CheckpointCorruptError as error:
        return CheckpointReport(path, False, False, 0, size, error.reason)
    except (ValueError, OSError) as error:
        return CheckpointReport(path, False, False, 0, size, str(error))
    return CheckpointReport(path, True, legacy, len(arrays), size)
