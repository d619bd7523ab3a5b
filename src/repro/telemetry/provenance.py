"""Run provenance: which code / config / weights produced this telemetry?

Every scientific claim a trace supports is only as strong as the answer
to "what exactly ran?". This module collects that answer once per
process and stamps it into traces as a ``provenance`` event (see
:data:`repro.telemetry.trace.SCHEMAS`):

* **git SHA + dirty flag** — the commit the source tree was at, and
  whether uncommitted changes were present (``git`` queried once per
  process; ``"unknown"`` when the tree is not a git checkout).
* **config hash** — SHA-256 over the canonical JSON form of the
  :class:`~repro.sim.config.ScenarioConfig` (nested dataclasses
  included), so two runs with silently different physics never compare
  as equals.
* **weights checksums** — the SHA-256 content checksums embedded in
  ``.npz`` checkpoints by :func:`repro.utils.serialization.save_checkpoint`
  (read without loading the arrays; legacy checkpoints fall back to
  recomputing via :func:`~repro.utils.serialization.checksum_arrays`).
* **REPRO_* environment snapshot** — every knob that changes behaviour
  (the run label, span tracing, histogram caps, ...).

Stamping is one event per :class:`~repro.telemetry.trace.TraceWriter`
(:func:`stamp_provenance` is idempotent per writer), emitted before the
first ``episode_start``, so ingestion can hoist it into the store's
``runs`` table without scanning the whole file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

#: Version of the provenance block itself (bump on field changes).
PROVENANCE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Provenance:
    """One immutable answer to "what produced this run?"."""

    git_sha: str = "unknown"
    git_dirty: bool = False
    #: SHA-256 hex over the canonical scenario-config JSON ("" = unknown).
    config_hash: str = ""
    #: Checkpoint name -> ``sha256:...`` content checksum.
    weights: dict = field(default_factory=dict)
    #: ``REPRO_*`` environment snapshot at collection time.
    env: dict = field(default_factory=dict)
    schema: int = PROVENANCE_SCHEMA_VERSION
    python: str = ""
    numpy: str = ""

    def to_json(self) -> dict:
        """Plain JSON-serializable dict (also the trace-event payload)."""
        return {
            "schema": int(self.schema),
            "git_sha": self.git_sha,
            "git_dirty": bool(self.git_dirty),
            "config_hash": self.config_hash,
            "weights": dict(self.weights),
            "env": dict(self.env),
            "python": self.python,
            "numpy": self.numpy,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Provenance":
        return cls(
            git_sha=str(payload.get("git_sha", "unknown")),
            git_dirty=bool(payload.get("git_dirty", False)),
            config_hash=str(payload.get("config_hash", "")),
            weights=dict(payload.get("weights", {})),
            env=dict(payload.get("env", {})),
            schema=int(payload.get("schema", PROVENANCE_SCHEMA_VERSION)),
            python=str(payload.get("python", "")),
            numpy=str(payload.get("numpy", "")),
        )


_GIT_CACHE: tuple[str, bool] | None = None


def _repo_root() -> Path:
    # src/repro/telemetry/provenance.py -> repository root is parents[3].
    return Path(__file__).resolve().parents[3]


def git_revision(root: str | Path | None = None) -> tuple[str, bool]:
    """``(sha, dirty)`` of the source checkout, cached per process.

    ``("unknown", False)`` when ``git`` is unavailable or the tree is not
    a checkout — provenance degrades, it never raises.
    """
    global _GIT_CACHE
    if root is None and _GIT_CACHE is not None:
        return _GIT_CACHE
    cwd = Path(root) if root is not None else _repo_root()
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
        if not sha:
            result = ("unknown", False)
        else:
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=cwd, capture_output=True, text=True, timeout=10,
            ).stdout
            result = (sha, bool(status.strip()))
    except (OSError, subprocess.SubprocessError):
        result = ("unknown", False)
    if root is None:
        _GIT_CACHE = result
    return result


def reset_git_cache() -> None:
    """Forget the cached git revision (tests)."""
    global _GIT_CACHE
    _GIT_CACHE = None


def config_hash(config: object | None) -> str:
    """SHA-256 hex of the canonical JSON form of a (nested) dataclass.

    ``None`` hashes the default :class:`~repro.sim.config.ScenarioConfig`
    — the same convention the episode runners use.
    """
    if config is None:
        from repro.sim.config import ScenarioConfig

        config = ScenarioConfig()
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    elif isinstance(config, dict):
        payload = config
    else:
        payload = {"repr": repr(config)}
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def checkpoint_checksum(path: str | Path) -> str | None:
    """The ``sha256:...`` content checksum of a checkpoint file.

    Format-v2 checkpoints (:func:`repro.utils.serialization.save_checkpoint`)
    embed the checksum in their metadata; it is read here without loading
    the weight arrays. Legacy (v1) checkpoints are loaded and checksummed
    with the same :func:`~repro.utils.serialization.checksum_arrays` the
    writer uses. ``None`` when the file is missing or unreadable.
    """
    import numpy as np

    path = Path(path)
    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            if "__meta__" in data.files:
                meta = json.loads(
                    bytes(data["__meta__"].tobytes()).decode("utf-8")
                )
                checksum = (
                    meta.get("__format__", {}).get("checksum")
                    if isinstance(meta, dict)
                    else None
                )
                if checksum:
                    return str(checksum)
            from repro.utils.serialization import checksum_arrays

            arrays = {
                name: data[name]
                for name in data.files
                if name != "__meta__"
            }
            return f"sha256:{checksum_arrays(arrays)}"
    except Exception:
        return None


def env_snapshot() -> dict[str, str]:
    """Every ``REPRO_*`` environment variable currently set."""
    return {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_")
    }


def collect(
    config: object | None = None,
    weights: dict[str, str | Path | None] | None = None,
) -> Provenance:
    """Collect the provenance block for this process.

    ``weights`` maps checkpoint names to paths (or precomputed
    ``sha256:...`` strings); unreadable entries are dropped.
    """
    import numpy as np

    sha, dirty = git_revision()
    checksums: dict[str, str] = {}
    for name, target in (weights or {}).items():
        if target is None:
            continue
        value = str(target)
        if not value.startswith("sha256:"):
            found = checkpoint_checksum(value)
            if found is None:
                continue
            value = found
        checksums[str(name)] = value
    return Provenance(
        git_sha=sha,
        git_dirty=dirty,
        config_hash=config_hash(config),
        weights=checksums,
        env=env_snapshot(),
        python=platform.python_version(),
        numpy=str(np.__version__),
    )


def stamp_provenance(
    writer,
    config: object | None = None,
    weights: dict[str, str | Path | None] | None = None,
) -> dict | None:
    """Emit one ``provenance`` event on ``writer`` (idempotent per writer).

    Returns the emitted record, or ``None`` when this writer was already
    stamped. The episode runners call this before their first
    ``episode_start`` so a trace's provenance sits at the top of the file.
    """
    if getattr(writer, "_provenance_stamped", False):
        return None
    record = writer.emit("provenance", **collect(config, weights).to_json())
    writer._provenance_stamped = True
    return record

