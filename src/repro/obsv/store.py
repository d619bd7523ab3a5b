"""SQLite-backed telemetry store: ingest traces once, query them forever.

The JSONL traces the telemetry layer emits are append-friendly but
read-hostile: every dashboard render, regression check, or ad-hoc
question re-parses whole files. :class:`TelemetryStore` ingests trace
files and metrics/bench snapshots into an indexed SQLite database
(stdlib ``sqlite3``, no extra deps) so downstream consumers — the
dashboard, ``repro.obsv regress``, and the ``query`` subcommand — hit
indexes instead of re-decoding JSON lines.

Layout (schema version 5):

* ``runs``      — one row per ingested source file (trace or snapshot),
  keyed by absolute path with mtime/size for change detection; re-ingest
  of an unchanged file is a no-op, a changed file is replaced. Since v4
  each trace run also hoists its **provenance**: the run label (the
  ``run`` field ``REPRO_RUN_ID`` stamps on each record), the git SHA /
  dirty flag / config hash from the trace's ``provenance`` event
  (:mod:`repro.telemetry.provenance`), and the full provenance payload —
  so "which runs came from commit X with config Y?" is one indexed
  query, and aggregates can group by run label, git SHA, or config hash.
* ``events``    — one row per trace event. The full record is kept as a
  JSON payload column; the hot filter fields (kind, episode, loop, step,
  tick, t, name) are hoisted into indexed columns. ``name`` (added in
  v2) carries span paths from ``span``/``profile`` events, so per-span
  self-time series are one indexed filter away.
* ``snapshots`` — whole metrics / bench JSON documents by name
  (``EXPERIMENTS_metrics.json``, ``BENCH_telemetry.json``,
  ``PROFILE_report.json``, ...).
* ``meta``      — key/value store (schema version, source directory).

Opening an older store migrates it in place (``ALTER TABLE`` adding the
``name`` column and the ``runs`` provenance columns, backfilled from
payloads); stores newer than this build refuse to open. v5 dropped the
``events.worker`` column: a v4 store keeps it, unused, and needs only
the version stamp.

Field-level reads (``series`` / ``aggregate``) use the SQLite ``json1``
functions when available and fall back to decoding payloads in Python
otherwise, so the store works on minimal SQLite builds too.
"""

from __future__ import annotations

import csv
import io
import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.obsv.loader import EpisodeTrace, split_episodes
from repro.telemetry.log import get_logger
from repro.telemetry.trace import read_trace, validate_event

log = get_logger("obsv.store")

#: Default store filename inside an ingested run directory.
DEFAULT_STORE_NAME = "obsv.sqlite"

SCHEMA_VERSION = 5

#: Aggregations exposed by :meth:`TelemetryStore.aggregate` / the CLI.
AGGREGATES = ("count", "mean", "min", "max", "sum")

#: Provenance keys (hoisted onto ``runs`` in v4) usable as GROUP BY keys;
#: grouping by one joins events to their run row.
PROVENANCE_KEYS = ("label", "git_sha", "config_hash")

#: Columns usable as GROUP BY keys (all indexed or trivially cheap).
GROUP_KEYS = ("kind", "episode", "loop", "run", "name") + PROVENANCE_KEYS

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    source      TEXT NOT NULL UNIQUE,
    kind        TEXT NOT NULL,
    mtime       REAL NOT NULL,
    size        INTEGER NOT NULL,
    events      INTEGER NOT NULL DEFAULT 0,
    label       TEXT,
    git_sha     TEXT,
    dirty       INTEGER,
    config_hash TEXT,
    provenance  TEXT
);
CREATE TABLE IF NOT EXISTS events (
    run_id  INTEGER NOT NULL REFERENCES runs(run_id),
    seq     INTEGER NOT NULL,
    kind    TEXT NOT NULL,
    episode TEXT,
    loop    TEXT,
    step    INTEGER,
    tick    INTEGER,
    t       REAL,
    name    TEXT,
    payload TEXT NOT NULL,
    PRIMARY KEY (run_id, seq)
);
CREATE INDEX IF NOT EXISTS idx_events_kind ON events(kind);
CREATE INDEX IF NOT EXISTS idx_events_episode ON events(episode);
CREATE INDEX IF NOT EXISTS idx_events_loop ON events(loop);
CREATE TABLE IF NOT EXISTS snapshots (
    name    TEXT PRIMARY KEY,
    source  TEXT NOT NULL,
    payload TEXT NOT NULL
);
"""


#: The ``runs`` columns selected into :class:`RunInfo`, in field order.
_RUN_COLUMNS = (
    "run_id, source, kind, events, mtime, size,"
    " label, git_sha, dirty, config_hash"
)


@dataclass(frozen=True)
class RunInfo:
    """One ingested source file."""

    run_id: int
    source: str
    kind: str  # "trace" | "snapshot"
    events: int
    mtime: float
    size: int
    #: Run label (the ``run`` field ``REPRO_RUN_ID`` stamps on records).
    label: str | None = None
    #: Git revision from the trace's provenance event.
    git_sha: str | None = None
    #: 1 when the working tree had uncommitted changes (None = unknown).
    dirty: int | None = None
    #: Scenario-config hash from the trace's provenance event.
    config_hash: str | None = None


def is_store_path(path: str | Path) -> bool:
    """Heuristic: does this path name a telemetry store (vs JSON/JSONL)?"""
    path = Path(path)
    if path.suffix in (".sqlite", ".db", ".sqlite3"):
        return True
    if not path.is_file():
        return False
    with path.open("rb") as handle:
        return handle.read(16) == b"SQLite format 3\x00"


class TelemetryStore:
    """Queryable SQLite mirror of trace files and telemetry snapshots."""

    def __init__(
        self,
        path: str | Path,
        lock_retries: int = 5,
        lock_backoff: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        """Open (or create) a store.

        Writes run in explicit ``BEGIN IMMEDIATE`` transactions and retry
        ``database is locked`` errors up to ``lock_retries`` times with
        exponential backoff starting at ``lock_backoff`` seconds, so a
        live ``obsv watch`` and a concurrent ``obsv ingest`` sharing one
        store contend instead of crashing. ``sleep`` is injectable for
        tests.
        """
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock_retries = max(int(lock_retries), 0)
        self._lock_backoff = float(lock_backoff)
        self._sleep = sleep
        # Autocommit mode: _write issues its own BEGIN IMMEDIATE, and the
        # small native timeout keeps per-statement waits short so the
        # Python-level backoff governs contention.
        self._conn = sqlite3.connect(
            str(self.path), timeout=0.25, isolation_level=None
        )
        self._conn.executescript(_DDL)
        self._json1 = self._probe_json1()
        existing = self.get_meta("schema_version")
        if existing is None:
            self.set_meta("schema_version", str(SCHEMA_VERSION))
        elif int(existing) > SCHEMA_VERSION:
            raise ValueError(
                f"store {self.path} has schema v{existing}, "
                f"this build reads v{SCHEMA_VERSION}"
            )
        elif int(existing) < SCHEMA_VERSION:
            self._migrate(int(existing))
        # The v2 index; created here (not in _DDL) so it lands after an
        # older store's migration has added the column.
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_events_name ON events(name)"
        )

    def _probe_json1(self) -> bool:
        try:
            self._conn.execute("SELECT json_extract('{}', '$.x')")
            return True
        except sqlite3.OperationalError:
            return False

    def _migrate(self, from_version: int) -> None:
        """Upgrade an older store in place (one transaction)."""
        log.info(
            "store.migrate", path=str(self.path),
            from_version=from_version, to_version=SCHEMA_VERSION,
        )
        json1 = self._json1

        def txn(conn: sqlite3.Connection) -> None:
            if from_version < 2:
                columns = {
                    row[1]
                    for row in conn.execute("PRAGMA table_info(events)")
                }
                if "name" not in columns:
                    conn.execute("ALTER TABLE events ADD COLUMN name TEXT")
                # Backfill from payloads so pre-migration span events are
                # filterable too.
                if json1:
                    conn.execute(
                        "UPDATE events SET name ="
                        " json_extract(payload, '$.name')"
                        " WHERE json_extract(payload, '$.name') IS NOT NULL"
                    )
                else:
                    rows = conn.execute(
                        "SELECT run_id, seq, payload FROM events"
                    ).fetchall()
                    for run_id, seq, payload in rows:
                        value = json.loads(payload).get("name")
                        if value is not None:
                            conn.execute(
                                "UPDATE events SET name = ?"
                                " WHERE run_id = ? AND seq = ?",
                                (str(value), run_id, seq),
                            )
            if from_version < 4:
                columns = {
                    row[1]
                    for row in conn.execute("PRAGMA table_info(runs)")
                }
                for column, col_type in (
                    ("label", "TEXT"),
                    ("git_sha", "TEXT"),
                    ("dirty", "INTEGER"),
                    ("config_hash", "TEXT"),
                    ("provenance", "TEXT"),
                ):
                    if column not in columns:
                        conn.execute(
                            f"ALTER TABLE runs ADD COLUMN {column} {col_type}"
                        )
                # Backfill each trace run from its stored events: the
                # label is the first `run` stamp, the rest
                # comes from the trace's provenance event (pre-v4 traces
                # usually have neither — their columns stay NULL).
                run_ids = [
                    row[0]
                    for row in conn.execute(
                        "SELECT run_id FROM runs WHERE kind = 'trace'"
                    )
                ]
                for run_id in run_ids:
                    label = prov = None
                    for (payload,) in conn.execute(
                        "SELECT payload FROM events WHERE run_id = ?"
                        " ORDER BY seq",
                        (run_id,),
                    ):
                        event = json.loads(payload)
                        if label is None and event.get("run") is not None:
                            label = str(event["run"])
                        if prov is None and event.get("event") == "provenance":
                            prov = event
                        if label is not None and prov is not None:
                            break
                    if label is None and prov is None:
                        continue
                    conn.execute(
                        "UPDATE runs SET label = ?, git_sha = ?, dirty = ?,"
                        " config_hash = ?, provenance = ? WHERE run_id = ?",
                        (
                            label,
                            None if prov is None else prov.get("git_sha"),
                            None
                            if prov is None
                            else int(bool(prov.get("git_dirty"))),
                            None if prov is None else prov.get("config_hash"),
                            None
                            if prov is None
                            else json.dumps(prov, separators=(",", ":")),
                            run_id,
                        ),
                    )
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (str(SCHEMA_VERSION),),
            )

        self._write(txn)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    # -- write path ---------------------------------------------------------------

    @staticmethod
    def _is_locked(error: sqlite3.OperationalError) -> bool:
        return "locked" in str(error) or "busy" in str(error)

    def _write(self, txn: Callable[[sqlite3.Connection], object]) -> object:
        """Run ``txn(conn)`` atomically, retrying lock contention.

        ``BEGIN IMMEDIATE`` takes the write lock up front, so the
        transaction either starts with the lock held or fails fast here
        — never half-way through ``txn``. Lock errors back off
        exponentially (``lock_backoff * 2^attempt``) up to
        ``lock_retries`` times before propagating.
        """
        delay = self._lock_backoff
        for attempt in range(self._lock_retries + 1):
            retriable = attempt < self._lock_retries
            try:
                self._conn.execute("BEGIN IMMEDIATE")
            except sqlite3.OperationalError as error:
                if not self._is_locked(error) or not retriable:
                    raise
            else:
                try:
                    result = txn(self._conn)
                    self._conn.execute("COMMIT")
                    return result
                except BaseException as error:
                    try:
                        self._conn.execute("ROLLBACK")
                    except sqlite3.OperationalError:
                        pass
                    if not (
                        isinstance(error, sqlite3.OperationalError)
                        and self._is_locked(error)
                        and retriable
                    ):
                        raise
            log.warning(
                "store.locked_retry", path=str(self.path),
                attempt=attempt + 1, delay_s=delay,
            )
            self._sleep(delay)
            delay *= 2
        raise AssertionError("unreachable")  # loop always returns or raises

    def __enter__(self) -> "TelemetryStore":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- meta ---------------------------------------------------------------------

    def set_meta(self, key: str, value: str) -> None:
        self._write(
            lambda conn: conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, str(value)),
            )
        )

    def get_meta(self, key: str) -> str | None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    # -- ingest -------------------------------------------------------------------

    def _stat(self, path: Path) -> tuple[float, int]:
        stat = path.stat()
        return stat.st_mtime, stat.st_size

    def _existing_run(self, source: str) -> RunInfo | None:
        row = self._conn.execute(
            f"SELECT {_RUN_COLUMNS} FROM runs WHERE source = ?",
            (source,),
        ).fetchone()
        return None if row is None else RunInfo(*row)

    def ingest_trace(self, path: str | Path, force: bool = False) -> RunInfo:
        """Load one JSONL trace file (idempotent on unchanged files).

        Schema-invalid events are skipped, mirroring the non-strict JSONL
        loader, so store-backed consumers see the same event stream.
        """
        path = Path(path).resolve()
        mtime, size = self._stat(path)
        existing = self._existing_run(str(path))
        if (
            existing is not None
            and not force
            and existing.mtime == mtime
            and existing.size == size
        ):
            return existing
        events = [e for e in read_trace(path) if not validate_event(e)]
        # Hoist provenance onto the run row: the run label (the first
        # `run` stamp) and the trace's provenance event.
        label = next(
            (
                str(e["run"])
                for e in events
                if e.get("run") is not None
            ),
            None,
        )
        prov = next(
            (e for e in events if e.get("event") == "provenance"), None
        )
        git_sha = None if prov is None else prov.get("git_sha")
        dirty = None if prov is None else int(bool(prov.get("git_dirty")))
        config_hash = None if prov is None else prov.get("config_hash")
        prov_json = (
            None if prov is None else json.dumps(prov, separators=(",", ":"))
        )

        def txn(conn: sqlite3.Connection) -> int:
            # Re-check under the write lock: another process may have
            # ingested this file between the fast-path check above and
            # BEGIN IMMEDIATE. Concurrent ingests of one file must end
            # with exactly one run row, never two.
            row = conn.execute(
                "SELECT run_id, mtime, size FROM runs WHERE source = ?",
                (str(path),),
            ).fetchone()
            if row is not None:
                if not force and row[1] == mtime and row[2] == size:
                    return row[0]  # a concurrent ingest beat us to it
                conn.execute(
                    "DELETE FROM events WHERE run_id = ?", (row[0],)
                )
                conn.execute(
                    "DELETE FROM runs WHERE run_id = ?", (row[0],)
                )
            cursor = conn.execute(
                "INSERT INTO runs (source, kind, mtime, size, events,"
                " label, git_sha, dirty, config_hash, provenance) "
                "VALUES (?, 'trace', ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    str(path), mtime, size, len(events),
                    label, git_sha, dirty, config_hash, prov_json,
                ),
            )
            run_id = cursor.lastrowid
            conn.executemany(
                "INSERT INTO events "
                "(run_id, seq, kind, episode, loop, step, tick, t, name,"
                " payload) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    (
                        run_id,
                        seq,
                        str(event.get("event", "")),
                        None
                        if event.get("episode") is None
                        else str(event["episode"]),
                        event.get("loop"),
                        event.get("step"),
                        event.get("tick"),
                        event.get("t"),
                        None
                        if event.get("name") is None
                        else str(event["name"]),
                        json.dumps(event, separators=(",", ":")),
                    )
                    for seq, event in enumerate(events)
                ),
            )
            return run_id

        run_id = self._write(txn)
        return RunInfo(
            run_id, str(path), "trace", len(events), mtime, size,
            label, git_sha, dirty, config_hash,
        )

    def ingest_snapshot(
        self, path: str | Path, name: str | None = None
    ) -> RunInfo:
        """Load a metrics / bench JSON document under ``name`` (filename)."""
        path = Path(path).resolve()
        mtime, size = self._stat(path)
        name = name or path.name
        payload = path.read_text(encoding="utf-8")
        json.loads(payload)  # refuse to store non-JSON

        def txn(conn: sqlite3.Connection) -> int:
            # Same under-the-lock re-check as ingest_trace: concurrent
            # ingests of one snapshot must not leave duplicate run rows.
            row = conn.execute(
                "SELECT run_id FROM runs WHERE source = ?", (str(path),)
            ).fetchone()
            if row is not None:
                conn.execute(
                    "DELETE FROM runs WHERE run_id = ?", (row[0],)
                )
            cursor = conn.execute(
                "INSERT INTO runs (source, kind, mtime, size, events) "
                "VALUES (?, 'snapshot', ?, ?, 0)",
                (str(path), mtime, size),
            )
            conn.execute(
                "INSERT INTO snapshots (name, source, payload) VALUES (?, ?, ?) "
                "ON CONFLICT(name) DO UPDATE SET "
                "source = excluded.source, payload = excluded.payload",
                (name, str(path), payload),
            )
            return cursor.lastrowid

        run_id = self._write(txn)
        return RunInfo(run_id, str(path), "snapshot", 0, mtime, size)

    def ingest_dir(
        self, directory: str | Path, pattern: str = "*.jsonl"
    ) -> dict[str, int]:
        """Ingest a run directory: traces plus the standard snapshots.

        Mirrors what the dashboard reads from a directory — every
        ``*.jsonl`` trace (sorted by name) and, when present,
        ``EXPERIMENTS_metrics.json`` / ``BENCH_telemetry.json``.
        Each trace ingests as its own run row, so re-ingesting a growing
        run directory only re-reads the traces that actually changed.
        """
        directory = Path(directory).resolve()
        summary = {"traces": 0, "events": 0, "snapshots": 0}
        for trace_path in sorted(directory.glob(pattern)):
            info = self.ingest_trace(trace_path)
            summary["traces"] += 1
            summary["events"] += info.events
        for name in (
            "EXPERIMENTS_metrics.json",
            "BENCH_telemetry.json",
            "PROFILE_report.json",
        ):
            candidate = directory / name
            if candidate.exists():
                self.ingest_snapshot(candidate)
                summary["snapshots"] += 1
        self.set_meta("source_dir", str(directory))
        return summary

    # -- query --------------------------------------------------------------------

    def runs(self) -> list[RunInfo]:
        rows = self._conn.execute(
            f"SELECT {_RUN_COLUMNS} FROM runs ORDER BY run_id"
        ).fetchall()
        return [RunInfo(*row) for row in rows]

    def run_provenance(self, run: int | None = None) -> list[dict]:
        """Provenance rows for ingested trace runs.

        One dict per trace run: ``run_id``, ``source``, ``label``,
        ``git_sha``, ``dirty``, ``config_hash``, ``events`` plus the full
        decoded ``provenance`` payload (None for pre-provenance traces).
        """
        sql = (
            "SELECT run_id, source, label, git_sha, dirty, config_hash,"
            " events, provenance FROM runs WHERE kind = 'trace'"
        )
        params: list = []
        if run is not None:
            sql += " AND run_id = ?"
            params.append(int(run))
        sql += " ORDER BY run_id"
        rows = []
        for row in self._conn.execute(sql, params):
            payload = None
            if row[7]:
                try:
                    payload = json.loads(row[7])
                except ValueError:
                    payload = None
            rows.append(
                {
                    "run_id": row[0],
                    "source": row[1],
                    "label": row[2],
                    "git_sha": row[3],
                    "dirty": row[4],
                    "config_hash": row[5],
                    "events": row[6],
                    "provenance": payload,
                }
            )
        return rows

    def _where(
        self,
        kind: str | None,
        episode: object | None,
        loop: str | None,
        run: int | None,
        name: str | None = None,
        label: str | None = None,
        prefix: str = "",
    ) -> tuple[str, list]:
        """Build the filter clause.

        ``label`` selects events whose run row carries that run label (a subquery, so it works without joining). ``prefix``
        qualifies the event columns (``"e."``) for joined queries where
        ``kind`` / ``run_id`` would otherwise be ambiguous.
        """
        clauses, params = [], []
        if kind is not None:
            clauses.append(f"{prefix}kind = ?")
            params.append(kind)
        if episode is not None:
            clauses.append(f"{prefix}episode = ?")
            params.append(str(episode))
        if loop is not None:
            clauses.append(f"{prefix}loop = ?")
            params.append(loop)
        if run is not None:
            clauses.append(f"{prefix}run_id = ?")
            params.append(int(run))
        if name is not None:
            clauses.append(f"{prefix}name = ?")
            params.append(name)
        if label is not None:
            clauses.append(
                f"{prefix}run_id IN (SELECT run_id FROM runs WHERE label = ?)"
            )
            params.append(str(label))
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return where, params

    def events(
        self,
        kind: str | None = None,
        episode: object | None = None,
        loop: str | None = None,
        run: int | None = None,
        limit: int | None = None,
        name: str | None = None,
        label: str | None = None,
    ) -> list[dict]:
        """Decoded event records in ingestion order."""
        where, params = self._where(kind, episode, loop, run, name, label)
        sql = f"SELECT payload FROM events{where} ORDER BY run_id, seq"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        return [
            json.loads(row[0])
            for row in self._conn.execute(sql, params)
        ]

    def episodes(
        self, run: int | None = None, label: str | None = None
    ) -> list[EpisodeTrace]:
        """Episode buckets rebuilt from stored events.

        Events are grouped per source trace file (run) before splitting,
        exactly as the JSONL loader does per file, so episode ids reused
        across files do not merge. ``label`` restricts to the trace files
        of one labelled run.
        """
        where, params = self._where(None, None, None, run, label=label)
        sql = (
            f"SELECT run_id, payload FROM events{where} ORDER BY run_id, seq"
        )
        episodes: list[EpisodeTrace] = []
        current_run: int | None = None
        bucket: list[dict] = []
        for run_id, payload in self._conn.execute(sql, params):
            if run_id != current_run:
                if bucket:
                    episodes.extend(split_episodes(bucket))
                current_run, bucket = run_id, []
            bucket.append(json.loads(payload))
        if bucket:
            episodes.extend(split_episodes(bucket))
        return episodes

    def snapshot(self, name: str) -> dict | None:
        """A stored metrics / bench JSON document by name."""
        row = self._conn.execute(
            "SELECT payload FROM snapshots WHERE name = ?", (name,)
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def snapshots(self) -> list[str]:
        return [
            row[0]
            for row in self._conn.execute(
                "SELECT name FROM snapshots ORDER BY name"
            )
        ]

    @staticmethod
    def _check_field(field: str) -> str:
        if not field.replace("_", "").isalnum():
            raise ValueError(f"bad field name {field!r}")
        return field

    def series(
        self,
        field: str,
        kind: str | None = None,
        episode: object | None = None,
        loop: str | None = None,
        run: int | None = None,
        name: str | None = None,
        label: str | None = None,
    ) -> list[float]:
        """One numeric event field over time (events lacking it skipped)."""
        self._check_field(field)
        where, params = self._where(kind, episode, loop, run, name, label)
        if self._json1:
            sql = (
                f"SELECT json_extract(payload, '$.{field}') "
                f"FROM events{where} ORDER BY run_id, seq"
            )
            try:
                return [
                    float(row[0])
                    for row in self._conn.execute(sql, params)
                    if row[0] is not None
                ]
            except sqlite3.OperationalError:
                pass  # NaN/Infinity payloads are not valid JSON for json1
        return [
            float(event[field])
            for event in self.events(
                kind, episode, loop, run, name=name, label=label
            )
            if field in event and event[field] is not None
        ]

    def aggregate(
        self,
        field: str,
        agg: str = "mean",
        kind: str | None = None,
        episode: object | None = None,
        loop: str | None = None,
        run: int | None = None,
        group_by: str | None = None,
        name: str | None = None,
        label: str | None = None,
    ) -> list[tuple]:
        """Aggregate one event field, optionally grouped.

        Returns ``[(value,)]`` ungrouped or ``[(group, value), ...]``
        grouped by one of :data:`GROUP_KEYS`. Grouping by a provenance
        key (:data:`PROVENANCE_KEYS`) joins each event to its run row,
        so one query answers "collision delta per git SHA" across a
        store holding many ingested runs.
        """
        if agg not in AGGREGATES:
            raise ValueError(f"agg must be one of {AGGREGATES}, got {agg!r}")
        if group_by is not None and group_by not in GROUP_KEYS:
            raise ValueError(
                f"group_by must be one of {GROUP_KEYS}, got {group_by!r}"
            )
        joined = group_by in PROVENANCE_KEYS
        group_col = "run_id" if group_by == "run" else group_by
        if joined:
            group_col = f"r.{group_by}"
        if self._json1:
            self._check_field(field)
            prefix = "e." if joined else ""
            expr = f"json_extract({prefix}payload, '$.{field}')"
            sql_agg = {
                "count": f"COUNT({expr})",
                "mean": f"AVG({expr})",
                "min": f"MIN({expr})",
                "max": f"MAX({expr})",
                "sum": f"SUM({expr})",
            }[agg]
            where, params = self._where(
                kind, episode, loop, run, name, label, prefix=prefix
            )
            not_null = f"{expr} IS NOT NULL"
            where = (
                where + f" AND {not_null}" if where else f" WHERE {not_null}"
            )
            table = (
                "events e JOIN runs r ON e.run_id = r.run_id"
                if joined
                else "events"
            )
            if group_col is None:
                sql = f"SELECT {sql_agg} FROM {table}{where}"
            else:
                sql = (
                    f"SELECT {group_col}, {sql_agg} FROM {table}{where} "
                    f"GROUP BY {group_col} ORDER BY {group_col}"
                )
            try:
                return list(self._conn.execute(sql, params))
            except sqlite3.OperationalError:
                pass  # NaN/Infinity payloads are not valid JSON for json1
        return self._aggregate_python(
            field, agg, kind, episode, loop, run, group_by, name, label
        )

    def _aggregate_python(
        self, field, agg, kind, episode, loop, run, group_by, name=None,
        label=None,
    ) -> list[tuple]:
        where, params = self._where(kind, episode, loop, run, name, label)
        sql = f"SELECT run_id, payload FROM events{where} ORDER BY run_id, seq"
        run_keys: dict[int, object] | None = None
        if group_by in PROVENANCE_KEYS:
            # Map each source run row to its provenance key up front (the
            # Python twin of the json1 path's JOIN).
            run_keys = {
                info.run_id: getattr(info, group_by)
                for info in self.runs()
            }
        groups: dict[object, list[float]] = {}
        for run_id, payload in self._conn.execute(sql, params):
            event = json.loads(payload)
            if field not in event or event[field] is None:
                continue
            if group_by is None:
                key = None
            elif group_by == "run":
                key = run_id
            elif run_keys is not None:
                key = run_keys.get(run_id)
            else:
                key = event.get(
                    "event" if group_by == "kind" else group_by
                )
            groups.setdefault(key, []).append(float(event[field]))
        reduced = {
            "count": len,
            "mean": lambda v: sum(v) / len(v),
            "min": min,
            "max": max,
            "sum": sum,
        }[agg]
        if group_by is None:
            values = groups.get(None, [])
            return [(reduced(values) if values else None,)]
        return sorted(
            ((key, reduced(values)) for key, values in groups.items()),
            key=lambda kv: (kv[0] is None, str(kv[0])),
        )


def export_csv(
    header: Iterable[str],
    rows: Iterable[Iterable[object]],
    path: str | Path | None = None,
) -> str:
    """Rows as CSV text, optionally written to ``path``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow(list(row))
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
