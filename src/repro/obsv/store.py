"""SQLite-backed telemetry store: a rebuildable index of trace files.

The JSONL traces the telemetry layer emits are append-friendly but
read-hostile: every dashboard render, regression check, or ad-hoc
question re-parses whole files. :class:`TelemetryStore` ingests trace
files and metrics/bench snapshots into an indexed SQLite database
(stdlib ``sqlite3``, no extra deps) so downstream consumers — the
dashboard, ``repro.obsv regress``, and the ``query`` subcommand — hit
indexes instead of re-decoding JSON lines.

Layout (schema version 7):

* ``runs``      — one row per ingested source file (trace or snapshot),
  keyed by absolute path with mtime/size for change detection; re-ingest
  of an unchanged file is a no-op, a changed file is replaced. Each trace
  run also hoists its **provenance**: the run label (the ``run`` field
  ``REPRO_RUN_ID`` stamps on each record), the git SHA / dirty flag /
  config hash from the trace's ``provenance`` event
  (:mod:`repro.telemetry.provenance`), and the full provenance payload —
  so "which runs came from commit X with config Y?" is one indexed
  query, and aggregates can group by run label, git SHA, or config hash.
* ``events``    — one row per trace record. The full record is kept as a
  JSON payload column; the hot filter fields (kind, episode, loop, step,
  name) are hoisted into indexed columns. ``name`` carries the span
  paths of ``profile`` events, so per-span self-time series are one
  indexed filter away. An episode's ticks are one row, its
  ``episode_end`` record, whose payload holds them as columns
  (trace format 2); ``events``, ``series`` and ``aggregate`` answer
  ``kind="tick"`` by unnesting those columns.
* ``snapshots`` — whole metrics / bench JSON documents by name
  (``EXPERIMENTS_metrics.json``, ``BENCH_telemetry.json``,
  ``PROFILE_report.json``, ...).
* ``meta``      — key/value store (schema version, source directory).

Event payloads are strict JSON, so every field-level read (``series`` /
``aggregate``) runs through SQLite's ``json1`` functions. A record's
payload is its trace line when that holds no non-finite number; else it
is re-encoded with a NaN field written as ``null`` (it reads as
missing) and ±inf as ``±1e999``, which ``json1`` and :func:`json.loads`
both read back as ±inf. Tick columns unnest through ``json_each``.

The store indexes the files its ``runs`` table lists; it is never the
only copy of them. Opening a store of an older schema rebuilds it from
those files into a new file, which replaces the old one only after every
source is re-ingested — a missing source, or a trace-format-1 source,
raises ``ValueError`` and leaves the old store untouched. Stores newer
than this build refuse to open.

Every ``obsv`` reader goes through two functions here: :func:`open_run`
turns a run argument (a trace file, a run directory or a store) into a
store, and :func:`load_snapshot` reads a snapshot argument (a JSON file
or a store).
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sqlite3
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.obsv.loader import EpisodeTrace, Ticks, split_episodes
from repro.telemetry.log import get_logger
from repro.telemetry.trace import (
    TraceFormatError,
    count_invalid_event,
    iter_trace,
    validate_event,
)

log = get_logger("obsv.store")

#: Default store filename inside an ingested run directory.
DEFAULT_STORE_NAME = "obsv.sqlite"

SCHEMA_VERSION = 7

#: The event kind the store unnests from ``episode_end`` tick columns.
TICK_KIND = "tick"

#: Fields a tick takes from its ``episode_end`` record rather than from
#: a column, as the SQL expression that reads them off the record.
_TICK_INHERITED = {
    "event": "'tick'",
    "episode": "json_extract(e.payload, '$.episode')",
    "run": "json_extract(e.payload, '$.run')",
}

#: Aggregations exposed by :meth:`TelemetryStore.aggregate` / the CLI.
AGGREGATES = ("count", "mean", "min", "max", "sum")

#: Provenance keys (hoisted onto ``runs``) usable as GROUP BY keys;
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
    name    TEXT,
    payload TEXT NOT NULL,
    PRIMARY KEY (run_id, seq)
);
CREATE INDEX IF NOT EXISTS idx_events_kind ON events(kind);
CREATE INDEX IF NOT EXISTS idx_events_episode ON events(episode);
CREATE INDEX IF NOT EXISTS idx_events_loop ON events(loop);
CREATE INDEX IF NOT EXISTS idx_events_name ON events(name);
CREATE TABLE IF NOT EXISTS snapshots (
    name    TEXT PRIMARY KEY,
    source  TEXT NOT NULL,
    payload TEXT NOT NULL
);
"""

#: Upsert of one ``meta`` key (the version stamp included).
_SET_META = (
    "INSERT INTO meta (key, value) VALUES (?, ?) "
    "ON CONFLICT(key) DO UPDATE SET value = excluded.value"
)

#: The ``runs`` columns selected into :class:`RunInfo`, in field order.
_RUN_COLUMNS = (
    "run_id, source, kind, events, mtime, size,"
    " label, git_sha, dirty, config_hash"
)

_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
_encode_lenient = json.JSONEncoder(separators=(",", ":")).encode
#: A JSON string literal (kept as is), or a non-finite float token.
_NON_FINITE = re.compile(r'("(?:[^"\\]|\\.)*")|-?Infinity|NaN')
_STRICT_TOKENS = {"NaN": "null", "Infinity": "1e999", "-Infinity": "-1e999"}


def _strict_json(value: object) -> str:
    """``value`` as compact strict JSON: NaN as ``null``, ±inf as ±1e999."""
    try:
        return _encode(value)
    except ValueError:
        return _NON_FINITE.sub(
            lambda match: match.group(1) or _STRICT_TOKENS[match.group()],
            _encode_lenient(value),
        )


def _strict_line(line: str, event: object) -> str:
    """The record decoded from ``line`` as strict JSON: the line itself
    when it holds no non-finite token, else :func:`_strict_json`."""
    if "NaN" in line or "Infinity" in line:
        return _strict_json(event)
    return line


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
    """Queryable SQLite index of trace files and telemetry snapshots."""

    def __init__(
        self,
        path: str | Path,
        lock_retries: int = 5,
        lock_backoff: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        """Open (or create) a store; ``":memory:"`` makes a private one.

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
        self._conn = self._connect()
        # Read the version before any DDL runs: an older store's file
        # must stay untouched until its rebuild has succeeded.
        version = self._schema_version()
        if version is not None and version > SCHEMA_VERSION:
            self._conn.close()
            raise ValueError(
                f"store {self.path} has schema v{version}, "
                f"this build reads v{SCHEMA_VERSION}"
            )
        if version is not None and version < SCHEMA_VERSION:
            self._rebuild(version)
        elif version is None:  # a new store: schema and stamp at once
            self._write(self._create)

    @staticmethod
    def _create(conn: sqlite3.Connection) -> None:
        for statement in _DDL.split(";")[:-1]:
            conn.execute(statement)
        conn.execute(_SET_META, ("schema_version", str(SCHEMA_VERSION)))

    def _connect(self) -> sqlite3.Connection:
        # Autocommit mode: _write issues its own BEGIN IMMEDIATE, and the
        # small native timeout keeps per-statement waits short so the
        # Python-level backoff governs contention.
        return sqlite3.connect(
            str(self.path), timeout=0.25, isolation_level=None
        )

    def _schema_version(self) -> int | None:
        """The stamped schema version (None for a new, empty store)."""
        has_meta = self._conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table'"
            " AND name = 'meta'"
        ).fetchone()
        version = self.get_meta("schema_version") if has_meta else None
        return None if version is None else int(version)

    def _rebuild(self, version: int) -> None:
        """Re-ingest an older store's sources into a new file, then swap.

        The new file replaces the old one only once every source has been
        re-ingested, so a failure leaves the old store as it was.
        """
        inode = os.stat(self.path).st_ino
        old = self._conn
        sources = old.execute(
            "SELECT source, kind FROM runs ORDER BY run_id"
        ).fetchall()
        names = dict(old.execute("SELECT source, name FROM snapshots"))
        meta = old.execute(
            "SELECT key, value FROM meta WHERE key != 'schema_version'"
        ).fetchall()
        old.close()
        for source, _ in sources:
            if not Path(source).is_file():
                raise ValueError(
                    f"store {self.path} has schema v{version} and is"
                    f" rebuilt from its sources, but {source} is missing"
                )
        log.info(
            "store.rebuild", path=str(self.path), from_version=version,
            to_version=SCHEMA_VERSION, sources=len(sources),
        )
        handle, scratch = tempfile.mkstemp(
            prefix=f"{self.path.name}.", suffix=".rebuild",
            dir=self.path.parent,
        )
        os.close(handle)
        try:
            with TelemetryStore(
                scratch, self._lock_retries, self._lock_backoff, self._sleep
            ) as fresh:
                for source, kind in sources:
                    if kind != "trace":
                        fresh.ingest_snapshot(source, names.get(source))
                        continue
                    try:
                        fresh.ingest_trace(source)
                    except TraceFormatError as error:
                        raise TraceFormatError(
                            f"store {self.path} has schema v{version} and"
                            f" is rebuilt from its sources, but {error}"
                        ) from None
                for key, value in meta:
                    fresh.set_meta(key, value)
            if os.stat(self.path).st_ino == inode:
                os.replace(scratch, self.path)
            else:  # another process swapped its rebuild in first: keep it
                Path(scratch).unlink()
        except BaseException:
            Path(scratch).unlink(missing_ok=True)
            raise
        self._conn = self._connect()

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
        self._write(lambda conn: conn.execute(_SET_META, (key, str(value))))

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

        Schema-invalid events are skipped and counted in
        ``trace_invalid_events_total``, mirroring the non-strict JSONL
        loader, so store-backed consumers see the same event stream. A
        trace-format-1 file raises
        :class:`~repro.telemetry.trace.TraceFormatError`.
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
        # Keep each valid record's hoisted columns and strict payload line,
        # not the record. The run row takes its provenance: the run label
        # (the first `run` stamp) and the trace's provenance event.
        rows = []
        label = prov = None
        for event, line in iter_trace(path):
            if validate_event(event):
                count_invalid_event()
                continue
            kind = str(event.get("event", ""))
            episode, name = event.get("episode"), event.get("name")
            rows.append((
                kind, None if episode is None else str(episode),
                event.get("loop"), event.get("step"),
                None if name is None else str(name), _strict_line(line, event),
            ))
            if label is None and event.get("run") is not None:
                label = str(event["run"])
            if prov is None and kind == "provenance":
                prov = event
        git_sha = None if prov is None else prov.get("git_sha")
        dirty = None if prov is None else int(bool(prov.get("git_dirty")))
        config_hash = None if prov is None else prov.get("config_hash")
        prov_json = None if prov is None else _strict_json(prov)

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
                    str(path), mtime, size, len(rows),
                    label, git_sha, dirty, config_hash, prov_json,
                ),
            )
            run_id = cursor.lastrowid
            conn.executemany(
                "INSERT INTO events "
                "(run_id, seq, kind, episode, loop, step, name, payload) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                ((run_id, seq, *row) for seq, row in enumerate(rows)),
            )
            return run_id

        run_id = self._write(txn)
        return RunInfo(
            run_id, str(path), "trace", len(rows), mtime, size,
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

        Every ``*.jsonl`` trace (sorted by name) and, when present,
        ``EXPERIMENTS_metrics.json`` / ``BENCH_telemetry.json`` /
        ``PROFILE_report.json``. Each trace ingests as its own run row,
        so re-ingesting a growing run directory only re-reads the traces
        that actually changed.
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
        return [
            {
                "run_id": row[0],
                "source": row[1],
                "label": row[2],
                "git_sha": row[3],
                "dirty": row[4],
                "config_hash": row[5],
                "events": row[6],
                "provenance": None if row[7] is None else json.loads(row[7]),
            }
            for row in self._conn.execute(sql, params)
        ]

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

        ``label`` selects events whose run row carries that run label (a
        subquery, so it works without joining). ``prefix`` qualifies the
        event columns (``"e."``) for joined queries where ``kind`` /
        ``run_id`` would otherwise be ambiguous.
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
        """Decoded event records in ingestion order.

        ``kind="tick"`` lists each matching episode's tick dicts, episode
        by episode, as :class:`~repro.obsv.loader.Ticks` builds them; the
        loader's view expands them, not json1: SQLite renders a float it
        writes as JSON with 15 significant digits, not bit for bit.
        """
        tick = kind == TICK_KIND
        where, params = self._where(
            "episode_end" if tick else kind, episode, loop, run, name, label
        )
        sql = f"SELECT payload FROM events{where} ORDER BY run_id, seq"
        if limit is not None and not tick:
            sql += " LIMIT ?"
            params.append(int(limit))
        records = [
            json.loads(row[0]) for row in self._conn.execute(sql, params)
        ]
        if tick:
            records = [t for end in records for t in Ticks.of(end)]
            records = records[:limit] if limit is not None else records
        return records

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
        # `+kind` keeps the kind index out, so rows come in primary-key
        # order with no sort.
        where += (" AND" if where else " WHERE") + (
            " +kind IN ('episode_start', 'episode_end')"
        )
        sql = (
            f"SELECT run_id, payload FROM events{where} ORDER BY run_id, seq"
        )
        episodes: list[EpisodeTrace] = []
        rows = self._conn.execute(sql, params)
        for _, run_rows in groupby(rows, key=itemgetter(0)):
            episodes.extend(split_episodes(json.loads(p) for _, p in run_rows))
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

    def _field_rows(
        self,
        field: str,
        kind: str | None,
        episode: object | None,
        loop: str | None,
        run: int | None,
        name: str | None,
        label: str | None,
    ) -> tuple[str, list]:
        """SQL for one row per value of ``field``, with the columns
        ``run_id, seq, idx, kind, episode, loop, name, value``.

        A stored record gives one row (``idx`` -1). With ``kind`` "tick"
        or None, each ``episode_end`` also gives one row per tick, its
        tick columns unnested by ``json_each`` (``idx`` is the tick's
        index).
        """
        self._check_field(field)
        parts, params = [], []
        if kind != TICK_KIND:
            where, args = self._where(kind, episode, loop, run, name, label)
            parts.append(
                "SELECT run_id, seq, -1 AS idx, kind, episode, loop, name,"
                f" json_extract(payload, '$.{field}') AS value"
                f" FROM events{where}"
            )
            params += args
        if kind in (None, TICK_KIND):
            where, args = self._where(
                "episode_end", episode, loop, run, name, label, prefix="e."
            )
            inherited = _TICK_INHERITED.get(field)
            column = "tick" if inherited else field
            parts.append(
                "SELECT e.run_id, e.seq, j.key AS idx, 'tick' AS kind,"
                " e.episode, e.loop, e.name,"
                f" {inherited or 'j.value'} AS value"
                f" FROM events e, json_each(e.payload, '$.ticks.{column}') j"
                f"{where}"
            )
            params += args
        return " UNION ALL ".join(parts), params

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
        """One numeric event field over time (events lacking it skipped).

        ``kind="tick"`` reads a tick field episode by episode; with no
        ``kind``, tick fields are read too.
        """
        rows, params = self._field_rows(
            field, kind, episode, loop, run, name, label
        )
        sql = f"SELECT value FROM ({rows}) ORDER BY run_id, seq, idx"
        return [
            float(row[0])
            for row in self._conn.execute(sql, params)
            if row[0] is not None
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
        store holding many ingested runs. Tick fields are read as in
        :meth:`series`.
        """
        if agg not in AGGREGATES:
            raise ValueError(f"agg must be one of {AGGREGATES}, got {agg!r}")
        if group_by is not None and group_by not in GROUP_KEYS:
            raise ValueError(
                f"group_by must be one of {GROUP_KEYS}, got {group_by!r}"
            )
        rows, params = self._field_rows(
            field, kind, episode, loop, run, name, label
        )
        sql_agg = {
            "count": "COUNT", "mean": "AVG", "min": "MIN", "max": "MAX",
            "sum": "SUM",
        }[agg]
        table = f"({rows}) v"
        if group_by in PROVENANCE_KEYS:
            table += " JOIN runs r ON v.run_id = r.run_id"
            group_col = f"r.{group_by}"
        else:
            group_col = "v.run_id" if group_by == "run" else f"v.{group_by}"
        where = " WHERE v.value IS NOT NULL"
        if group_by is None:
            sql = f"SELECT {sql_agg}(v.value) FROM {table}{where}"
        else:
            sql = (
                f"SELECT {group_col}, {sql_agg}(v.value) FROM {table}{where}"
                f" GROUP BY {group_col} ORDER BY {group_col}"
            )
        return list(self._conn.execute(sql, params))


@contextmanager
def open_run(source: str | Path) -> Iterator[TelemetryStore]:
    """The store behind a run argument: a trace file, a run directory or
    a store.

    A store opens as it is. A trace file, or a run directory (its traces
    and snapshots, as :meth:`TelemetryStore.ingest_dir` reads them), is
    ingested into an in-memory store, so each read pays for the ingest;
    ``obsv ingest`` pays for it once. A missing source raises
    ``FileNotFoundError``.
    """
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(f"{source}: no such file or directory")
    is_store = path.is_file() and is_store_path(path)
    store = TelemetryStore(path if is_store else ":memory:")
    try:
        if path.is_dir():
            store.ingest_dir(path)
        elif not is_store:
            store.ingest_trace(path)
        yield store
    finally:
        store.close()


def load_snapshot(source: str | Path, kind: str = "bench") -> dict:
    """A snapshot document from a JSON file or a telemetry store.

    ``kind="bench"`` reads a bench or profile snapshot: a file may hold
    any JSON document, and a store yields its ``BENCH_telemetry.json``.
    ``kind="metrics"`` reads a metric snapshot (``"kind": "metrics"``,
    what ``obsv compare --snapshot`` writes): a file must be one, and a
    store yields the first it holds. Raises ``ValueError`` naming
    ``source`` when it is missing, is not JSON, or is not such a
    snapshot.
    """
    if kind not in ("bench", "metrics"):
        raise ValueError(f"kind must be 'bench' or 'metrics', got {kind!r}")
    path = Path(source)
    if not path.is_file():
        raise ValueError(f"{source}: no such file")
    if is_store_path(path):
        with TelemetryStore(path) as store:
            if kind == "bench":
                found = store.snapshot("BENCH_telemetry.json")
            else:
                found = next(
                    (
                        document
                        for document in map(store.snapshot, store.snapshots())
                        if _is_metric_snapshot(document)
                    ),
                    None,
                )
        if found is None:
            what = "BENCH_telemetry.json" if kind == "bench" else "metric"
            raise ValueError(f"store {source} holds no {what} snapshot")
        return found
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:
        raise ValueError(f"{source} is not JSON ({error})") from None
    if kind == "metrics" and not _is_metric_snapshot(document):
        raise ValueError(
            f"{source} is not a metric snapshot (kind != 'metrics')"
        )
    return document


def _is_metric_snapshot(document: object) -> bool:
    return isinstance(document, dict) and document.get("kind") == "metrics"


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
