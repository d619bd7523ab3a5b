"""Tests for the SQLite telemetry store: ingest, query, parity, rebuild."""

import json
import math
import re
import sqlite3
from pathlib import Path

import pytest

from repro.agents.modular import ModularAgent
from repro.core.attackers import OracleAttacker
from repro.eval.episodes import run_episodes
from repro.obsv import store as store_mod
from repro.obsv.cli import main
from repro.obsv.dashboard import build_dashboard
from repro.obsv.loader import load_episodes
from repro.obsv.store import (
    AGGREGATES,
    GROUP_KEYS,
    TelemetryStore,
    export_csv,
    is_store_path,
    load_snapshot,
    open_run,
)
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import TraceFormatError, TraceWriter

pytestmark = [pytest.mark.obsv, pytest.mark.watch]


def write_training_trace(path, loops=("sac-a", "sac-b"), records=5):
    writer = TraceWriter(path)
    for loop in loops:
        for i in range(records):
            writer.emit(
                "update_health",
                loop=loop,
                step=i * 10,
                update=i + 1,
                critic_loss=1.0 + i,
                q_mean=float(i),
                q_max=float(10 * (i + 1)),
                entropy=0.5,
                buffer_size=100 + i,
                buffer_capacity=1000,
            )
    writer.close()
    return path


@pytest.fixture()
def run_dir(tmp_path):
    writer = TraceWriter(tmp_path / "episodes.jsonl")
    run_episodes(
        lambda w: ModularAgent(w.road),
        lambda: OracleAttacker(budget=1.0),
        n_episodes=2,
        seed=3,
        trace=writer,
    )
    writer.close()
    write_training_trace(tmp_path / "training.jsonl")
    (tmp_path / "EXPERIMENTS_metrics.json").write_text(
        json.dumps(
            {
                "counters": {"episodes_total": 2.0},
                "gauges": {"detector_latency_ticks": 2.0},
                "histograms": {},
            }
        ),
        encoding="utf-8",
    )
    return tmp_path


class TestIngest:
    def test_dir_round_trip(self, run_dir, tmp_path):
        store_path = tmp_path / "telemetry.sqlite"
        with TelemetryStore(store_path) as store:
            summary = store.ingest_dir(run_dir)
            assert summary["traces"] == 2
            assert summary["snapshots"] == 1
            assert summary["events"] > 0
            # Every stored event decodes back to the original record.
            health = store.events(kind="update_health", loop="sac-a")
            assert len(health) == 5
            assert health[0]["critic_loss"] == 1.0
            assert health[-1]["q_max"] == 50.0
            snap = store.snapshot("EXPERIMENTS_metrics.json")
            assert snap["counters"]["episodes_total"] == 2.0
            assert store.snapshots() == ["EXPERIMENTS_metrics.json"]

    def test_reingest_unchanged_is_noop(self, run_dir, tmp_path):
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            first = store.ingest_trace(run_dir / "training.jsonl")
            second = store.ingest_trace(run_dir / "training.jsonl")
            assert second.run_id == first.run_id
            assert len(store.events(kind="update_health")) == 10

    def test_changed_file_is_replaced(self, tmp_path):
        trace = write_training_trace(tmp_path / "t.jsonl", loops=("x",))
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            store.ingest_trace(trace)
            write_training_trace(trace, loops=("x", "y"))
            store.ingest_trace(trace, force=True)
            # Old rows gone, new rows present, exactly once.
            assert len(store.events(kind="update_health")) == 15

    def test_invalid_events_are_skipped(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        good = {"event": "update_health", "loop": "x", "step": 0, "update": 1}
        bad = {"event": "update_health", "loop": 3}  # schema violation
        trace.write_text(
            json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8"
        )
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            info = store.ingest_trace(trace)
            assert info.events == 1

    def test_invalid_events_are_counted(self, tmp_path):
        """The store's ingest and the non-strict loader count each record
        they drop in the counter ``obsv watch`` uses."""
        trace = tmp_path / "t.jsonl"
        good = {"event": "update_health", "loop": "x", "step": 0, "update": 1}
        trace.write_text(
            json.dumps(good) + "\n" + json.dumps([1, 2]) + "\n",
            encoding="utf-8",
        )
        get_registry().reset()
        counter = get_registry().counter("trace_invalid_events_total")
        try:
            with TelemetryStore(tmp_path / "s.sqlite") as store:
                assert store.ingest_trace(trace).events == 1
            assert counter.value == 1
            assert load_episodes(trace) == []
            assert counter.value == 2
        finally:
            get_registry().reset()

    def test_is_store_path(self, tmp_path):
        store_path = tmp_path / "anything.bin"
        TelemetryStore(store_path).close()
        assert is_store_path(store_path)  # magic bytes
        assert is_store_path(tmp_path / "x.sqlite")  # suffix, no file
        jsonl = tmp_path / "t.jsonl"
        jsonl.write_text("{}\n")
        assert not is_store_path(jsonl)


class TestQuery:
    @pytest.fixture()
    def store(self, tmp_path):
        write_training_trace(tmp_path / "training.jsonl")
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            store.ingest_dir(tmp_path)
            yield store

    def test_series(self, store):
        values = store.series("q_max", kind="update_health", loop="sac-a")
        assert values == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_aggregate_scalar(self, store):
        ((mean,),) = store.aggregate("critic_loss", agg="mean")
        assert mean == pytest.approx(3.0)

    def test_aggregate_grouped(self, store):
        rows = store.aggregate("q_max", agg="max", group_by="loop")
        assert rows == [("sac-a", 50.0), ("sac-b", 50.0)]
        by_run = store.aggregate("q_max", agg="count", group_by="run")
        assert [count for _, count in by_run] == [10]

    def test_every_aggregate_runs(self, store):
        for agg in AGGREGATES:
            assert store.aggregate("q_mean", agg=agg)

    def test_bad_inputs_raise(self, store):
        with pytest.raises(ValueError):
            store.aggregate("q_max", agg="median")
        with pytest.raises(ValueError):
            store.aggregate("q_max", group_by="payload")
        with pytest.raises(ValueError):
            store.series("q; DROP TABLE events")

    def test_nan_payloads_read_as_null(self, tmp_path):
        writer = TraceWriter(tmp_path / "nan.jsonl")
        writer.emit(
            "update_health", loop="x", step=0, update=1,
            critic_loss=float("nan"), q_max=2.0,
            message="critic_loss went NaN, q Infinity",
        )
        writer.close()
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            store.ingest_trace(tmp_path / "nan.jsonl")
            assert store.series("critic_loss", kind="update_health") == []
            (event,) = store.events(kind="update_health")
            assert event["critic_loss"] is None
            # Only the float token changes, never the text of a string.
            assert event["message"] == "critic_loss went NaN, q Infinity"
            rows = store.aggregate("q_max", agg="max")
            assert rows[0][-1] == 2.0

    def test_non_finite_fields_answer_through_json1(
        self, tmp_path, monkeypatch
    ):
        """NaN, +inf and -inf fields: every read is one json1 query."""
        writer = TraceWriter(tmp_path / "inf.jsonl")
        for step, q in enumerate(
            (1.0, float("inf"), float("nan"), float("-inf"), 3.0)
        ):
            writer.emit(
                "update_health", loop=f"l{step % 2}", step=step,
                update=step + 1, q_max=q, name="sac", run="r",
            )
        writer.close()
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            store.ingest_trace(tmp_path / "inf.jsonl")
            raw = store._conn.execute(
                "SELECT json_valid(payload) FROM events"
            ).fetchall()
            assert raw == [(1,)] * 5
            steps = [e["q_max"] for e in store.events(kind="update_health")]
            assert steps[:2] == [1.0, math.inf]
            assert steps[2] is None and steps[3:] == [-math.inf, 3.0]
            # No payload is decoded in Python on the query path.
            monkeypatch.setattr(store_mod, "json", None)
            assert store.series("q_max") == [1.0, math.inf, -math.inf, 3.0]
            expected = {
                "count": 4, "min": -math.inf, "max": math.inf, "sum": None,
                "mean": None,
            }
            for agg in AGGREGATES:
                ((value,),) = store.aggregate("q_max", agg=agg)
                # inf + -inf is NaN, which SQLite answers as NULL.
                assert value == expected[agg], agg
            for group_by in GROUP_KEYS:
                rows = store.aggregate("q_max", agg="count", group_by=group_by)
                assert sum(count for _, count in rows) == 4, group_by


class TestExportCsv:
    def test_text_and_file(self, tmp_path):
        out = tmp_path / "out.csv"
        text = export_csv(["loop", "q"], [("a", 1.5), ("b", 2.5)], out)
        assert text == "loop,q\na,1.5\nb,2.5\n"
        assert out.read_text(encoding="utf-8") == text


class TestParity:
    def test_dashboard_matches_jsonl_backend(self, run_dir, tmp_path):
        store_path = tmp_path / "s.sqlite"
        with TelemetryStore(store_path) as store:
            store.ingest_dir(run_dir)
        from_dir = build_dashboard(run_dir.resolve())
        from_store = build_dashboard(store_path)
        assert from_store == from_dir
        assert f"Source directory: `{run_dir.resolve()}`" in from_dir

    def test_open_run_accepts_every_source_form(self, run_dir, tmp_path):
        store_path = tmp_path / "s.sqlite"
        with TelemetryStore(store_path) as store:
            store.ingest_dir(run_dir)
        trace = run_dir / "episodes.jsonl"
        with open_run(trace) as from_trace:
            assert from_trace.path.name == ":memory:"
            assert [r.source for r in from_trace.runs()] == [str(trace)]
            expected = from_trace.episodes()
        for source in (run_dir, store_path):
            with open_run(source) as store:
                assert store.episodes() == expected
                assert store.snapshots() == ["EXPERIMENTS_metrics.json"]
        with pytest.raises(FileNotFoundError, match="missing"):
            with open_run(tmp_path / "missing"):
                pass

    def test_episode_reconstruction(self, run_dir, tmp_path):
        from repro.obsv.loader import load_episodes

        store_path = tmp_path / "s.sqlite"
        with TelemetryStore(store_path) as store:
            store.ingest_dir(run_dir)
            rebuilt = store.episodes()
        direct = load_episodes(run_dir / "episodes.jsonl")
        complete = [e for e in rebuilt if e.complete]
        assert len(complete) == len([e for e in direct if e.complete])
        assert {e.episode for e in complete} == {
            e.episode for e in direct if e.complete
        }


class TestCli:
    def test_ingest_then_query(self, run_dir, capsys):
        assert main(["ingest", str(run_dir)]) == 0
        store_path = run_dir / "obsv.sqlite"
        assert store_path.exists()
        capsys.readouterr()

        assert main([
            "query", str(store_path), "--kind", "update_health",
            "--loop", "sac-a", "--field", "q_max",
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["q_max", "10.0", "20.0", "30.0",
                                    "40.0", "50.0"]

        assert main([
            "query", str(store_path), "--kind", "update_health",
            "--field", "q_max", "--agg", "max", "--group-by", "loop",
        ]) == 0
        out = capsys.readouterr().out
        assert "sac-a,50.0" in out and "sac-b,50.0" in out

    def test_query_events_jsonl(self, run_dir, capsys):
        main(["ingest", str(run_dir)])
        capsys.readouterr()
        assert main([
            "query", str(run_dir / "obsv.sqlite"),
            "--kind", "update_health", "--limit", "3",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(
            json.loads(line)["event"] == "update_health" for line in lines
        )

    def test_dashboard_accepts_store(self, run_dir, capsys):
        main(["ingest", str(run_dir)])
        capsys.readouterr()
        assert main(["dashboard", str(run_dir / "obsv.sqlite")]) == 0
        store_out = capsys.readouterr().out
        assert main(["dashboard", str(run_dir.resolve())]) == 0
        dir_out = capsys.readouterr().out
        assert store_out == dir_out

    def test_regress_accepts_store(self, run_dir, tmp_path, capsys):
        bench = {
            "schema": 1, "wall_clock_s": 100.0,
            "spans": {}, "metrics": {"counters": {}},
        }
        current = run_dir / "BENCH_telemetry.json"
        current.write_text(json.dumps(bench), encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({**bench, "wall_clock_s": 30.0}), encoding="utf-8"
        )
        main(["ingest", str(run_dir)])
        capsys.readouterr()

        rc_file = main(["regress", str(current), str(baseline)])
        file_out = capsys.readouterr().out
        rc_store = main([
            "regress", str(run_dir / "obsv.sqlite"), str(baseline)
        ])
        store_out = capsys.readouterr().out
        assert (rc_store, store_out) == (rc_file, file_out)
        assert rc_store == 1  # 100s vs 30s baseline is a breach

_V1_DDL = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE runs (
    run_id  INTEGER PRIMARY KEY AUTOINCREMENT,
    source  TEXT NOT NULL UNIQUE,
    kind    TEXT NOT NULL,
    mtime   REAL NOT NULL,
    size    INTEGER NOT NULL,
    events  INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE events (
    run_id  INTEGER NOT NULL REFERENCES runs(run_id),
    seq     INTEGER NOT NULL,
    kind    TEXT NOT NULL,
    episode TEXT,
    loop    TEXT,
    step    INTEGER,
    tick    INTEGER,
    t       REAL,
    payload TEXT NOT NULL,
    PRIMARY KEY (run_id, seq)
);
CREATE INDEX idx_events_kind ON events(kind);
CREATE INDEX idx_events_episode ON events(episode);
CREATE INDEX idx_events_loop ON events(loop);
CREATE TABLE snapshots (
    name    TEXT PRIMARY KEY,
    source  TEXT NOT NULL,
    payload TEXT NOT NULL
);
"""



#: The schema-4 DDL, with the ``events.worker`` column and its index
#: that schema 5 dropped.
_V4_DDL = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE runs (
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
CREATE TABLE events (
    run_id  INTEGER NOT NULL REFERENCES runs(run_id),
    seq     INTEGER NOT NULL,
    kind    TEXT NOT NULL,
    episode TEXT,
    loop    TEXT,
    step    INTEGER,
    tick    INTEGER,
    t       REAL,
    name    TEXT,
    worker  INTEGER,
    payload TEXT NOT NULL,
    PRIMARY KEY (run_id, seq)
);
CREATE INDEX idx_events_kind ON events(kind);
CREATE INDEX idx_events_episode ON events(episode);
CREATE INDEX idx_events_loop ON events(loop);
CREATE INDEX idx_events_name ON events(name);
CREATE INDEX idx_events_worker ON events(worker);
CREATE TABLE snapshots (
    name    TEXT PRIMARY KEY,
    source  TEXT NOT NULL,
    payload TEXT NOT NULL
);
"""



#: The schema-5 DDL: schema 6 keeps these tables; only payloads changed.
_V5_DDL = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE runs (
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
CREATE TABLE events (
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
CREATE INDEX idx_events_kind ON events(kind);
CREATE INDEX idx_events_episode ON events(episode);
CREATE INDEX idx_events_loop ON events(loop);
CREATE INDEX idx_events_name ON events(name);
CREATE TABLE snapshots (
    name    TEXT PRIMARY KEY,
    source  TEXT NOT NULL,
    payload TEXT NOT NULL
);
"""


#: Schema 6 kept schema 5's tables; schema 7 dropped ``events.tick`` and
#: ``events.t``.
_V6_DDL = _V5_DDL

#: A trace-format-1 eval trace (per-tick ``tick`` records).
FORMAT_1_TRACE = (
    Path(__file__).parents[1] / "telemetry" / "data" / "format1_golden.jsonl"
)


def write_records(path, records):
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records),
        encoding="utf-8",
    )
    return path


def make_old_store(path, version, ddl, sources, snapshots=(), meta=()):
    """Hand-build a store of an older schema listing ``sources``.

    Its event rows hold stale payloads (a NaN token json1 rejects): a
    rebuild must re-read the source files, never the old rows.
    """
    conn = sqlite3.connect(str(path))
    conn.executescript(ddl)
    conn.execute(
        "INSERT INTO meta VALUES ('schema_version', ?)", (str(version),)
    )
    conn.executemany("INSERT INTO meta VALUES (?, ?)", meta)
    for source in sources:
        cursor = conn.execute(
            "INSERT INTO runs (source, kind, mtime, size, events)"
            " VALUES (?, 'trace', 0.0, 1, 1)",
            (str(source),),
        )
        conn.execute(
            "INSERT INTO events (run_id, seq, kind, payload)"
            " VALUES (?, 0, 'stale', '{\"q\":NaN}')",
            (cursor.lastrowid,),
        )
    for name, source in snapshots:
        conn.execute(
            "INSERT INTO runs (source, kind, mtime, size, events)"
            " VALUES (?, 'snapshot', 0.0, 1, 0)",
            (str(source),),
        )
        conn.execute(
            "INSERT INTO snapshots VALUES (?, ?, '{}')", (name, str(source))
        )
    conn.commit()
    conn.close()
    return path


def make_v1_store(path, directory):
    """A schema-1 store (no events.name column) over one profile trace."""
    trace = write_records(
        directory / "old.jsonl",
        [
            {"event": "profile", "name": "episode", "calls": 2,
             "total_s": 1.0, "self_s": 0.25},
            {"event": "profile", "name": "episode/world.tick", "calls": 10,
             "total_s": 0.75, "self_s": 0.75},
            {"event": "update_health", "loop": "sac-a", "step": 0,
             "update": 1},
        ],
    )
    return make_old_store(path, 1, _V1_DDL, [trace])


def make_v4_store(path, directory):
    """A schema-4 store over one worker-stamped trace."""
    trace = write_records(
        directory / "old.w1.jsonl",
        [
            {"event": "update_health", "loop": "sac-a", "step": 0,
             "update": 1, "q_max": 4.0, "run": "old-run", "worker": 1},
            {"event": "update_health", "loop": "sac-a", "step": 10,
             "update": 2, "q_max": 6.0, "run": "old-run", "worker": 1},
        ],
    )
    return make_old_store(path, 4, _V4_DDL, [trace])


def store_view(store):
    """Everything a reader can see of a store."""
    return (
        store.runs(),
        store.events(),
        store.episodes(),
        store.run_provenance(),
        store.snapshots(),
        [store.snapshot(name) for name in store.snapshots()],
        store.get_meta("source_dir"),
    )


def traced_statements(monkeypatch):
    """Every SQL statement the stores opened from now on run."""
    statements = []
    connect = TelemetryStore._connect

    def traced(self):
        conn = connect(self)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(TelemetryStore, "_connect", traced)
    return statements


class TestOpen:
    """A new store is made in one transaction; an up-to-date one opens
    without writing; the episode query needs no sort."""

    def test_a_new_store_is_made_in_one_transaction(
        self, tmp_path, monkeypatch
    ):
        statements = traced_statements(monkeypatch)
        TelemetryStore(tmp_path / "s.sqlite").close()
        writes = [s.strip() for s in statements if not s.startswith("SELECT")]
        assert writes[0] == "BEGIN IMMEDIATE" and writes[-1] == "COMMIT"
        assert writes.count("COMMIT") == 1
        assert sum(s.startswith("CREATE") for s in writes) == (
            store_mod._DDL.count("CREATE")
        )
        # The schema is the DDL's, as a script of it makes it.
        dump = "SELECT type, name, tbl_name, sql FROM sqlite_master"
        reference = sqlite3.connect(":memory:")
        reference.executescript(store_mod._DDL)
        made = sqlite3.connect(tmp_path / "s.sqlite")
        try:
            assert sorted(made.execute(dump)) == sorted(
                reference.execute(dump)
            )
        finally:
            made.close()
            reference.close()
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            assert store.get_meta("schema_version") == str(
                store_mod.SCHEMA_VERSION
            )

    def test_a_current_store_opens_without_writing(
        self, tmp_path, monkeypatch
    ):
        TelemetryStore(tmp_path / "s.sqlite").close()
        statements = traced_statements(monkeypatch)
        TelemetryStore(tmp_path / "s.sqlite").close()
        assert statements
        assert all(s.startswith("SELECT") for s in statements)

    def test_the_episode_query_reads_in_key_order(self, run_dir, tmp_path):
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            store.ingest_dir(run_dir)
            statements = []
            store._conn.set_trace_callback(statements.append)
            for scope in ({}, {"run": 1}, {"label": "x"}):
                statements.clear()
                store.episodes(**scope)
                (query,) = statements
                plan = store._conn.execute(f"EXPLAIN QUERY PLAN {query}")
                details = [row[-1] for row in plan]
                assert not any("TEMP B-TREE" in d for d in details), details
            assert [e.seed for e in store.episodes()] == [3, 4]


class TestSchemaMigration:
    def test_v4_store_opens_and_takes_new_ingests(self, run_dir, tmp_path):
        path = make_v4_store(tmp_path / "v4.sqlite", tmp_path)
        with TelemetryStore(path) as store:
            assert store.get_meta("schema_version") == "7"
            store.ingest_trace(run_dir / "episodes.jsonl")
            old = store.events(kind="update_health", label="old-run")
            assert [e["step"] for e in old] == [0, 10]
            assert dict(
                store.aggregate(
                    "q_max", agg="mean", kind="update_health",
                    group_by="label",
                )
            ) == {"old-run": 5.0}
            assert len(store.events(kind="episode_start")) == 2
            episodes = store.episodes()
            assert [e.episode for e in episodes] == [3, 4]
            assert all(e.complete for e in episodes)

    def test_v1_store_migrates_in_place(self, tmp_path):
        """The store at the old path is upgraded: rebuilt from its source
        into a new file that replaces it, leaving no scratch file."""
        path = make_v1_store(tmp_path / "old.sqlite", tmp_path)
        with TelemetryStore(path) as store:
            assert store.get_meta("schema_version") == "7"
            assert store.events(kind="stale") == []
            # The name column is filled from the re-read trace.
            rows = store.events(kind="profile", name="episode")
            assert len(rows) == 1 and rows[0]["calls"] == 2
            assert store.events(kind="update_health", name="episode") == []
        assert list(tmp_path.glob("*.rebuild")) == []

    def test_migration_is_idempotent_and_queryable(self, tmp_path):
        path = make_v1_store(tmp_path / "old.sqlite", tmp_path)
        TelemetryStore(path).close()  # rebuild
        rebuilt = path.read_bytes()
        with TelemetryStore(path) as store:  # reopen: no-op
            assert store.get_meta("schema_version") == "7"
            rows = store.aggregate(
                "self_s", agg="sum", kind="profile", group_by="name"
            )
            assert dict(rows) == {
                "episode": 0.25, "episode/world.tick": 0.75
            }
        assert path.read_bytes() == rebuilt

    def test_v5_store_rebuild_equals_fresh_ingest(self, run_dir, tmp_path):
        traces = sorted(run_dir.glob("*.jsonl"))
        snapshot = run_dir / "EXPERIMENTS_metrics.json"
        path = make_old_store(
            tmp_path / "v5.sqlite", 5, _V5_DDL, traces,
            snapshots=[(snapshot.name, snapshot)],
            meta=[("source_dir", str(run_dir.resolve()))],
        )
        with TelemetryStore(path) as rebuilt:
            assert rebuilt.get_meta("schema_version") == "7"
            view = store_view(rebuilt)
        with TelemetryStore(tmp_path / "fresh.sqlite") as fresh:
            fresh.ingest_dir(run_dir)
            assert store_view(fresh) == view

    def test_missing_source_refuses_and_keeps_the_store(
        self, run_dir, tmp_path
    ):
        gone = tmp_path / "gone.jsonl"
        path = make_old_store(
            tmp_path / "v5.sqlite", 5, _V5_DDL,
            [run_dir / "episodes.jsonl", gone],
        )
        before = path.read_bytes()
        with pytest.raises(ValueError, match=str(gone)):
            TelemetryStore(path)
        assert path.read_bytes() == before

    def test_failed_rebuild_keeps_the_store(self, run_dir, tmp_path):
        broken = run_dir / "BENCH_telemetry.json"
        broken.write_text("{not json", encoding="utf-8")
        path = make_old_store(
            tmp_path / "v5.sqlite", 5, _V5_DDL,
            [run_dir / "episodes.jsonl"], snapshots=[(broken.name, broken)],
        )
        before = path.read_bytes()
        with pytest.raises(ValueError):
            TelemetryStore(path)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.rebuild")) == []

    def test_racing_rebuild_keeps_the_first_swap(
        self, run_dir, tmp_path, monkeypatch
    ):
        """Two openers of one old store: the one that finishes second
        keeps the other's file, so writes through either land in it."""
        path = make_old_store(
            tmp_path / "v5.sqlite", 5, _V5_DDL, [run_dir / "episodes.jsonl"]
        )
        ingest = TelemetryStore.ingest_trace
        raced = []

        def racing_ingest(store, source, force=False):
            if not raced:
                raced.append(source)
                with TelemetryStore(path) as other:  # rebuilds and swaps
                    other.set_meta("writer", "other")
            return ingest(store, source, force)

        monkeypatch.setattr(TelemetryStore, "ingest_trace", racing_ingest)
        with TelemetryStore(path) as store:
            assert store.get_meta("writer") == "other"
            store.set_meta("writer", "first")
        with TelemetryStore(path) as store:
            assert store.get_meta("writer") == "first"
            assert len(store.events(kind="episode_start")) == 2
        assert list(tmp_path.glob("*.rebuild")) == []

    def test_v6_store_of_a_training_trace_rebuilds(self, tmp_path):
        trace = write_training_trace(tmp_path / "training.jsonl")
        path = make_old_store(tmp_path / "v6.sqlite", 6, _V6_DDL, [trace])
        with TelemetryStore(path) as store:
            assert store.get_meta("schema_version") == "7"
            assert len(store.events(kind="update_health")) == 10
            columns = {
                row[1]
                for row in store._conn.execute("PRAGMA table_info(events)")
            }
        assert "tick" not in columns and "t" not in columns
        assert list(tmp_path.glob("*.rebuild")) == []

    def test_v6_store_of_a_format_1_trace_refuses(self, tmp_path):
        path = make_old_store(
            tmp_path / "v6.sqlite", 6, _V6_DDL, [FORMAT_1_TRACE]
        )
        before = path.read_bytes()
        expected = (
            f"schema v6.*{re.escape(str(FORMAT_1_TRACE))}.*trace format 1"
        )
        with pytest.raises(TraceFormatError, match=expected):
            TelemetryStore(path)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.rebuild")) == []

    def test_newer_schema_refuses_to_open(self, tmp_path):
        path = tmp_path / "future.sqlite"
        TelemetryStore(path).close()

        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE meta SET value = '99' WHERE key ="
                     " 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="schema v99"):
            TelemetryStore(path)


class TestLoadSnapshot:
    def test_file_and_store(self, run_dir, tmp_path):
        bench = run_dir / "BENCH_telemetry.json"
        bench.write_text('{"wall_clock_s": 1.0}', encoding="utf-8")
        metrics = run_dir / "m.json"
        metrics.write_text('{"kind": "metrics", "cells": {}}')
        store_path = tmp_path / "s.sqlite"
        with TelemetryStore(store_path) as store:
            store.ingest_dir(run_dir)
            store.ingest_snapshot(metrics)
        assert load_snapshot(bench) == {"wall_clock_s": 1.0}
        assert load_snapshot(store_path) == {"wall_clock_s": 1.0}
        assert load_snapshot(metrics, kind="metrics")["kind"] == "metrics"
        assert load_snapshot(store_path, kind="metrics")["kind"] == "metrics"

    def test_refusals_name_the_source(self, run_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        empty_store = tmp_path / "empty.sqlite"
        TelemetryStore(empty_store).close()
        cases = [
            (tmp_path / "missing.json", "bench"),
            (bad, "bench"),
            (run_dir / "EXPERIMENTS_metrics.json", "metrics"),
            (empty_store, "bench"),
            (empty_store, "metrics"),
        ]
        for source, kind in cases:
            with pytest.raises(ValueError, match=str(source)):
                load_snapshot(source, kind=kind)


class TestNameColumn:
    @pytest.fixture()
    def profile_run(self, tmp_path):
        writer = TraceWriter(tmp_path / "PROFILE_events.jsonl")
        writer.emit("profile", name="episode", calls=4, total_s=2.0,
                    self_s=0.5, mflops_per_s=120.0)
        writer.emit("profile", name="episode/agent.e2e.act", calls=400,
                    total_s=1.5, self_s=1.5, mflops_per_s=480.0)
        writer.close()
        return tmp_path

    def test_ingest_and_filter_by_name(self, profile_run, tmp_path):
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            store.ingest_dir(profile_run)
            act = store.events(kind="profile", name="episode/agent.e2e.act")
            assert len(act) == 1 and act[0]["mflops_per_s"] == 480.0
            values = store.series("self_s", kind="profile", name="episode")
            assert values == [0.5]
            rows = store.aggregate(
                "mflops_per_s", agg="max", kind="profile", group_by="name"
            )
            assert ("episode/agent.e2e.act", 480.0) in rows

    def test_cli_name_filter_and_group(self, profile_run, capsys):
        assert main(["ingest", str(profile_run)]) == 0
        store_path = profile_run / "obsv.sqlite"
        capsys.readouterr()
        assert main([
            "query", str(store_path), "--kind", "profile",
            "--name", "episode", "--field", "calls",
        ]) == 0
        assert capsys.readouterr().out.splitlines() == ["calls", "4.0"]
        assert main([
            "query", str(store_path), "--kind", "profile",
            "--field", "self_s", "--agg", "sum", "--group-by", "name",
        ]) == 0
        out = capsys.readouterr().out
        assert "episode,0.5" in out and "episode/agent.e2e.act,1.5" in out
