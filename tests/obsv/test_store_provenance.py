"""Store provenance columns, label filters, provenance group-bys.

The coverage for the provenance subsystem: trace runs hoist their
logical run label + provenance stamp onto the ``runs`` table, aggregates
can group by provenance keys (label / git SHA / config hash) through
json1, and pre-provenance stores — including mixed stores where only
some traces carry provenance — are rebuilt from their traces with the
columns filled.
"""

import sqlite3

import pytest

from repro.obsv.store import (
    GROUP_KEYS,
    PROVENANCE_KEYS,
    TelemetryStore,
)
from repro.telemetry.trace import TraceWriter

pytestmark = pytest.mark.obsv

SHA_A = "a" * 40
SHA_B = "b" * 40


def write_labelled_trace(
    path, label, git_sha, config_hash, q_values, dirty=False,
):
    """A hand-built trace: one provenance event + update_health rows."""
    writer = TraceWriter(path)
    writer.emit(
        "provenance",
        schema=1,
        git_sha=git_sha,
        git_dirty=dirty,
        config_hash=config_hash,
        run=label,
    )
    for i, q in enumerate(q_values):
        writer.emit(
            "update_health",
            loop="sac",
            step=i * 10,
            update=i + 1,
            critic_loss=1.0,
            q_mean=0.0,
            q_max=float(q),
            entropy=0.5,
            buffer_size=100,
            buffer_capacity=1000,
            run=label,
        )
    writer.close()
    return path


def write_plain_trace(path, q_values):
    """A pre-provenance-style trace: no run stamp, no provenance event."""
    writer = TraceWriter(path)
    for i, q in enumerate(q_values):
        writer.emit(
            "update_health",
            loop="sac",
            step=i * 10,
            update=i + 1,
            critic_loss=1.0,
            q_mean=0.0,
            q_max=float(q),
            entropy=0.5,
            buffer_size=100,
            buffer_capacity=1000,
        )
    writer.close()
    return path


@pytest.fixture()
def mixed_store(tmp_path):
    """Two labelled runs (different SHA/config) + one unlabelled run."""
    write_labelled_trace(
        tmp_path / "sweep_a.jsonl", "sweepA", SHA_A, "cfg-one", [1.0, 3.0]
    )
    write_labelled_trace(
        tmp_path / "sweep_b.jsonl", "sweepB", SHA_B, "cfg-two",
        [10.0, 30.0], dirty=True,
    )
    write_plain_trace(tmp_path / "legacy.jsonl", [100.0])
    store = TelemetryStore(tmp_path / "obsv.sqlite")
    store.ingest_dir(tmp_path)
    yield store
    store.close()


class TestRunColumns:
    def test_ingest_hoists_label_and_provenance(self, mixed_store):
        by_label = {info.label: info for info in mixed_store.runs()}
        assert set(by_label) == {"sweepA", "sweepB", None}
        assert by_label["sweepA"].git_sha == SHA_A
        assert by_label["sweepA"].dirty == 0
        assert by_label["sweepA"].config_hash == "cfg-one"
        assert by_label["sweepB"].dirty == 1
        legacy = by_label[None]
        assert legacy.git_sha is None and legacy.config_hash is None

    def test_run_provenance_decodes_payload(self, mixed_store):
        rows = mixed_store.run_provenance()
        assert len(rows) == 3  # every trace run, provenance or not
        stamped = {r["label"]: r for r in rows if r["provenance"]}
        assert set(stamped) == {"sweepA", "sweepB"}
        assert stamped["sweepA"]["provenance"]["git_sha"] == SHA_A
        assert stamped["sweepB"]["provenance"]["git_dirty"] is True
        legacy = next(r for r in rows if r["label"] is None)
        assert legacy["provenance"] is None

    def test_provenance_keys_are_group_keys(self):
        assert PROVENANCE_KEYS == ("label", "git_sha", "config_hash")
        for key in PROVENANCE_KEYS:
            assert key in GROUP_KEYS


class TestLabelFilter:
    def test_events_narrowed_to_one_logical_run(self, mixed_store):
        rows = mixed_store.events(kind="update_health", label="sweepA")
        assert len(rows) == 2
        assert {r["run"] for r in rows} == {"sweepA"}
        assert mixed_store.events(label="nope") == []

    def test_series_respects_label(self, mixed_store):
        assert mixed_store.series(
            "q_max", kind="update_health", label="sweepB"
        ) == [10.0, 30.0]

    def test_aggregate_respects_label(self, mixed_store):
        (row,) = mixed_store.aggregate(
            "q_max", agg="mean", kind="update_health", label="sweepA"
        )
        assert row[-1] == pytest.approx(2.0)


class TestProvenanceGroupBy:
    EXPECTED = {
        "label": {"sweepA": 2.0, "sweepB": 20.0, None: 100.0},
        "git_sha": {SHA_A: 2.0, SHA_B: 20.0, None: 100.0},
        "config_hash": {"cfg-one": 2.0, "cfg-two": 20.0, None: 100.0},
    }

    @pytest.mark.parametrize("key", PROVENANCE_KEYS)
    def test_grouped_mean_json1(self, mixed_store, key):
        rows = mixed_store.aggregate(
            "q_max", agg="mean", kind="update_health", group_by=key
        )
        assert dict(rows) == self.EXPECTED[key]

    def test_count_per_git_sha(self, mixed_store):
        rows = mixed_store.aggregate(
            "q_max", agg="count", kind="update_health", group_by="git_sha"
        )
        assert dict(rows) == {SHA_A: 2, SHA_B: 2, None: 1}


_V3_DDL = """
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
    name    TEXT,
    worker  INTEGER,
    payload TEXT NOT NULL,
    PRIMARY KEY (run_id, seq)
);
CREATE TABLE snapshots (
    name    TEXT PRIMARY KEY,
    source  TEXT NOT NULL,
    payload TEXT NOT NULL
);
"""


def make_v3_store(path, directory):
    """A schema-3 store (no provenance columns) over one stamped + one
    bare trace; its rows are empty, so only the traces can fill them."""
    write_labelled_trace(
        directory / "stamped.jsonl", "sweepA", SHA_A, "cfg-one", [5.0]
    )
    write_plain_trace(directory / "bare.jsonl", [7.0])
    conn = sqlite3.connect(str(path))
    conn.executescript(_V3_DDL)
    conn.execute("INSERT INTO meta VALUES ('schema_version', '3')")
    for name in ("stamped.jsonl", "bare.jsonl"):
        conn.execute(
            "INSERT INTO runs (source, kind, mtime, size, events)"
            " VALUES (?, 'trace', 0.0, 1, 0)",
            (str(directory / name),),
        )
    conn.commit()
    conn.close()
    return path


class TestV3Migration:
    def test_migrates_and_backfills_provenance(self, tmp_path):
        path = make_v3_store(tmp_path / "old.sqlite", tmp_path)
        with TelemetryStore(path) as store:
            assert store.get_meta("schema_version") == "7"
            by_label = {info.label: info for info in store.runs()}
            assert by_label["sweepA"].git_sha == SHA_A
            assert by_label["sweepA"].config_hash == "cfg-one"
            # Pre-provenance trace keeps NULL columns instead of raising.
            assert by_label[None].git_sha is None

    def test_migrated_store_supports_provenance_queries(self, tmp_path):
        path = make_v3_store(tmp_path / "old.sqlite", tmp_path)
        TelemetryStore(path).close()  # rebuild
        with TelemetryStore(path) as store:  # reopen: no-op
            assert store.get_meta("schema_version") == "7"
            rows = store.aggregate(
                "q_max", agg="mean", kind="update_health",
                group_by="git_sha",
            )
            assert dict(rows) == {SHA_A: 5.0, None: 7.0}
            assert store.series(
                "q_max", kind="update_health", label="sweepA"
            ) == [5.0]

    def test_migration_is_idempotent(self, tmp_path):
        path = make_v3_store(tmp_path / "old.sqlite", tmp_path)
        for _ in range(2):
            with TelemetryStore(path) as store:
                assert store.get_meta("schema_version") == "7"
