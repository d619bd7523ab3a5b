"""Concurrent multi-process store ingest: idempotent and loss-free.

N real processes ingest the same run directory into one SQLite store at
the same time. The ``BEGIN IMMEDIATE`` write path plus the under-the-lock
re-check in ``ingest_trace`` must leave exactly one run row per trace
file and exactly the file's events — no duplicates from the ingest race,
no losses from lock contention.
"""

import json
import subprocess
import sys

import pytest

from repro.obsv.store import TelemetryStore
from repro.telemetry.trace import tick_columns

pytestmark = [pytest.mark.obsv, pytest.mark.watch]

N_TRACES = 3
TICKS_PER_TRACE = 20

_INGEST_SCRIPT = """
import sys
from repro.obsv.store import TelemetryStore

store_path, run_dir = sys.argv[1], sys.argv[2]
with TelemetryStore(store_path) as store:
    summary = store.ingest_dir(run_dir)
print(summary["events"])
"""


def _episode(episode, ticks):
    """An episode's start and end records, holding ``ticks`` ticks."""
    steps = range(1, ticks + 1)
    columns = tick_columns({
        "tick": steps, "t": [0.1 * tick for tick in steps],
        "delta": [0.0] * ticks, "x": [1.0] * ticks, "y": [0.0] * ticks,
        "yaw": [0.0] * ticks, "speed": [5.0] * ticks,
    })
    return "".join(
        json.dumps(record) + "\n"
        for record in (
            {"event": "episode_start", "episode": episode, "seed": 0},
            {"event": "episode_end", "episode": episode, "steps": ticks,
             "duration": 0.1 * ticks, "ticks": columns},
        )
    )


def _write_traces(directory):
    for k in range(N_TRACES):
        with (directory / f"trace{k}.jsonl").open(
            "w", encoding="utf-8"
        ) as handle:
            handle.write(_episode(k, TICKS_PER_TRACE))


def _ticks_per_file(store):
    """Tick count per source filename, through ``group_by="run"``."""
    names = {
        info.run_id: info.source.rsplit("/", 1)[-1] for info in store.runs()
    }
    return {
        names[run_id]: count
        for run_id, count in store.aggregate(
            "tick", agg="count", group_by="run"
        )
    }


def test_parallel_ingest_is_idempotent_and_loss_free(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    _write_traces(run_dir)
    store_path = tmp_path / "obsv.sqlite"
    # Create the store first so the subprocesses race only on ingest,
    # not on schema creation.
    TelemetryStore(store_path).close()

    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _INGEST_SCRIPT,
             str(store_path), str(run_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(4)
    ]
    failures = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        if proc.returncode != 0:
            failures.append(err)
    assert not failures, "ingest process failed:\n" + "\n".join(failures)

    with TelemetryStore(store_path) as store:
        runs = store.runs()
        # One run row per trace file — the race never duplicates a source.
        assert sorted(info.source.rsplit("/", 1)[-1] for info in runs) == [
            f"trace{k}.jsonl" for k in range(N_TRACES)
        ]
        # Every event ingested exactly once.
        assert _ticks_per_file(store) == {
            f"trace{k}.jsonl": TICKS_PER_TRACE for k in range(N_TRACES)
        }


def test_reingest_after_append_replaces_run_in_place(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    _write_traces(run_dir)
    store_path = tmp_path / "obsv.sqlite"
    with TelemetryStore(store_path) as store:
        store.ingest_dir(run_dir)
        first = {info.source: info.run_id for info in store.runs()}
    # A trace grows (the run is still going) and is re-ingested.
    with (run_dir / "trace0.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(_episode(N_TRACES, 1))
    with TelemetryStore(store_path) as store:
        store.ingest_dir(run_dir)
        assert len(store.runs()) == N_TRACES  # replaced, not appended
        per_file = _ticks_per_file(store)
        assert per_file["trace0.jsonl"] == TICKS_PER_TRACE + 1
        assert per_file["trace1.jsonl"] == TICKS_PER_TRACE
        # untouched traces kept their run ids (ingest was a no-op there)
        after = {info.source: info.run_id for info in store.runs()}
        unchanged = [s for s in first if not s.endswith("trace0.jsonl")]
        for source in unchanged:
            assert after[source] == first[source]
