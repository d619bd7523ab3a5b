"""Crash-resilience tests for the observability plumbing.

Covers the satellites of the crash-safety work: torn-tail tolerance in
the trace reader (and everything stacked on it — the forensics loader
and SQLite ingest), lock-contention retry in :class:`TelemetryStore`,
and the ``verify-artifacts`` checkpoint audit subcommand.
"""

import json
import sqlite3

import numpy as np
import pytest

from repro.obsv.cli import main
from repro.obsv.loader import load_episodes
from repro.obsv.store import TelemetryStore
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import TraceWriter, read_trace, tick_columns
from repro.utils.serialization import save_checkpoint

pytestmark = pytest.mark.obsv


def write_torn_trace(path, events=6):
    """A healthy JSONL trace whose final line, the second episode's
    ``episode_end``, was torn by a crash."""
    ticks = range(1, events + 1)
    with TraceWriter(path) as writer:
        writer.emit("episode_start", episode=1, seed=7, attacker="none")
        writer.emit(
            "episode_end", episode=1, steps=events, duration=events * 0.05,
            collision="NONE",
            ticks=tick_columns({
                "tick": ticks, "t": [tick * 0.05 for tick in ticks],
                "delta": [0.05] * events, "x": [float(t) for t in ticks],
                "y": [0.0] * events, "yaw": [0.0] * events,
                "speed": [1.0] * events,
            }),
        )
        writer.emit("episode_start", episode=2, seed=8, attacker="none")
    with path.open("a", encoding="utf-8") as handle:
        handle.write(
            '{"event": "episode_end", "episode": 2, "ticks": {"tick": [1, 2'
        )
    return path


class TestTornTrace:
    def test_read_trace_skips_and_counts_torn_tail(self, tmp_path):
        path = write_torn_trace(tmp_path / "trace.jsonl")
        get_registry().reset()
        try:
            events = read_trace(path)
            assert len(events) == 3  # start, end, start; tail dropped
            assert all(event.get("episode") != 2
                       or event["event"] != "episode_end"
                       for event in events)
            counter = get_registry().counter("trace_torn_lines_total")
            assert counter.value == 1
        finally:
            get_registry().reset()

    def test_read_trace_strict_still_raises(self, tmp_path):
        path = write_torn_trace(tmp_path / "trace.jsonl")
        with pytest.raises(json.JSONDecodeError):
            read_trace(path, strict=True)

    def test_load_episodes_survives_torn_tail(self, tmp_path):
        path = write_torn_trace(tmp_path / "trace.jsonl")
        episodes = load_episodes(path)
        assert len(episodes) == 2
        assert episodes[0].complete
        assert len(episodes[0].ticks) == 6
        # The killed episode left no tick data.
        assert not episodes[1].complete and episodes[1].ticks == []

    def test_ingest_trace_survives_torn_tail(self, tmp_path):
        path = write_torn_trace(tmp_path / "trace.jsonl")
        with TelemetryStore(tmp_path / "obsv.sqlite") as store:
            info = store.ingest_trace(path)
            assert info.events == 3
            ticks = store.events(kind="tick")
            assert len(ticks) == 6


class TestLockRetry:
    def test_write_retries_until_lock_clears(self, tmp_path):
        delays = []
        store = TelemetryStore(
            tmp_path / "obsv.sqlite",
            lock_retries=5,
            lock_backoff=0.01,
            sleep=delays.append,
        )
        # A second connection holds the write lock for the first attempts.
        rival = sqlite3.connect(str(store.path), isolation_level=None)
        rival.execute("BEGIN IMMEDIATE")
        attempts = []

        def nosy_sleep(delay):
            delays.append(delay)
            if len(delays) >= 2:
                rival.execute("COMMIT")  # lock clears before attempt 3

        store._sleep = nosy_sleep
        try:
            store.set_meta("winner", "yes")
        finally:
            rival.close()
            store.close()
        assert store  # reached: no exception escaped
        assert delays == [0.01, 0.02]  # exponential backoff observed
        check = sqlite3.connect(str(tmp_path / "obsv.sqlite"))
        value = check.execute(
            "SELECT value FROM meta WHERE key = 'winner'"
        ).fetchone()[0]
        check.close()
        assert value == "yes"

    def test_write_gives_up_after_budget(self, tmp_path):
        delays = []
        store = TelemetryStore(
            tmp_path / "obsv.sqlite",
            lock_retries=3,
            lock_backoff=0.01,
            sleep=delays.append,
        )
        rival = sqlite3.connect(str(store.path), isolation_level=None)
        rival.execute("BEGIN IMMEDIATE")
        try:
            with pytest.raises(sqlite3.OperationalError):
                store.set_meta("never", "lands")
        finally:
            rival.execute("ROLLBACK")
            rival.close()
            store.close()
        assert delays == [0.01, 0.02, 0.04]


class TestVerifyArtifactsCli:
    def _populate(self, root):
        save_checkpoint(root / "good", {"w": np.ones(4)})
        with open(root / "legacy.npz", "wb") as handle:
            np.savez(handle, w=np.ones(2))
        corrupt = save_checkpoint(root / "sub" / "torn", {"w": np.ones(400)})
        corrupt.write_bytes(corrupt.read_bytes()[:80])
        return root

    def test_clean_directory_exits_zero(self, tmp_path, capsys):
        save_checkpoint(tmp_path / "good", {"w": np.ones(4)})
        assert main(["verify-artifacts", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_corruption_exits_nonzero_and_names_the_file(
        self, tmp_path, capsys
    ):
        self._populate(tmp_path)
        assert main(["verify-artifacts", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "torn.npz" in out and "CORRUPT" in out
        assert "legacy" in out

    def test_strict_flags_legacy(self, tmp_path, capsys):
        with open(tmp_path / "legacy.npz", "wb") as handle:
            np.savez(handle, w=np.ones(2))
        assert main(["verify-artifacts", str(tmp_path)]) == 0
        assert main(["verify-artifacts", str(tmp_path), "--strict"]) == 1

    def test_upgrade_rewrites_legacy_in_place(self, tmp_path, capsys):
        with open(tmp_path / "legacy.npz", "wb") as handle:
            np.savez(handle, w=np.arange(3.0))
        assert main(
            ["verify-artifacts", str(tmp_path), "--strict", "--upgrade"]
        ) == 0
        # Now checksummed: a second strict pass is clean.
        assert main(["verify-artifacts", str(tmp_path), "--strict"]) == 0
        from repro.utils.serialization import load_checkpoint

        arrays, _ = load_checkpoint(tmp_path / "legacy.npz")
        np.testing.assert_array_equal(arrays["w"], np.arange(3.0))

    def test_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["verify-artifacts", str(tmp_path / "nope")])
