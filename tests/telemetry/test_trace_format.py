"""Trace format 2: tick fields ride on ``episode_end`` as columns.

``data/format1_golden.jsonl`` was recorded with the per-tick format-1
writer (commit a209ba6, ``REPRO_RUN_ID=golden``): a lockstep cell (the
modular victim under the modular camera attacker, seeds 3 and 4, through
``run_episode_batch``) and a scalar cell (the end-to-end victim under the
IMU attacker, seeds 5 and 6, through ``run_episodes``), budget 1.0. The
same cells recorded now must expand to its tick records bit for bit,
and every reader must refuse the golden itself, naming its format.
"""

import json
from pathlib import Path
from unittest import mock

import pytest

from repro.eval import run_episode_batch, run_episodes
from repro.experiments import registry
from repro.obsv.compare import episode_metrics
from repro.obsv.loader import Ticks, load_episodes, split_episodes
from repro.obsv.store import TelemetryStore, open_run
from repro.telemetry.trace import (
    TraceFormatError,
    TraceWriter,
    read_trace,
    validate_trace,
)

pytestmark = pytest.mark.telemetry

GOLDEN = Path(__file__).parent / "data" / "format1_golden.jsonl"
REFUSAL = "trace format 1"


def golden_records():
    return [
        json.loads(line)
        for line in GOLDEN.read_text(encoding="utf-8").splitlines()
    ]


def golden_ticks():
    """The golden's tick records per episode id, in emission order."""
    ticks = {}
    for record in golden_records():
        if record["event"] == "tick":
            ticks.setdefault(record["episode"], []).append(record)
    return ticks


@pytest.fixture(scope="module")
def format2_trace(tmp_path_factory):
    """The golden's two cells, recorded now in format 2."""
    path = tmp_path_factory.mktemp("format2") / "trace.jsonl"
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_RUN_ID", "golden")
        with TraceWriter(path) as writer:
            run_episode_batch(
                registry.modular_victim,
                attacker=registry.camera_attacker(1.0, victim="modular"),
                seeds=[3, 4], trace=writer,
            )
            run_episodes(
                registry.e2e_victim, lambda: registry.imu_attacker(1.0),
                n_episodes=2, seed=5, trace=writer,
            )
    return path


def assert_bit_identical(episodes, expected):
    assert [e.episode for e in episodes] == [3, 4, 5, 6]
    for episode in episodes:
        reference = expected[episode.episode]
        assert episode.ticks == reference, episode.episode
        # Same keys in the same order, same float bits (repr round-trips).
        assert json.dumps(list(episode.ticks)) == json.dumps(reference)


class TestGolden:
    def test_golden_is_format_1_and_small(self):
        kinds = {record["event"] for record in golden_records()}
        assert "tick" in kinds
        assert GOLDEN.stat().st_size < 100_000

    def test_loader_expands_the_golden_ticks(self, format2_trace):
        assert validate_trace(format2_trace) == []
        assert_bit_identical(load_episodes(format2_trace), golden_ticks())

    def test_store_expands_the_golden_ticks(self, format2_trace, tmp_path):
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            store.ingest_trace(format2_trace)
            episodes = store.episodes()
            ticks = store.events(kind="tick")
        assert_bit_identical(episodes, golden_ticks())
        assert ticks == [t for e in episodes for t in e.ticks]

    def test_store_unnests_ticks_for_every_query(
        self, format2_trace, tmp_path
    ):
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            store.ingest_trace(format2_trace)
            episodes = store.episodes()
            ticks = [t for e in episodes for t in e.ticks]
            speeds = [t["speed"] for t in ticks]
            assert store.series("speed", kind="tick") == speeds
            assert store.series("speed") == speeds  # any kind
            assert store.series("ttc", kind="tick") == [
                t["ttc"] for t in ticks if "ttc" in t
            ]
            assert store.aggregate("event", agg="count", kind="tick") == [
                (len(ticks),)
            ]
            assert store.aggregate(
                "episode", agg="count", kind="tick", group_by="label"
            ) == [("golden", len(ticks))]
            assert store.events(kind="tick", limit=5) == ticks[:5]
            assert store.events(kind="tick", episode=4) == episodes[1].ticks
            assert store.events(kind="tick", loop="sac") == []

    def test_end_records_match_without_their_columns(self, format2_trace):
        ends = {
            r["episode"]: r
            for r in golden_records() if r["event"] == "episode_end"
        }
        for episode in load_episodes(format2_trace):
            assert episode.end == ends[episode.episode]
            assert json.dumps(episode.end) == json.dumps(
                ends[episode.episode]
            )

    def test_format_2_is_one_record_per_episode_end(self, format2_trace):
        kinds = [record["event"] for record in read_trace(format2_trace)]
        assert kinds.count("episode_end") == 4
        assert "tick" not in kinds
        assert format2_trace.stat().st_size < GOLDEN.stat().st_size

    def test_grouped_tick_mean_matches_the_episodes(
        self, format2_trace, tmp_path
    ):
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            store.ingest_trace(format2_trace)
            rows = store.aggregate(
                "speed", kind="tick", group_by="episode"
            )
            episodes = store.episodes()
        expected = {
            str(e.episode): sum(t["speed"] for t in e.ticks) / len(e.ticks)
            for e in episodes
        }
        assert [key for key, _ in rows] == sorted(expected)
        for key, mean in rows:
            # SQLite may sum in another order: equal to the last bits.
            assert mean == pytest.approx(expected[key], rel=1e-12, abs=0)


def hexed_columns(columns):
    """Tick columns with every float written as ``float.hex``."""
    return {
        name: [v.hex() if isinstance(v, float) else v for v in values]
        for name, values in columns.items()
    }


class TestColumnarReads:
    """Both readers keep an episode's tick columns as the trace holds
    them, and reading an episode's size, outcome and metrics builds no
    tick dict."""

    def test_readers_hold_the_recorded_columns(self, format2_trace, tmp_path):
        recorded = [
            hexed_columns(record["ticks"])
            for record in read_trace(format2_trace)
            if record["event"] == "episode_end"
        ]
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            store.ingest_trace(format2_trace)
            stored = store.episodes()
        loaded = load_episodes(format2_trace)
        for episodes in (loaded, stored):
            assert [hexed_columns(e.ticks.columns) for e in episodes] == (
                recorded
            )
        # The lockstep camera cell has ticks without a TTC; the scalar
        # cell is the IMU attacker's.
        lockstep = [e for e in loaded if e.attacker == "camera"]
        assert lockstep
        assert all(None in e.ticks.column("ttc") for e in lockstep)
        assert [e.attacker for e in loaded].count("imu") == 2

    def test_metrics_build_no_tick_dict(self, format2_trace, tmp_path):
        with mock.patch.object(
            Ticks, "_row", autospec=True, side_effect=Ticks._row
        ) as rows, TelemetryStore(tmp_path / "s.sqlite") as store:
            store.ingest_trace(format2_trace)
            episodes = store.episodes()
            for episode in episodes:
                assert len(episode.ticks) == episode.end["steps"] > 0
                assert episode.complete
                assert episode_metrics(episode)["steps"] == len(episode.ticks)
            assert rows.call_count == 0
            first = episodes[0].ticks[0]
            assert rows.call_count == 1 and first["tick"] == 1


def ingest(path, store_path):
    with TelemetryStore(store_path) as store:
        store.ingest_trace(path)


def open_and_read(source):
    with open_run(source) as store:
        return store.episodes()


class TestFormat1Refused:
    def test_every_entry_point_names_the_format(self, tmp_path):
        refusals = [
            lambda: validate_trace(GOLDEN),
            lambda: load_episodes(GOLDEN),
            lambda: load_episodes(GOLDEN, strict=True),
            lambda: ingest(GOLDEN, tmp_path / "s.sqlite"),
            lambda: open_and_read(GOLDEN),
            lambda: validate_trace(golden_records()),
            lambda: split_episodes(golden_records()),
        ]
        for refuse in refusals:
            with pytest.raises(TraceFormatError, match=REFUSAL):
                refuse()

    def test_refusal_names_the_file_and_line(self):
        with pytest.raises(TraceFormatError) as error:
            read_trace(GOLDEN)
        assert f"{GOLDEN}, line 4" in str(error.value)

    def test_store_keeps_nothing_of_a_refused_trace(self, tmp_path):
        with TelemetryStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(TraceFormatError):
                store.ingest_trace(GOLDEN)
            assert store.runs() == [] and store.events() == []
