"""Tests for replay verification (trace fidelity proofs)."""

import pytest

from repro.agents.modular import ModularAgent
from repro.core.attackers import NullAttacker, OracleAttacker
from repro.eval.episodes import run_episode
from repro.eval.recorder import record_episode
from repro.obsv.loader import split_episodes
from repro.obsv.replay import ReplayError, replay_episode
from repro.telemetry.trace import TraceWriter

pytestmark = pytest.mark.obsv


def record(seed=3, attacker=None, runner=run_episode):
    writer = TraceWriter()
    runner(
        lambda w: ModularAgent(w.road),
        attacker=attacker,
        seed=seed,
        trace=writer,
        episode_id=seed,
    )
    return split_episodes(writer.events)[0]


def doctored(episode, index, fld, change):
    """``episode`` with ``change`` added to one recorded tick field."""
    columns = {name: list(c) for name, c in episode.ticks.columns.items()}
    columns[fld][index] += change
    end = dict(episode.end, ticks=columns)
    (falsified,) = split_episodes([episode.start, end])
    return falsified


class TestReplayFidelity:
    def test_oracle_episode_replays_exactly(self):
        episode = record(attacker=OracleAttacker(budget=1.0))
        report = replay_episode(episode)
        assert report.ok, report.to_markdown()
        assert report.diffs == []
        assert report.end_diffs == []
        assert report.steps_recorded == report.steps_replayed
        assert report.fields_compared > 0
        assert max(report.max_error.values()) <= 1e-9

    def test_nominal_episode_replays_exactly(self):
        episode = record(seed=11, attacker=NullAttacker())
        report = replay_episode(episode)
        assert report.ok, report.to_markdown()

    def test_recorder_trace_replays_through_runner(self):
        # record_episode emits a subset of run_episode's tick fields with
        # identical semantics; replay must reproduce all of them.
        episode = record(
            seed=4, attacker=OracleAttacker(budget=1.0), runner=record_episode
        )
        report = replay_episode(episode)
        assert report.ok, report.to_markdown()

    def test_doctored_trace_is_flagged(self):
        episode = doctored(  # falsify one recorded pose
            record(attacker=OracleAttacker(budget=1.0)), 10, "x", 0.5
        )
        report = replay_episode(episode)
        assert not report.ok
        assert any(
            d.fld == "x" and d.tick == episode.ticks[10]["tick"]
            for d in report.diffs
        )
        assert "MISMATCH" in report.to_markdown()

    def test_uniform_tolerance_can_mask_small_doctoring(self):
        episode = doctored(
            record(attacker=OracleAttacker(budget=1.0)), 10, "x", 1e-4
        )
        assert not replay_episode(episode).ok
        assert replay_episode(episode, tolerance=1e-2).ok


class TestReplayErrors:
    def test_missing_start_event(self):
        episode = record(attacker=OracleAttacker(budget=1.0))
        episode.start = None
        with pytest.raises(ReplayError):
            replay_episode(episode)

    def test_custom_scenario_is_rejected(self):
        episode = record(attacker=OracleAttacker(budget=1.0))
        episode.start["scenario"] = "custom"
        with pytest.raises(ReplayError, match="custom scenario"):
            replay_episode(episode)

    def test_unknown_victim_and_attacker(self):
        episode = record(attacker=OracleAttacker(budget=1.0))
        episode.start["victim"] = "mystery-agent"
        with pytest.raises(ReplayError, match="not replayable"):
            replay_episode(episode)
        episode.start["victim"] = "modular"
        episode.start["attacker"] = "mystery-attack"
        with pytest.raises(ReplayError, match="not replayable"):
            replay_episode(episode)
