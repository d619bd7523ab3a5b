"""Tests for trace loading, phase segmentation, and episode post-mortems."""

import math

import pytest

from repro.agents.modular import ModularAgent
from repro.core.attackers import NullAttacker, OracleAttacker
from repro.core.injection import ACTIVE_THRESHOLD
from repro.eval.episodes import run_episode
from repro.obsv.forensics import analyze, segment_phases, strike_threshold
from repro.obsv.loader import load_episodes, select_episode, split_episodes
from repro.telemetry.trace import TraceWriter, validate_trace

pytestmark = pytest.mark.obsv


def oracle_episode(seed=3, budget=1.0):
    writer = TraceWriter()
    run_episode(
        lambda w: ModularAgent(w.road),
        attacker=OracleAttacker(budget=budget),
        seed=seed,
        trace=writer,
        episode_id=seed,
    )
    return writer.events


def make_tick(tick, delta, **extra):
    return {
        "event": "tick", "episode": 0, "tick": tick, "t": 0.1 * tick,
        "delta": delta, "x": 0.0, "y": 0.0, "yaw": 0.0, "speed": 16.0,
        **extra,
    }


class TestLoader:
    def test_split_groups_by_episode_and_order(self):
        writer = TraceWriter()
        for seed in (1, 2):
            run_episode(
                lambda w: ModularAgent(w.road),
                attacker=NullAttacker(),
                seed=seed,
                trace=writer,
                episode_id=seed,
            )
        episodes = split_episodes(writer.events)
        assert [e.episode for e in episodes] == [1, 2]
        for episode in episodes:
            assert episode.complete
            ticks = [t["tick"] for t in episode.ticks]
            assert ticks == sorted(ticks)

    def test_repeated_episode_id_opens_new_bucket(self):
        # Two sweeps sharing a seed (as examples/attack_demo.py does) must
        # not merge into one garbled episode.
        events = oracle_episode(seed=9) + oracle_episode(seed=9)
        episodes = split_episodes(events)
        assert [e.episode for e in episodes] == [9, 9]
        assert all(e.complete for e in episodes)
        assert len(episodes[0].ticks) == len(episodes[1].ticks)

    def test_drops_non_episode_records(self):
        events = [
            {"event": "alert", "rule": "nan_loss", "severity": "critical",
             "message": "x"},
            {"event": "train_step", "loop": "sac", "step": 1},
        ]
        assert split_episodes(events) == []

    def test_load_episodes_skips_invalid_by_default(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as writer:
            for event in oracle_episode():
                writer.emit(event.pop("event"), **event)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "bogus"}\n')
        episodes = load_episodes(path)
        assert len(episodes) == 1 and episodes[0].complete
        with pytest.raises(ValueError):
            load_episodes(path, strict=True)

    def test_select_episode(self):
        episodes = split_episodes(oracle_episode(seed=7))
        assert select_episode(episodes).episode == 7
        assert select_episode(episodes, "7").episode == 7
        with pytest.raises(KeyError):
            select_episode(episodes, "99")

    def test_new_optional_fields_are_schema_valid(self):
        events = oracle_episode()
        assert validate_trace(events) == []
        start = next(e for e in events if e["event"] == "episode_start")
        assert start["budget"] == 1.0
        assert start["scenario"] == "default"
        (episode,) = split_episodes(events)
        ticks = episode.ticks
        assert all("npc_gap" in t and "lateral" in t for t in ticks)
        assert any("ttc" in t for t in ticks)
        assert events[-1]["collision_with"] is not None


class TestSegmentation:
    def test_alternating_runs_merge(self):
        ticks = (
            [make_tick(i, 0.01) for i in range(1, 6)]
            + [make_tick(i, 0.9) for i in range(6, 11)]
            + [make_tick(i, 0.0) for i in range(11, 16)]
        )
        phases = segment_phases(ticks, strike_level=0.5)
        assert [p.kind for p in phases] == ["lurk", "strike", "lurk"]
        assert phases[1].start_tick == 6 and phases[1].end_tick == 10

    def test_short_lurk_gap_is_bridged(self):
        ticks = (
            [make_tick(1, 0.9), make_tick(2, 0.9)]
            + [make_tick(3, 0.0)]  # one quiet tick inside the strike
            + [make_tick(4, 0.9), make_tick(5, 0.9)]
        )
        phases = segment_phases(ticks, strike_level=0.5)
        assert [p.kind for p in phases] == ["strike"]
        assert phases[0].ticks == 5

    def test_long_lurk_gap_splits_strikes(self):
        ticks = (
            [make_tick(1, 0.9)]
            + [make_tick(i, 0.0) for i in range(2, 7)]
            + [make_tick(7, 0.9)]
        )
        phases = segment_phases(ticks, strike_level=0.5)
        assert [p.kind for p in phases] == ["strike", "lurk", "strike"]

    def test_empty_ticks(self):
        assert segment_phases([], 0.5) == []

    def test_strike_threshold_fallbacks(self):
        assert strike_threshold(1.0, []) == 0.5
        # No budget recorded: half the peak injection.
        assert strike_threshold(None, [0.02, 0.8]) == pytest.approx(0.4)
        # Tiny budgets floor at the active threshold.
        assert strike_threshold(0.05, []) == ACTIVE_THRESHOLD


class TestForensics:
    def test_oracle_attack_has_distinct_phases(self):
        episode = split_episodes(oracle_episode())[0]
        report = analyze(episode)
        kinds = {p.kind for p in report.phases}
        assert kinds == {"lurk", "strike"}
        assert report.strike_mean_delta > report.lurk_mean_delta
        assert report.struck
        assert report.collision == "SIDE"
        assert report.collision_with.startswith("npc")
        assert report.ticks_strike_to_collision is not None
        assert report.seconds_strike_to_collision == pytest.approx(
            0.1 * report.ticks_strike_to_collision
        )
        assert report.min_npc_gap is not None and report.min_npc_gap < 10.0
        assert report.min_ttc is not None and report.min_ttc > 0.0

    def test_nominal_episode_is_all_lurk(self):
        writer = TraceWriter()
        run_episode(
            lambda w: ModularAgent(w.road),
            seed=5,
            trace=writer,
            episode_id=5,
        )
        report = analyze(split_episodes(writer.events)[0])
        assert [p.kind for p in report.phases] == ["lurk"]
        assert not report.struck
        assert math.isnan(report.strike_mean_delta)
        assert report.collision is None

    def test_markdown_and_json_render(self):
        episode = split_episodes(oracle_episode())[0]
        report = analyze(episode)
        markdown = report.to_markdown(ticks=episode.ticks)
        assert "strike onset" in markdown
        assert "minimum safety margin" in markdown
        assert "|delta|" in markdown
        payload = report.to_json()
        assert payload["collision"] == "SIDE"
        assert isinstance(payload["phases"], list)

    def test_analyze_requires_ticks(self):
        episode = split_episodes(
            [{"event": "episode_start", "episode": 0, "seed": 0}]
        )[0]
        with pytest.raises(ValueError):
            analyze(episode)
