"""Tests for trajectory recording."""

import numpy as np
import pytest

from repro.agents.modular import ModularAgent
from repro.core import OracleAttacker
from repro.eval import (
    Trajectory,
    record_episode,
    run_episode,
)
from repro.obsv.loader import split_episodes
from repro.obsv.replay import DEFAULT_TOLERANCES, diff_ticks
from repro.sim import Control, make_world
from repro.telemetry.trace import TraceWriter


def modular_victim(world):
    return ModularAgent(world.road)


class TestTrajectory:
    def test_record_and_lengths(self, quiet_world):
        trajectory = Trajectory()
        trajectory.record(quiet_world)
        quiet_world.tick(Control())
        trajectory.record(quiet_world, delta=0.3)
        assert len(trajectory) == 2
        assert trajectory.deltas == [0.0, 0.3]

    def test_actor_positions(self, quiet_world):
        trajectory = Trajectory()
        trajectory.record(quiet_world)
        ego = trajectory.actor("ego")
        assert ego.shape == (1, 2)
        with pytest.raises(KeyError):
            trajectory.actor("ghost")

    def test_csv_export(self, quiet_world):
        trajectory = Trajectory()
        trajectory.record(quiet_world)
        csv = trajectory.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "time,actor,x,y,yaw,speed,delta"
        assert len(lines) == 1 + 1 + len(quiet_world.npcs)

    def test_ascii_render(self, quiet_world):
        trajectory = Trajectory()
        for _ in range(20):
            quiet_world.tick(Control(thrust=-0.3))
            trajectory.record(quiet_world)
        art = trajectory.render_ascii(width=60)
        assert "E" in art
        assert art.count("\n") > 10

    def test_empty_render(self):
        assert "empty" in Trajectory().render_ascii()

    def test_positions_single_pass_matches_actor(self, quiet_world):
        trajectory = Trajectory()
        for _ in range(5):
            quiet_world.tick(Control())
            trajectory.record(quiet_world)
        positions = trajectory.positions()
        assert set(positions) == {"ego"} | {
            npc.vehicle.name for npc in quiet_world.npcs
        }
        for name, array in positions.items():
            assert array.shape == (5, 2)
            np.testing.assert_array_equal(array, trajectory.actor(name))

    def test_positions_cache_invalidates_on_record(self, quiet_world):
        trajectory = Trajectory()
        trajectory.record(quiet_world)
        first = trajectory.positions()
        assert trajectory.positions() is first  # cached
        quiet_world.tick(Control())
        trajectory.record(quiet_world)
        assert trajectory.actor("ego").shape == (2, 2)  # recomputed

    def test_jsonl_roundtrip(self, quiet_world):
        trajectory = Trajectory()
        for delta in (0.0, 0.25, -0.5):
            quiet_world.tick(Control())
            trajectory.record(quiet_world, delta=delta)
        rebuilt = Trajectory.from_jsonl(trajectory.to_jsonl())
        assert rebuilt.times == trajectory.times
        assert rebuilt.deltas == trajectory.deltas
        assert rebuilt.samples == trajectory.samples
        assert rebuilt.to_jsonl() == trajectory.to_jsonl()

    def test_jsonl_empty(self):
        assert Trajectory().to_jsonl() == ""
        assert len(Trajectory.from_jsonl("")) == 0


class TestRecordEpisode:
    def test_records_full_episode(self):
        trajectory, world = record_episode(modular_victim, seed=1)
        assert len(trajectory) == world.step_count + 1
        assert world.done

    def test_attack_deltas_recorded(self):
        trajectory, world = record_episode(
            modular_victim, attacker=OracleAttacker(budget=1.0), seed=1
        )
        assert any(abs(d) > 0.5 for d in trajectory.deltas)

    def test_trace_matches_run_episode(self):
        def records(run):
            writer = TraceWriter()
            run(
                modular_victim, attacker=OracleAttacker(budget=1.0), seed=1,
                trace=writer,
            )
            (episode,) = split_episodes(writer.events)
            return (
                episode.ticks,
                [e for e in writer.events if e["event"] == "episode_end"],
            )

        recorded_ticks, recorded_end = records(record_episode)
        ticks, end = records(run_episode)
        exact = {name: 0.0 for name in DEFAULT_TOLERANCES}
        diffs, _, compared = diff_ticks(ticks, recorded_ticks, exact)
        assert compared > 0 and not diffs
        assert recorded_ticks == ticks
        assert recorded_end == end
        assert "nominal_return" in end[0] and "ttc" in ticks[-1]
