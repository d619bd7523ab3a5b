"""Cross-module property tests on simulator and attack invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.modular import BehaviorPlanner, ModularAgent
from repro.core import InjectionChannel, InjectionChannelConfig, OracleAttacker
from repro.eval.episodes import EpisodeLedger
from repro.sim import Control, ScenarioConfig, make_world

controls = st.lists(
    st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=5, max_size=40
)


class TestWorldInvariants:
    @given(controls)
    @settings(max_examples=15, deadline=None)
    def test_physics_bounds_hold_for_any_controls(self, sequence):
        world = make_world(rng=None)
        config = world.ego.config
        previous = world.ego.state.position
        for steer, thrust in sequence:
            if world.done:
                break
            world.tick(Control(steer=steer, thrust=thrust))
            state = world.ego.state
            assert 0.0 <= state.speed <= config.max_speed
            # Position advances at most v_max * dt (plus epsilon).
            step = float(np.linalg.norm(state.position - previous))
            assert step <= config.max_speed * world.config.dt + 1e-6
            previous = state.position

    @given(controls)
    @settings(max_examples=10, deadline=None)
    def test_world_stops_at_first_collision(self, sequence):
        world = make_world(rng=None)
        for steer, thrust in sequence:
            if world.done:
                break
            result = world.tick(Control(steer=steer, thrust=thrust))
            if result.collision is not None:
                assert result.done
        assert len(world.collisions) <= 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_episode_metrics_deterministic_per_seed(self, seed):
        def run(seed):
            world = make_world(rng=np.random.default_rng(seed))
            agent = ModularAgent(world.road)
            agent.reset(world)
            while not world.done:
                world.tick(agent.act(world))
            return (world.step_count, world.passed_npcs, world.ego.state.x)

        assert run(seed) == run(seed)

    @given(controls)
    @settings(max_examples=10, deadline=None)
    def test_time_advances_with_steps(self, sequence):
        world = make_world(rng=None)
        for steer, thrust in sequence:
            if world.done:
                break
            result = world.tick(Control(steer=steer, thrust=thrust))
            assert result.time == pytest.approx(
                result.step * world.config.dt
            )


class TestPlannerInvariants:
    @given(st.integers(0, 5_000))
    @settings(max_examples=10, deadline=None)
    def test_reference_path_stays_on_road(self, seed):
        world = make_world(rng=np.random.default_rng(seed))
        planner = BehaviorPlanner(world.road)
        planner.reset(world)
        agent = ModularAgent(world.road)
        agent.reset(world)
        while not world.done:
            plan = planner.update(world)
            ego_s, _, _ = world.road.to_frenet(world.ego.state.position)
            for offset in (0.0, 10.0, 25.0):
                d_ref = plan.reference_offset(ego_s + offset)
                assert abs(d_ref) <= world.road.half_width
            world.tick(agent.act(world))


class TestAttackInvariants:
    @given(
        st.lists(st.floats(-3, 3), min_size=1, max_size=50),
        st.floats(0.05, 1.2),
    )
    @settings(max_examples=30, deadline=None)
    def test_channel_effort_never_exceeds_budget(self, actions, budget):
        """The mean effort a one-row ledger books for a channel's deltas."""
        channel = InjectionChannel(InjectionChannelConfig(budget=budget))
        ledger = EpisodeLedger([0], None, None, ScenarioConfig())
        for step, action in enumerate(actions, start=1):
            ledger.tick(
                True, step, 0.1 * step, channel.inject(action), (0.0,) * 4,
                0.0, 0.0, 0.0, np.nan,
            )
        (result,) = ledger.finish([None], 0, len(actions), 0.1 * len(actions))
        assert result.mean_effort <= budget + 1e-9

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_oracle_delta_bounded_by_budget(self, budget):
        world = make_world(rng=None)
        attacker = OracleAttacker(budget=budget)
        attacker.reset(world)
        npc = world.npcs[0].vehicle
        world.ego.teleport(npc.state.x, npc.state.y - 3.5, 0.0, 16.0)
        delta = attacker.delta(world, Control())
        assert abs(delta) <= budget + 1e-12

    @given(st.floats(0.1, 1.0), st.integers(0, 1_000))
    @settings(max_examples=8, deadline=None)
    def test_attack_never_helps_the_victim(self, budget, seed):
        """An attacked episode never earns more driving reward than the
        same-seed nominal episode by more than noise."""
        from repro.eval import run_episode

        nominal = run_episode(
            lambda w: ModularAgent(w.road), seed=seed
        )
        attacked = run_episode(
            lambda w: ModularAgent(w.road),
            attacker=OracleAttacker(budget=budget),
            seed=seed,
        )
        assert attacked.nominal_return <= nominal.nominal_return + 5.0
