"""Tests for world ticking, NPC behaviour and the scenario builder."""

import numpy as np
import pytest

from repro.sim import (
    Control,
    CollisionKind,
    ScenarioConfig,
    make_world,
)


class TestScenarioBuilder:
    def test_spawn_counts(self, world):
        assert len(world.npcs) == 6
        assert world.ego.name == "ego"

    def test_ego_initial_speed(self, world, scenario_config):
        assert world.ego.state.speed == scenario_config.ego_speed

    def test_npcs_ahead_of_ego(self, world):
        ego_s, _, _ = world.road.to_frenet(world.ego.state.position)
        for npc in world.npcs:
            s, _, _ = world.road.to_frenet(npc.vehicle.state.position)
            assert s > ego_s

    def test_npcs_spaced_apart(self, world):
        positions = sorted(
            world.road.to_frenet(npc.vehicle.state.position)[0]
            for npc in world.npcs
        )
        gaps = np.diff(positions)
        assert np.all(gaps > 5.0)

    def test_jitter_is_reproducible(self):
        a = make_world(rng=np.random.default_rng(5))
        b = make_world(rng=np.random.default_rng(5))
        for npc_a, npc_b in zip(a.npcs, b.npcs):
            assert npc_a.vehicle.state.x == npc_b.vehicle.state.x

    def test_jitter_varies_with_seed(self):
        a = make_world(rng=np.random.default_rng(5))
        b = make_world(rng=np.random.default_rng(6))
        xs_a = [npc.vehicle.state.x for npc in a.npcs]
        xs_b = [npc.vehicle.state.x for npc in b.npcs]
        assert xs_a != xs_b

    def test_no_rng_no_jitter(self, quiet_world, scenario_config):
        first_s, _, _ = quiet_world.road.to_frenet(
            quiet_world.npcs[0].vehicle.state.position
        )
        assert first_s == pytest.approx(10.0 + scenario_config.first_npc_gap)


class TestTicking:
    def test_step_counter_and_time(self, world, scenario_config):
        result = world.tick(Control())
        assert result.step == 1
        assert result.time == pytest.approx(scenario_config.dt)

    def test_horizon_termination(self):
        config = ScenarioConfig(max_steps=5)
        world = make_world(config, rng=None)
        result = None
        for _ in range(5):
            result = world.tick(Control(thrust=-1.0))
        assert result.done
        assert world.done

    def test_tick_after_done_raises(self):
        config = ScenarioConfig(max_steps=1)
        world = make_world(config, rng=None)
        world.tick(Control(thrust=-1.0))
        with pytest.raises(RuntimeError):
            world.tick(Control())

    def test_front_collision_detected(self, quiet_world):
        """Coasting straight rams the first NPC head-on."""
        result = None
        while not quiet_world.done:
            result = quiet_world.tick(Control())
        assert result.collision is not None
        assert result.collision.kind is CollisionKind.FRONT
        assert result.collision.other == "npc_0"

    def test_barrier_collision(self, quiet_world):
        """Hard left steer runs the ego off the road into the barrier."""
        result = None
        while not quiet_world.done:
            result = quiet_world.tick(Control(steer=-1.0, thrust=0.0))
        assert result.collision is not None
        assert result.collision.kind in (
            CollisionKind.BARRIER,
            CollisionKind.SIDE,
        )

    def test_steer_delta_is_applied(self, quiet_world):
        result = quiet_world.tick(Control(steer=0.2), steer_delta=0.3)
        assert result.applied_steer == pytest.approx(0.5)

    def test_steer_delta_clamped_to_mechanical_limit(self, quiet_world):
        result = quiet_world.tick(Control(steer=0.8), steer_delta=0.8)
        assert result.applied_steer == 1.0

    def test_thrust_channel_untouched_by_attack(self, quiet_world):
        """Per the attack model, only steering is perturbable."""
        quiet_world.tick(Control(steer=0.0, thrust=0.5), steer_delta=1.0)
        assert quiet_world.ego.state.thrust_actuation == pytest.approx(
            0.5 * (1 - quiet_world.ego.config.thrust_retain)
        )


class TestProgressMetrics:
    def test_passed_npcs_starts_zero(self, world):
        assert world.passed_npcs == 0

    def test_nearest_npc(self, quiet_world):
        nearest = quiet_world.npcs[quiet_world.geometry().nearest.index]
        assert nearest.vehicle.name == "npc_0"

    def test_ego_frenet(self, quiet_world):
        s, d, yaw = quiet_world.geometry().ego
        assert s == pytest.approx(10.0)
        assert d == pytest.approx(quiet_world.road.lane_offset(1))


class TestNpcBehaviour:
    def test_npcs_hold_lane_and_speed(self, quiet_world):
        for _ in range(60):
            if quiet_world.done:
                break
            quiet_world.tick(Control(thrust=-0.2))
        for npc in quiet_world.npcs:
            _, d, _ = quiet_world.road.to_frenet(npc.vehicle.state.position)
            deviation = quiet_world.road.lateral_deviation(d, npc.driver.lane)
            assert abs(deviation) < 0.2
            assert npc.vehicle.state.speed == pytest.approx(
                quiet_world.config.npc_speed, abs=1.0
            )

    def test_lane_keeping_recovers_from_offset(self, road):
        from repro.sim.npc import LaneKeepingDriver
        from repro.sim.vehicle import Vehicle, VehicleState

        position, yaw = road.lane_center(2, 50.0)
        vehicle = Vehicle(
            "npc",
            state=VehicleState(
                x=position[0], y=position[1] + 1.0, yaw=yaw, speed=6.0
            ),
        )
        driver = LaneKeepingDriver(road, 2, 6.0)
        for _ in range(100):
            frenet = road.to_frenet(vehicle.state.position)
            vehicle.apply_control(driver.control(vehicle, frenet))
            vehicle.step(0.1)
        _, d, _ = road.to_frenet(vehicle.state.position)
        assert road.lateral_deviation(d, 2) == pytest.approx(0.0, abs=0.15)

    def test_invalid_lane_rejected(self, road):
        from repro.sim.npc import LaneKeepingDriver

        with pytest.raises(ValueError):
            LaneKeepingDriver(road, 99, 6.0)
