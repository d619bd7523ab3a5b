"""Tests for the attackers: null, oracle baseline, and learned policy."""

import numpy as np
import pytest

from repro.agents.modular import ModularAgent
from repro.core import (
    CameraAttackObservation,
    ImuAttackObservation,
    InjectionChannel,
    InjectionChannelConfig,
    LearnedAttacker,
    NullAttacker,
    OracleAttacker,
)
from repro.core.attackers import (
    BatchLearnedAttacker,
    BatchNullAttacker,
    BatchOracleAttacker,
    as_batch_attacker,
)
from repro.eval import run_episode
from repro.rl.policy import SquashedGaussianPolicy
from repro.sensors.camera import BevCameraConfig
from repro.sim import Control, CollisionKind, ScenarioConfig, make_world
from repro.sim.batch import NoBatchTwin


class TestNullAttacker:
    def test_always_zero(self, quiet_world):
        attacker = NullAttacker()
        attacker.reset(quiet_world)
        assert attacker.delta(quiet_world, Control()) == 0.0
        assert attacker.budget == 0.0


class TestOracleAttacker:
    def test_lurks_when_far(self, quiet_world):
        attacker = OracleAttacker(budget=1.0)
        attacker.reset(quiet_world)
        assert attacker.normalized_action(quiet_world) == 0.0

    def test_attacks_when_beside(self, quiet_world):
        npc = quiet_world.npcs[0].vehicle
        # Ego one lane to the right of the NPC: steer left = negative.
        quiet_world.ego.teleport(
            npc.state.x, npc.state.y - 3.5, yaw=0.0, speed=16.0
        )
        attacker = OracleAttacker(budget=1.0)
        attacker.reset(quiet_world)
        assert attacker.normalized_action(quiet_world) == -1.0

    def test_attack_direction_flips_with_side(self, quiet_world):
        npc = quiet_world.npcs[0].vehicle
        quiet_world.ego.teleport(
            npc.state.x, npc.state.y + 3.5, yaw=0.0, speed=16.0
        )
        attacker = OracleAttacker(budget=1.0)
        attacker.reset(quiet_world)
        assert attacker.normalized_action(quiet_world) == 1.0

    def test_respects_max_range(self, quiet_world):
        npc = quiet_world.npcs[0].vehicle
        quiet_world.ego.teleport(
            npc.state.x - 100.0, npc.state.y - 3.5, yaw=0.0, speed=16.0
        )
        attacker = OracleAttacker(budget=1.0, max_range=25.0)
        attacker.reset(quiet_world)
        assert attacker.normalized_action(quiet_world) == 0.0

    def test_delta_scaled_by_budget(self, quiet_world):
        npc = quiet_world.npcs[0].vehicle
        quiet_world.ego.teleport(
            npc.state.x, npc.state.y - 3.5, yaw=0.0, speed=16.0
        )
        attacker = OracleAttacker(budget=0.5)
        attacker.reset(quiet_world)
        assert attacker.delta(quiet_world, Control()) == pytest.approx(-0.5)

    def test_causes_side_collision_at_full_budget(self):
        """The oracle defeats the modular victim at epsilon = 1 (the
        pilot result behind Figs. 4-5)."""
        successes = 0
        for seed in range(5):
            world = make_world(rng=np.random.default_rng(seed + 1))
            victim = ModularAgent(world.road)
            victim.reset(world)
            attacker = OracleAttacker(budget=1.0)
            attacker.reset(world)
            result = None
            while not world.done:
                control = victim.act(world)
                delta = attacker.delta(world, control)
                result = world.tick(control, steer_delta=delta)
            if (
                result.collision is not None
                and result.collision.kind is CollisionKind.SIDE
            ):
                successes += 1
        assert successes >= 3


class TestLearnedAttacker:
    def make(self, budget=1.0, sensor=None):
        sensor = sensor or CameraAttackObservation()
        policy = SquashedGaussianPolicy(
            sensor.observation_dim, 1, (16, 16), np.random.default_rng(0)
        )
        return LearnedAttacker(
            policy,
            sensor,
            channel=InjectionChannel(InjectionChannelConfig(budget=budget)),
        )

    def test_delta_within_budget(self, quiet_world):
        attacker = self.make(budget=0.4)
        attacker.reset(quiet_world)
        for _ in range(5):
            delta = attacker.delta(quiet_world, Control())
            assert abs(delta) <= 0.4
            quiet_world.tick(Control(), steer_delta=delta)

    def test_with_budget_shares_policy(self, quiet_world):
        attacker = self.make(budget=1.0)
        scaled = attacker.with_budget(0.25)
        assert scaled.policy is attacker.policy
        assert scaled.budget == 0.25
        assert attacker.budget == 1.0

    def test_reset_clears_channel(self):
        """Nothing of one episode carries into the next: the channel keeps
        no books, and a reused attacker's second episode measures as a
        fresh attacker's does."""
        scenario = ScenarioConfig(max_steps=40)
        attacker = self.make(budget=0.5)
        # Loud enough to inject above the activity threshold.
        attacker.policy.mean_head.weight.data *= 300.0
        fresh = LearnedAttacker(
            attacker.policy, CameraAttackObservation(),
            channel=InjectionChannel(InjectionChannelConfig(budget=0.5)),
        )
        first, again, anew = (
            run_episode(
                lambda world: ModularAgent(world.road), injector, seed=3,
                scenario=scenario,
            )
            for injector in (attacker, attacker, fresh)
        )
        assert first.mean_effort > 0.0
        assert again == first == anew

    def test_save_load_roundtrip_camera(self, tmp_path, quiet_world):
        attacker = self.make()
        attacker.reset(quiet_world)
        path = attacker.save(tmp_path / "atk")
        # hidden sizes in the checkpoint differ from the default; load
        # reconstructs from metadata.
        loaded = LearnedAttacker.load(path, budget=0.5)
        assert loaded.budget == 0.5
        assert isinstance(loaded.sensor, CameraAttackObservation)
        loaded.reset(quiet_world)
        attacker.reset(quiet_world)
        a = loaded.normalized_action(quiet_world)
        b = attacker.normalized_action(quiet_world)
        assert a == pytest.approx(b)

    def test_save_load_roundtrip_imu(self, tmp_path, quiet_world):
        attacker = self.make(sensor=ImuAttackObservation())
        path = attacker.save(tmp_path / "imu_atk")
        loaded = LearnedAttacker.load(path)
        assert isinstance(loaded.sensor, ImuAttackObservation)


class TestAttackObservations:
    def test_camera_dims_match_policy_camera(self):
        sensor = CameraAttackObservation()
        assert sensor.observation_dim == 3 * 15 * 10

    def test_imu_dims(self):
        sensor = ImuAttackObservation()
        assert sensor.observation_dim == 128

    def test_imu_scaling(self, quiet_world):
        sensor = ImuAttackObservation(accel_scale=1.0, yaw_rate_scale=1.0)
        scaled = ImuAttackObservation(accel_scale=10.0, yaw_rate_scale=10.0)
        quiet_world.tick(Control(thrust=1.0, steer=0.5))
        raw = sensor.observe(quiet_world)
        small = scaled.observe(quiet_world)
        np.testing.assert_allclose(small * 10.0, raw, atol=1e-12)


def _learned(policy=None, budget=0.5, deterministic=True, sensor=None):
    sensor = sensor or CameraAttackObservation()
    policy = policy or _POLICY
    return LearnedAttacker(
        policy,
        sensor,
        channel=InjectionChannel(InjectionChannelConfig(budget=budget)),
        name="camera",
        deterministic=deterministic,
    )


_POLICY = SquashedGaussianPolicy(
    CameraAttackObservation().observation_dim, 1, (8,),
    np.random.default_rng(0),
)


class TestBatchTwinRows:
    """A lockstep twin drives every row alike, so the rows' attackers
    must agree; lists from one factory do."""

    @pytest.mark.parametrize(
        "rows, twin",
        [
            ([None, NullAttacker(), None], BatchNullAttacker),
            ([OracleAttacker(0.5) for _ in range(3)], BatchOracleAttacker),
            ([_learned() for _ in range(3)], BatchLearnedAttacker),
            ([_learned().with_budget(0.25) for _ in range(2)],
             BatchLearnedAttacker),
        ],
        ids=["nominal", "oracle", "learned", "learned-with-budget"],
    )
    def test_one_factory_shares_a_twin(self, rows, twin):
        assert isinstance(as_batch_attacker(rows), twin)

    @pytest.mark.parametrize(
        "rows",
        [
            [OracleAttacker(0.25), OracleAttacker(1.0)],
            [None, OracleAttacker(1.0)],
            [OracleAttacker(1.0), None],
            [OracleAttacker(1.0, beta=0.5), OracleAttacker(1.0)],
            [OracleAttacker(1.0), OracleAttacker(1.0, max_range=10.0)],
            [_learned(), _learned(budget=1.0)],
            [_learned(), _learned(policy=SquashedGaussianPolicy(
                CameraAttackObservation().observation_dim, 1, (8,),
                np.random.default_rng(0),
            ))],
            [_learned(), _learned(deterministic=False)],
            [_learned(), _learned(sensor=CameraAttackObservation(frames=2))],
            [_learned(), _learned(sensor=CameraAttackObservation(
                camera_config=BevCameraConfig(rows=16, cols=10)
            ))],
            [_learned(), OracleAttacker(0.5)],
        ],
        ids=[
            "oracle-budget", "none-first", "none-last", "oracle-beta",
            "oracle-range", "channel", "policy", "deterministic", "frames",
            "camera", "type",
        ],
    )
    def test_differing_rows_have_no_twin(self, rows):
        with pytest.raises(NoBatchTwin, match="differ"):
            as_batch_attacker(rows)
