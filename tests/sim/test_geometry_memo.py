"""Geometry once per world state.

``World.geometry()`` and ``BatchWorld.geometry()`` work out the ego's and
every NPC's Frenet coordinates and the nearest NPC once per state, keyed
by ``pose_key`` (the key the camera frame memo uses too), and every
consumer reads them. A state changed any way (a tick, a teleport, a
write to a pose field or to a batch array) is worked out afresh; the
counts here are of ``Road.to_frenet`` and ``BatchWorld.ego_frenet``
calls, the latter being the layer the perfbench table wraps.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.agents.e2e import EndToEndAgent
from repro.agents.e2e.observation import POLICY_CAMERA, DrivingObservation
from repro.agents.modular import ModularAgent
from repro.core import (
    CameraAttackObservation,
    ImuAttackObservation,
    InjectionChannel,
    InjectionChannelConfig,
    LearnedAttacker,
    OracleAttacker,
)
from repro.agents.modular.behavior import BatchPlan, Plan
from repro.eval import run_episode, run_episode_batch
from repro.rl.pnn import ProgressivePolicy
from repro.rl.policy import PolicyInferencePlan, SquashedGaussianPolicy
from repro.sim import ScenarioConfig, make_batch_world
from repro.sim.batch import BatchGeometry, BatchWorld
from repro.sim.road import Road
from repro.sim.world import World
from repro.utils.geometry import unit

SCENARIO = ScenarioConfig(max_steps=60)
SEEDS = [2, 5, 11, 17]


@contextlib.contextmanager
def counting(owner, name):
    """Count calls of ``owner.name`` while still running it."""
    with mock.patch.object(
        owner, name, autospec=True, side_effect=getattr(owner, name)
    ) as patched:
        yield patched


def e2e_victim(world=None) -> EndToEndAgent:
    encoder = DrivingObservation()
    policy = SquashedGaussianPolicy(
        encoder.observation_dim, 2, (16,), np.random.default_rng(1)
    )
    return EndToEndAgent(policy, observation=encoder)


def learned_attacker(sensor) -> LearnedAttacker:
    policy = SquashedGaussianPolicy(
        sensor.observation_dim, 1, (16,), np.random.default_rng(3)
    )
    return LearnedAttacker(
        policy,
        sensor,
        channel=InjectionChannel(InjectionChannelConfig(budget=0.5)),
        name=type(sensor).__name__,
    )


def expected_scalar(world: World):
    """The world's geometry worked out from scratch, the way each
    consumer used to: ``(ego, npcs, nearest index, distance, omega)``."""
    road, ego = world.road, world.ego.state
    npcs = [road.to_frenet(n.vehicle.state.position) for n in world.npcs]
    distances = [
        float(np.linalg.norm(n.vehicle.state.position - ego.position))
        for n in world.npcs
    ]
    index = int(np.argmin(distances))
    npc = world.npcs[index].vehicle.state
    heading = unit(npc.velocity)
    omega = (
        float(unit(npc.position - ego.position) @ heading)
        if np.any(heading)
        else None
    )
    return road.to_frenet(ego.position), npcs, index, distances[index], omega


def assert_fresh(world: World) -> None:
    geometry = world.geometry()
    ego, npcs, index, distance, omega = expected_scalar(world)
    assert geometry.key == world.pose_key()
    assert geometry.ego == ego
    assert list(geometry.npcs) == npcs
    assert geometry.nearest.index == index
    assert geometry.nearest.distance == distance
    assert geometry.nearest.omega == omega


class TestScalarStaleness:
    """A changed state misses the memo, also without a tick."""

    def change(self, world: World, move) -> None:
        before = world.geometry()
        move(world)
        assert_fresh(world)
        assert world.geometry() is not before

    def test_teleport(self, quiet_world):
        def move(world):
            npc = world.npcs[0].vehicle.state
            world.npcs[0].vehicle.teleport(
                world.ego.state.x + 3.0, npc.y, npc.yaw, npc.speed
            )

        self.change(quiet_world, move)
        assert quiet_world.geometry().nearest.index == 0

    def test_pose_field_write(self, quiet_world):
        def move(world):
            world.ego.state.y += 1.5
            world.ego.state.yaw = 0.3

        self.change(quiet_world, move)

    def test_speed_write(self, quiet_world):
        def move(world):
            for npc in world.npcs:
                npc.vehicle.state.speed = 0.0

        self.change(quiet_world, move)
        assert quiet_world.geometry().nearest.omega is None

    def test_tick(self, quiet_world):
        self.change(
            quiet_world, lambda world: world.tick(world.ego.pending_control)
        )

    def test_npcs_cleared(self, quiet_world):
        quiet_world.geometry()
        quiet_world.npcs.clear()
        geometry = quiet_world.geometry()
        assert geometry.npcs == () and geometry.nearest is None

    def test_shared_and_read_only(self, quiet_world):
        with counting(Road, "to_frenet") as conversions:
            geometry = quiet_world.geometry()
            assert quiet_world.geometry() is geometry
        # One conversion per actor, however many reads.
        assert conversions.call_count == 1 + len(quiet_world.npcs)
        with pytest.raises(ValueError):
            geometry.nearest.direction[0] = 1.0


def expected_motion(batch: BatchWorld):
    """Ego and NPC positions and velocity vectors from the ``[N, 1 + M]``
    state arrays, row by row: ``(ego_position, ego_velocity,
    npc_positions, npc_velocities)``, ``[N, 2]`` and ``[N, M, 2]``."""
    x, y, yaw, speed = batch.x, batch.y, batch.yaw, batch.speed
    ego_heading = np.stack([np.cos(yaw[:, 0]), np.sin(yaw[:, 0])], axis=1)
    npc_heading = np.stack([np.cos(yaw[:, 1:]), np.sin(yaw[:, 1:])], axis=2)
    return (
        np.stack([x[:, 0], y[:, 0]], axis=1),
        speed[:, 0, None] * ego_heading,
        np.stack([x[:, 1:], y[:, 1:]], axis=2),
        speed[:, 1:, None] * npc_heading,
    )


def expected_batch(batch: BatchWorld):
    """Per-episode geometry of ``batch`` from scratch, as consumers used
    to work it out: ``(ego_s, ego_d, npc_s, npc_d, index, distance)``,
    the NPC arrays ``[M, N]`` as the geometry holds them."""
    ego_position, _, npc_positions, _ = expected_motion(batch)
    ego_s, ego_d, _ = batch.road.frenet_batch(ego_position)
    pts = npc_positions.reshape(-1, 2)
    npc_s, npc_d, _ = batch.road.frenet_batch(pts)
    diff = npc_positions - ego_position[:, None, :]
    dist = np.sqrt(np.einsum("nmj,nmj->nm", diff, diff))
    shape = (batch.n, batch.m)
    return (
        ego_s, ego_d, npc_s.reshape(shape).T, npc_d.reshape(shape).T,
        np.argmin(dist, axis=1), dist.min(axis=1),
    )


def assert_batch_fresh(batch: BatchWorld) -> None:
    geometry = batch.geometry()
    ego_s, ego_d, npc_s, npc_d, index, distance = expected_batch(batch)
    np.testing.assert_array_equal(geometry.ego[0], ego_s)
    np.testing.assert_array_equal(geometry.ego[1], ego_d)
    np.testing.assert_array_equal(geometry.npcs[0], npc_s)
    np.testing.assert_array_equal(geometry.npcs[1], npc_d)
    np.testing.assert_array_equal(geometry.nearest.index, index)
    np.testing.assert_array_equal(geometry.nearest.distance, distance)
    motion = (
        geometry.ego_position, geometry.ego_velocity,
        geometry.npc_positions, geometry.npc_velocities,
    )
    # The geometry holds x and y planes: [2, N] and [2, M, N].
    for held, fresh in zip(motion, expected_motion(batch)):
        fresh = np.transpose(fresh)
        assert held.tobytes() == fresh.tobytes() and held.shape == fresh.shape


class TestBatchStaleness:
    def change(self, move) -> BatchWorld:
        batch = make_batch_world(SCENARIO, seeds=[0, 1])
        before = batch.geometry()
        move(batch)
        assert_batch_fresh(batch)
        assert batch.geometry() is not before
        return batch

    def test_in_place_position_write(self):
        def move(batch):
            batch.x[:, 1:] -= 8.0
            batch.x[0, 0] += 1.0

        self.change(move)

    def test_in_place_speed_write(self):
        def move(batch):
            batch.speed[:, 1:] = 0.0

        batch = self.change(move)
        assert not batch.geometry().nearest.moving.any()
        np.testing.assert_array_equal(batch.geometry().nearest.omega, 0.0)
        np.testing.assert_array_equal(batch.geometry().npc_velocities, 0.0)

    def test_in_place_heading_write(self):
        def move(batch):
            batch.yaw[:, 0] += 0.25
            batch.yaw[1, 1:] -= 0.5

        self.change(move)

    def test_tick(self):
        self.change(lambda batch: batch.tick(np.zeros(2), np.ones(2)))

    def test_shared_and_read_only(self):
        batch = make_batch_world(SCENARIO, seeds=[0, 1])
        with counting(BatchWorld, "ego_frenet") as conversions:
            geometry = batch.geometry()
            assert batch.geometry() is geometry
        assert conversions.call_count == 1
        with pytest.raises(ValueError):
            geometry.ego[0][0] = 1.0
        with pytest.raises(ValueError):
            geometry.nearest.omega[0] = 1.0
        for array in (
            geometry.ego_position, geometry.ego_velocity,
            geometry.npc_positions, geometry.npc_velocities,
        ):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_consumers_read_the_held_arrays(self):
        """The rewards and the oracle read positions and velocities from
        the geometry, whose positions are the pose planes themselves; the
        world has no property that builds them afresh, and the consumers
        do not rebuild the geometry."""
        from repro.agents.e2e.reward import DrivingReward
        from repro.agents.modular.behavior import BatchBehaviorPlanner
        from repro.core.attackers import BatchOracleAttacker
        from repro.core.rewards import AdversarialReward

        batch = make_batch_world(SCENARIO, seeds=[0, 1])
        planner = BatchBehaviorPlanner(batch.road)
        planner.reset(batch)
        plan = planner.update(batch)
        oracle = BatchOracleAttacker(batch.n)
        delta = oracle.deltas(batch)
        result = batch.tick(np.zeros(2), np.ones(2), steer_delta=delta)
        geometry = batch.geometry()
        for name in (
            "ego_position", "ego_velocity", "npc_positions", "npc_velocities",
        ):
            assert not hasattr(batch, name)
        assert np.shares_memory(geometry.ego_position, batch.pose)
        assert np.shares_memory(geometry.npc_positions, batch.pose)
        with mock.patch.object(
            BatchGeometry, "of", side_effect=AssertionError("rebuilt")
        ) as rebuilt:
            DrivingReward().step_batch(batch, plan, result.collided)
            AdversarialReward().step_batch(
                batch, delta, result.collision_kind
            )
            oracle.normalized_actions(batch)
        assert rebuilt.call_count == 0


class TestOncePerState:
    @pytest.mark.parametrize(
        "victim, attacker",
        [
            pytest.param(
                e2e_victim,
                lambda: learned_attacker(CameraAttackObservation()),
                id="e2e-camera",
            ),
            pytest.param(
                lambda world: ModularAgent(world.road),
                lambda: OracleAttacker(budget=1.0),
                id="modular-oracle",
            ),
        ],
    )
    def test_lockstep_batch_works_out_the_ego_once_per_state(
        self, victim, attacker
    ):
        with counting(BatchWorld, "ego_frenet") as conversions, counting(
            BatchWorld, "tick"
        ) as ticks:
            run_episode_batch(victim, attacker(), SEEDS, scenario=SCENARIO)
        assert ticks.call_count > 0
        # The spawn state, then one state per tick.
        assert conversions.call_count == ticks.call_count + 1

    def test_driving_observation_builds_the_pose_key_once(self, quiet_world):
        """The camera's frame memo takes the geometry's key, so one
        observation of a fresh state builds the pose key once, for both
        the frame lookup and the ego's lateral offset."""
        encoder = DrivingObservation()
        fresh = (
            lambda world: None,
            lambda world: world.tick(world.ego.pending_control),
            lambda world: setattr(world.ego.state, "y", 1.0),
        )
        for move in fresh:
            move(quiet_world)
            with counting(World, "pose_key") as keys:
                encoder.observe(quiet_world)
            assert keys.call_count == 1
        # The same state again: one key build, and the held frame.
        frame = quiet_world.frame_memo[POLICY_CAMERA][1]
        with counting(World, "pose_key") as keys:
            encoder.observe(quiet_world)
        assert keys.call_count == 1
        assert quiet_world.frame_memo[POLICY_CAMERA][1] is frame

    def test_scalar_episode_converts_each_actor_once_per_tick(self):
        with counting(Road, "to_frenet") as conversions, counting(
            World, "tick"
        ) as ticks:
            run_episode(
                e2e_victim,
                learned_attacker(ImuAttackObservation()),
                seed=3,
                scenario=SCENARIO,
            )
        # Per tick: the ego, each of the six NPCs and up to four barrier
        # corners (the test stops at the first corner off the road); the
        # spawn state adds one per actor.
        actors = 1 + SCENARIO.n_npcs
        assert ticks.call_count > 10
        per_tick = (conversions.call_count - actors) / ticks.call_count
        assert actors <= per_tick <= actors + 4 == 11

    def test_scalar_tick_evaluates_the_reference_path_twice(self):
        """At the reward's lookahead and at the ego, for its precision
        term, which is the deviation the runner books too."""
        with counting(Plan, "reference_offset") as references, counting(
            World, "tick"
        ) as ticks:
            run_episode(e2e_victim, None, seed=3, scenario=SCENARIO)
        assert ticks.call_count > 10
        assert references.call_count == 2 * ticks.call_count


def modular_victim(world):
    return ModularAgent(world.road)


class TestLockstepStepWork:
    """Count gates on a lockstep step: work it does once, or not at all,
    stays so."""

    def test_modular_step_evaluates_the_reference_path_twice(self):
        """Once at the victim's lookahead before the tick, and once after
        it for the deviation and the reward's lookahead together."""
        with counting(BatchPlan, "reference_offset") as references, counting(
            BatchWorld, "tick"
        ) as ticks:
            run_episode_batch(
                modular_victim, OracleAttacker(budget=1.0), SEEDS,
                scenario=SCENARIO,
            )
        assert ticks.call_count > 10
        assert references.call_count == 2 * ticks.call_count

    def test_deterministic_inference_skips_the_log_std_head(self):
        with counting(
            SquashedGaussianPolicy, "act_batch"
        ) as actions, counting(
            SquashedGaussianPolicy, "forward_np"
        ) as forwards, counting(PolicyInferencePlan, "log_std") as heads:
            run_episode_batch(
                e2e_victim, learned_attacker(CameraAttackObservation()),
                SEEDS, scenario=SCENARIO,
            )
        assert actions.call_count > 10
        assert forwards.call_count == heads.call_count == 0

    def test_progressive_inference_skips_the_log_std_head(self):
        """A PNN victim's lockstep twin drives on the mean head alone,
        to the same episodes."""
        policy = ProgressivePolicy(
            SquashedGaussianPolicy(
                DrivingObservation().observation_dim, 2, (16,),
                np.random.default_rng(1),
            )
        )

        def run():
            return run_episode_batch(
                lambda world: EndToEndAgent(
                    policy, observation=DrivingObservation()
                ),
                OracleAttacker(budget=1.0), SEEDS, scenario=SCENARIO,
            )

        expected = run()
        with counting(BatchWorld, "tick") as ticks, mock.patch.object(
            policy, "log_std_head", None
        ):
            headless = run()
        assert ticks.call_count > 10
        assert [
            (r.steps, r.nominal_return, r.adversarial_return)
            for r in headless
        ] == [
            (r.steps, r.nominal_return, r.adversarial_return)
            for r in expected
        ]

    @pytest.mark.parametrize(
        "victim, attacker, per_tick",
        [
            pytest.param(
                e2e_victim,
                lambda: learned_attacker(CameraAttackObservation()),
                9,
                id="e2e-camera",
            ),
            pytest.param(
                modular_victim,
                lambda: learned_attacker(CameraAttackObservation()),
                9,
                id="modular-camera",
            ),
            pytest.param(
                modular_victim, lambda: OracleAttacker(budget=1.0), 8,
                id="modular-oracle",
            ),
        ],
    )
    def test_pose_key_builds_per_step(self, victim, attacker, per_tick):
        """Each ``geometry()`` call builds the pose key: the planner, each
        agent, the camera, the tick (before and after), both rewards and
        the runner read it (the e2e observation once, for its frame's key
        and the ego's offset), and nothing else does."""
        with counting(BatchWorld, "pose_key") as keys, counting(
            BatchWorld, "tick"
        ) as ticks:
            run_episode_batch(victim, attacker(), SEEDS, scenario=SCENARIO)
        assert ticks.call_count > 10
        # The planner's reset reads the spawn state once more.
        assert keys.call_count <= per_tick * ticks.call_count + 1
