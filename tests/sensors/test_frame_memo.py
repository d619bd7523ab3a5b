"""One rasterisation per world state and camera config.

Every camera observer of a world — the end-to-end victim, the camera
attacker, the Simplex agent's idle column and the next ``AttackEnv``
observation — reads the frame the first of them rendered, until an
actor's pose changes. The counts here are of ``render``/``render_batch``
calls, the layer the perfbench table wraps.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.agents.e2e import EndToEndAgent
from repro.agents.e2e.observation import POLICY_CAMERA, DrivingObservation
from repro.core import (
    CameraAttackObservation,
    InjectionChannel,
    InjectionChannelConfig,
    LearnedAttacker,
)
from repro.core.attack_env import AttackEnv
from repro.defense import SimplexSwitchedAgent
from repro.eval import run_episode_batch
from repro.rl.pnn import ProgressivePolicy
from repro.rl.policy import SquashedGaussianPolicy
from repro.sensors import camera as camera_module
from repro.sensors.camera import BevCamera
from repro.sim import ScenarioConfig, make_batch_world
from repro.sim.batch import BatchWorld

SCENARIO = ScenarioConfig(max_steps=40)
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


def camera_attacker() -> LearnedAttacker:
    sensor = CameraAttackObservation()
    policy = SquashedGaussianPolicy(
        sensor.observation_dim, 1, (16,), np.random.default_rng(3)
    )
    return LearnedAttacker(
        policy,
        sensor,
        channel=InjectionChannel(InjectionChannelConfig(budget=0.5)),
        name="camera",
    )


def fresh_frame(world) -> np.ndarray:
    """A policy-camera frame rasterised now, bypassing the memo."""
    grid = BevCamera(POLICY_CAMERA).render(world)
    return grid.astype(np.float64).ravel() / camera_module._MAX_CLASS


class TestOneRenderPerState:
    def test_lockstep_victim_and_attacker_share_frames(self):
        with counting(BevCamera, "render_batch") as renders, counting(
            BatchWorld, "tick"
        ) as ticks:
            shared = run_episode_batch(
                e2e_victim, camera_attacker(), SEEDS, scenario=SCENARIO
            )
        assert ticks.call_count > 0
        assert renders.call_count == ticks.call_count
        # The same run with every lookup missing renders twice per tick.
        with mock.patch.object(
            BatchWorld, "pose_key", lambda batch: object()
        ), counting(BevCamera, "render_batch") as renders:
            unshared = run_episode_batch(
                e2e_victim, camera_attacker(), SEEDS, scenario=SCENARIO
            )
        assert renders.call_count == 2 * ticks.call_count
        assert shared == unshared

    def test_attack_env_step_renders_once(self):
        env = AttackEnv(
            e2e_victim,
            CameraAttackObservation(),
            budget=0.5,
            scenario=SCENARIO,
            rng=np.random.default_rng(0),
        )
        with counting(BevCamera, "render") as renders:
            env.reset()
            steps, done = 0, False
            while not done and steps < 10:
                _, _, done, _ = env.step(np.array([0.3]))
                steps += 1
        # reset's observation, then one per step: the victim acts on the
        # state the previous observation rendered.
        assert renders.call_count == 1 + steps

    def test_simplex_columns_share_frames(self, quiet_world):
        base = e2e_victim()
        column = ProgressivePolicy(base.policy, np.random.default_rng(2))
        agent = SimplexSwitchedAgent(e2e_victim(), column, sigma=0.2)
        agent.reset(quiet_world)
        with counting(BevCamera, "render") as renders:
            for _ in range(5):
                quiet_world.tick(agent.act(quiet_world))
        assert renders.call_count == 5


class TestRenderedAgainAfterAMove:
    """A changed pose misses the memo, also without a tick."""

    def observe_after(self, world, move) -> np.ndarray:
        camera = BevCamera(POLICY_CAMERA)
        before = camera.observe(world)
        move(world)
        with counting(BevCamera, "render") as renders:
            after = camera.observe(world)
        assert renders.call_count == 1
        np.testing.assert_array_equal(after, fresh_frame(world))
        assert not np.array_equal(after, before)
        return after

    def test_teleport(self, quiet_world):
        def move(world):
            npc = world.npcs[0].vehicle.state
            world.npcs[0].vehicle.teleport(npc.x + 8.0, npc.y, npc.yaw)

        self.observe_after(quiet_world, move)

    def test_npcs_cleared(self, quiet_world):
        frame = self.observe_after(quiet_world, lambda w: w.npcs.clear())
        vehicle = int(camera_module.SemanticClass.VEHICLE)
        assert not np.any(frame * camera_module._MAX_CLASS == vehicle)

    def test_yaw_write(self, quiet_world):
        def move(world):
            world.ego.state.yaw = np.pi / 2.0

        self.observe_after(quiet_world, move)

    def test_in_place_batch_write(self):
        batch = make_batch_world(SCENARIO, seeds=[0, 1])
        camera = BevCamera(POLICY_CAMERA)
        before = camera.observe_batch(batch)
        batch.x[:, 1:] -= 8.0
        with counting(BevCamera, "render_batch") as renders:
            after = camera.observe_batch(batch)
        assert renders.call_count == 1
        grids = BevCamera(POLICY_CAMERA).render_batch(batch)
        np.testing.assert_array_equal(
            after,
            grids.astype(np.float64).reshape(2, -1) / camera_module._MAX_CLASS,
        )
        assert not np.array_equal(after, before)


class TestSharedFrames:
    def test_scalar_frames_are_shared_and_read_only(self, quiet_world):
        frame = BevCamera(POLICY_CAMERA).observe(quiet_world)
        assert BevCamera(POLICY_CAMERA).observe(quiet_world) is frame
        assert BevCamera().observe(quiet_world) is not frame
        assert not frame.flags.writeable
        with pytest.raises(ValueError):
            frame[0] = 1.0

    def test_batch_frames_are_shared_and_read_only(self):
        batch = make_batch_world(SCENARIO, seeds=[0, 1])
        frames = BevCamera(POLICY_CAMERA).observe_batch(batch)
        assert BevCamera(POLICY_CAMERA).observe_batch(batch) is frames
        assert not frames.flags.writeable
        with pytest.raises(ValueError):
            frames[0, 0] = 1.0
