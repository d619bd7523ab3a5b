"""Tests for the adversarial MDP and the attacker-training pipelines."""

import numpy as np
import pytest

from repro.agents.modular import ModularAgent
from repro.core import (
    AttackEnv,
    CameraAttackObservation,
    ImuAttackObservation,
    InjectionChannel,
    InjectionChannelConfig,
    LearnedAttacker,
    OracleAttacker,
)
from repro.core.training import (
    AttackTrainConfig,
    collect_demonstrations,
    evaluate_attacker,
    train_camera_attacker,
    train_imu_attacker,
)
from repro.rl.bc import BcConfig
from repro.rl.policy import SquashedGaussianPolicy


def modular_victim(world):
    return ModularAgent(world.road)


@pytest.fixture()
def env():
    return AttackEnv(
        modular_victim,
        CameraAttackObservation(),
        budget=1.0,
        rng=np.random.default_rng(0),
    )


class TestAttackEnv:
    def test_reset_returns_observation(self, env):
        obs = env.reset()
        assert obs.shape == (env.observation_dim,)

    def test_step_before_reset_raises(self, env):
        with pytest.raises(RuntimeError):
            env.step(np.zeros(1))

    def test_step_contract(self, env):
        env.reset()
        obs, reward, done, info = env.step(np.array([0.0]))
        assert obs.shape == (env.observation_dim,)
        assert np.isfinite(reward)
        assert not done
        assert info["delta"] == 0.0
        assert info["collision"] is None

    def test_budget_respected(self):
        env = AttackEnv(
            modular_victim,
            CameraAttackObservation(),
            budget=0.3,
            rng=np.random.default_rng(0),
        )
        env.reset()
        _, _, _, info = env.step(np.array([1.0]))
        assert info["delta"] == pytest.approx(0.3)

    def test_episode_terminates(self, env):
        env.reset()
        done = False
        steps = 0
        while not done:
            _, _, done, info = env.step(np.array([1.0]))
            steps += 1
            assert steps <= 200
        # Full-budget constant attack forces some collision well before
        # the horizon.
        assert info["collision"] is not None

    def test_lurking_full_episode_truncates(self, env):
        env.reset()
        done = False
        while not done:
            _, _, done, info = env.step(np.array([0.0]))
        assert info["collision"] is None
        assert info["truncated"]

    def test_teacher_term_present(self):
        sensor = CameraAttackObservation()
        teacher_policy = SquashedGaussianPolicy(
            sensor.observation_dim, 1, (8,), np.random.default_rng(1)
        )
        teacher = LearnedAttacker(
            teacher_policy,
            CameraAttackObservation(),
            channel=InjectionChannel(InjectionChannelConfig(budget=1.0)),
        )
        env = AttackEnv(
            modular_victim,
            ImuAttackObservation(),
            budget=1.0,
            rng=np.random.default_rng(2),
            teacher=teacher,
        )
        env.reset()
        _, _, _, info = env.step(np.array([0.9]))
        assert info["teacher_delta"] is not None
        assert info["breakdown"].teacher <= 0.0


class TestDatasets:
    def test_oracle_demonstrations_shapes(self):
        obs, actions = collect_demonstrations(
            OracleAttacker(budget=1.0), CameraAttackObservation(),
            modular_victim, n_episodes=1, rng=np.random.default_rng(0),
        )
        assert obs.ndim == 2
        assert actions.shape == (len(obs), 1)
        assert np.all(np.abs(actions) <= 1.0)

    def test_oracle_demonstrations_contain_attacks(self):
        obs, actions = collect_demonstrations(
            OracleAttacker(budget=1.0), CameraAttackObservation(),
            modular_victim, n_episodes=2, rng=np.random.default_rng(0),
        )
        assert np.any(actions != 0.0)
        assert np.any(actions == 0.0)  # lurk phase present

    def test_teacher_traces_shapes(self):
        sensor = CameraAttackObservation()
        policy = SquashedGaussianPolicy(
            sensor.observation_dim, 1, (8,), np.random.default_rng(3)
        )
        teacher = LearnedAttacker(policy, sensor)
        obs, actions = collect_demonstrations(
            teacher, ImuAttackObservation(), modular_victim, n_episodes=1,
            rng=np.random.default_rng(0),
        )
        assert obs.shape[1] == ImuAttackObservation().observation_dim
        assert actions.shape == (len(obs), 1)


@pytest.fixture(scope="module")
def tiny_config():
    return AttackTrainConfig(
        bc_episodes=2,
        bc=BcConfig(epochs=2),
        sac_steps=0,
        bc_restarts=1,
        eval_episodes=2,
    )


class TestTrainingPipelines:
    def test_train_camera_attacker_smoke(self, tiny_config):
        attacker, metrics = train_camera_attacker(modular_victim, tiny_config)
        assert attacker.name == "camera"
        assert "success_rate" in metrics
        assert attacker.budget == 1.0

    def test_train_imu_attacker_smoke(self, tiny_config):
        sensor = CameraAttackObservation()
        teacher_policy = SquashedGaussianPolicy(
            sensor.observation_dim, 1, (8,), np.random.default_rng(4)
        )
        teacher = LearnedAttacker(teacher_policy, sensor)
        attacker, metrics = train_imu_attacker(
            teacher, modular_victim, tiny_config
        )
        assert isinstance(attacker.sensor, ImuAttackObservation)
        assert "mean_adversarial_return" in metrics

    def test_evaluate_attacker_metrics(self, tiny_config):
        sensor = CameraAttackObservation()
        policy = SquashedGaussianPolicy(
            sensor.observation_dim, 1, (8,), np.random.default_rng(5)
        )
        attacker = LearnedAttacker(policy, sensor)
        metrics = evaluate_attacker(attacker, modular_victim, n_episodes=2)
        assert set(metrics) == {
            "success_rate",
            "mean_adversarial_return",
            "mean_nominal_return",
        }
        assert 0.0 <= metrics["success_rate"] <= 1.0
