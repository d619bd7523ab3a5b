"""Smoke tests for the SAC-based refinement paths (tiny step budgets).

These exercise the paper-literal SAC stages — driver refinement, attacker
refinement, and SAC adversarial fine-tuning — which the shipped artifacts
only use when ``--sac`` is passed, so that the code paths stay healthy.
"""

import numpy as np
import pytest

from repro.agents.e2e import EndToEndAgent
from repro.agents.e2e.training import (
    DriverTrainConfig,
    refine_driver_sac,
    train_driver,
)
from repro.agents.modular import ModularAgent
from repro.core import CameraAttackObservation
from repro.core.attack_env import AttackEnv
from repro.defense import FinetuneConfig, adversarial_finetune_sac
from repro.rl.bc import BcConfig
from repro.rl.checkpoint import run_sac_loop
from repro.rl.policy import SquashedGaussianPolicy
from repro.rl.sac import Sac, SacConfig


def tiny_sac(**overrides):
    defaults = dict(
        hidden=(16, 16),
        batch_size=16,
        buffer_capacity=2_000,
        update_every=4,
    )
    defaults.update(overrides)
    return SacConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_driver():
    config = DriverTrainConfig(
        bc_episodes=2, bc=BcConfig(epochs=3), sac_steps=0, eval_episodes=1
    )
    agent, _ = train_driver(config)
    return agent


class TestDriverSacRefinement:
    def test_refine_driver_sac_runs(self, tiny_driver):
        config = DriverTrainConfig(sac_steps=60, eval_episodes=1)
        config.sac = tiny_sac(hidden=tiny_driver.policy.hidden)
        policy, metrics = refine_driver_sac(
            tiny_driver.policy, config, np.random.default_rng(0)
        )
        assert policy is tiny_driver.policy  # refined in place
        assert "mean_return" in metrics

    def test_train_driver_with_sac_selection(self):
        config = DriverTrainConfig(
            bc_episodes=2,
            bc=BcConfig(epochs=2),
            sac_steps=40,
            eval_episodes=1,
        )
        config.sac = tiny_sac(hidden=(128, 128))
        agent, metrics = train_driver(config)
        assert isinstance(agent, EndToEndAgent)


class TestAttackerSacRefinement:
    def test_sac_refine_runs_in_attack_env(self):
        env = AttackEnv(
            lambda w: ModularAgent(w.road),
            CameraAttackObservation(),
            budget=1.0,
            rng=np.random.default_rng(1),
        )
        policy = SquashedGaussianPolicy(
            env.observation_dim, 1, (16, 16), np.random.default_rng(2)
        )
        rng = np.random.default_rng(3)
        sac = Sac(env.observation_dim, env.action_dim, tiny_sac(), rng=rng,
                  actor=policy)
        run_sac_loop(sac, env, 50, rng, "sac-attack")
        # Policy still produces valid actions afterwards.
        action = policy.act(np.zeros(env.observation_dim))
        assert abs(float(action[0])) <= 1.0


class TestSacAdversarialFinetune:
    def test_adversarial_finetune_sac_runs(self, tiny_driver):
        from repro.core import (
            InjectionChannel,
            InjectionChannelConfig,
            LearnedAttacker,
        )

        sensor = CameraAttackObservation()
        attack_policy = SquashedGaussianPolicy(
            sensor.observation_dim, 1, (8,), np.random.default_rng(4)
        )
        attacker = LearnedAttacker(
            attack_policy,
            sensor,
            channel=InjectionChannel(InjectionChannelConfig(budget=1.0)),
        )
        sac_config = DriverTrainConfig(sac_steps=40, eval_episodes=1)
        sac_config.sac = tiny_sac(hidden=tiny_driver.policy.hidden)
        tuned = adversarial_finetune_sac(
            tiny_driver,
            attacker,
            FinetuneConfig(rho=0.5, episodes=1),
            sac_config=sac_config,
        )
        assert isinstance(tuned, EndToEndAgent)
        assert "sac" in tuned.name
