"""The adversarial MDP (Fig. 2): training environment for attack policies.

The attacker is the RL agent; the fixed victim driving agent and the world
form the environment's (stationary) dynamics. Each step the attacker emits
a normalized perturbation in ``[-1, 1]``; the channel scales it to the
budget, the victim acts, the world ticks, and the adversarial reward of
Section IV-D scores the outcome.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.agents.base import DrivingAgent
from repro.core.attackers import LearnedAttacker
from repro.core.injection import InjectionChannel, InjectionChannelConfig
from repro.core.rewards import AdversarialReward, AdversarialRewardConfig
from repro.sensors.base import Sensor
from repro.sim.collision import CollisionKind
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import make_world
from repro.sim.world import World

#: Builds a fresh victim for a world (called once per episode).
VictimFactory = Callable[[World], DrivingAgent]


class AttackEnv:
    """Gym-like adversarial environment around a fixed victim agent."""

    action_dim = 1

    def __init__(
        self,
        victim_factory: VictimFactory,
        sensor: Sensor,
        budget: float = 1.0,
        reward_config: AdversarialRewardConfig | None = None,
        scenario: ScenarioConfig | None = None,
        rng: np.random.Generator | None = None,
        teacher: LearnedAttacker | None = None,
    ) -> None:
        """Args:
            victim_factory: builds the (fixed) victim per episode.
            sensor: the adversarial state space (camera or IMU encoder).
            budget: the attack budget epsilon used during training.
            teacher: optional camera attacker whose action supplies the
                ``p_se`` learning-from-teacher term (Section IV-E).
        """
        self.victim_factory = victim_factory
        self.sensor = sensor
        self.channel = InjectionChannel(InjectionChannelConfig(budget=budget))
        self.reward = AdversarialReward(reward_config)
        self.scenario = scenario or ScenarioConfig()
        self.rng = rng or np.random.default_rng(0)
        self.teacher = teacher
        self.world: World | None = None
        self.victim: DrivingAgent | None = None

    @property
    def observation_dim(self) -> int:
        return self.sensor.observation_dim

    def reset(self) -> np.ndarray:
        self.world = make_world(self.scenario, rng=self.rng)
        self.victim = self.victim_factory(self.world)
        self.victim.reset(self.world)
        self.sensor.reset()
        if self.teacher is not None:
            self.teacher.reset(self.world)
        return self.sensor.observe(self.world)

    def step(self, action: np.ndarray) -> tuple[np.ndarray, float, bool, dict]:
        """One adversarial step: victim acts, perturbation is injected."""
        if self.world is None:
            raise RuntimeError("call reset() before step()")
        world = self.world
        teacher_delta = None
        if self.teacher is not None:
            teacher_delta = self.teacher.delta(world, None)
        control = self.victim.act(world)
        delta = self.channel.inject(float(np.atleast_1d(action)[0]))
        result = world.tick(control, steer_delta=delta)
        breakdown = self.reward.step(
            world, delta, result.collision, teacher_delta=teacher_delta
        )
        obs = self.sensor.observe(world)
        info = {
            "collision": result.collision,
            "side_collision": (
                result.collision is not None
                and result.collision.kind is CollisionKind.SIDE
            ),
            "breakdown": breakdown,
            "delta": delta,
            "teacher_delta": teacher_delta,
            "step": result.step,
            "truncated": result.done and result.collision is None,
        }
        return obs, breakdown.total, result.done, info
