"""Gym-like training environment for the end-to-end driving policy.

Wraps the scenario world, the observation encoder, the privileged planner
(for reward shaping) and the shaped reward into the classic
``reset() -> obs`` / ``step(action) -> (obs, reward, done, info)`` loop.

An optional *steer injector* hook applies an action-space perturbation to
each tick, which is how adversarial training (Section VI) mixes attacks
into driving episodes without the environment knowing attack internals.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.agents.e2e.observation import DrivingObservation
from repro.agents.e2e.reward import DrivingReward, DrivingRewardConfig
from repro.agents.modular.behavior import BehaviorPlanner
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import make_world
from repro.sim.vehicle import Control
from repro.sim.world import World


class SteerInjector(Protocol):
    """Per-tick action-space perturbation source (an attacker).

    The runner measures the attack effort from the deltas it returns, so
    an injector keeps no books of its own.
    """

    def reset(self, world: World) -> None:
        """Prepare for a new episode."""

    def delta(self, world: World, control: Control) -> float:
        """The additive steering perturbation for this tick."""


class DrivingEnv:
    """Episodic driving task: overtake six NPCs within 180 steps."""

    action_dim = 2  # (steer variation, thrust variation)

    def __init__(
        self,
        scenario: ScenarioConfig | None = None,
        reward_config: DrivingRewardConfig | None = None,
        observation: DrivingObservation | None = None,
        rng: np.random.Generator | None = None,
        injector: SteerInjector | None = None,
    ) -> None:
        self.scenario = scenario or ScenarioConfig()
        self.observation = observation or DrivingObservation(
            reference_speed=self.scenario.ego_speed
        )
        self.reward = DrivingReward(reward_config)
        self.rng = rng or np.random.default_rng(0)
        self.injector = injector
        self.world: World | None = None
        self.planner: BehaviorPlanner | None = None

    @property
    def observation_dim(self) -> int:
        return self.observation.observation_dim

    def reset(self) -> np.ndarray:
        """Start a fresh episode and return the first observation."""
        self.world = make_world(self.scenario, rng=self.rng)
        self.planner = BehaviorPlanner(self.world.road)
        self.planner.reset(self.world)
        self.observation.reset()
        if self.injector is not None:
            self.injector.reset(self.world)
        return self.observation.observe(self.world)

    def step(
        self, action: np.ndarray
    ) -> tuple[np.ndarray, float, bool, dict]:
        """Apply the policy action (already in ``[-1, 1]^2``) for one tick."""
        if self.world is None:
            raise RuntimeError("call reset() before step()")
        world = self.world
        control = Control(
            steer=float(action[0]), thrust=float(action[1])
        ).clipped()
        delta = 0.0
        if self.injector is not None:
            delta = float(self.injector.delta(world, control))
        plan = self.planner.update(world)
        result = world.tick(control, steer_delta=delta)
        breakdown = self.reward.step(world, plan, result.collision)
        obs = self.observation.observe(world)
        # Time-limit truncation is not a true terminal for bootstrapping.
        terminal = result.collision is not None
        info = {
            "collision": result.collision,
            "passed_npcs": world.passed_npcs,
            "step": result.step,
            "breakdown": breakdown,
            "steer_delta": delta,
            "applied_steer": result.applied_steer,
            "truncated": result.done and result.collision is None,
        }
        return obs, breakdown.total, result.done, info

    @property
    def done(self) -> bool:
        return self.world is None or self.world.done
