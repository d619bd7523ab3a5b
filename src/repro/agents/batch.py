"""Lockstep twins of the driving agents for the batch-episode engine.

Each scalar :class:`~repro.agents.base.DrivingAgent` has a batched actor
exposing ``reset(batch)`` / ``act_batch(batch, reference) -> (steer[N],
thrust[N])``, where ``reference`` is the tick's plan from the default
:class:`~repro.agents.modular.behavior.BehaviorConfig` planner (the
lockstep runner's privileged planner). The actors replicate the scalar
control law per row — same planner state machine, same PID arithmetic,
same policy forward — so a batched episode tracks its scalar counterpart
to numerical tolerance (see :mod:`repro.sim.batch` for the determinism
contract).

Use :func:`as_batch_actor` to derive the twin from a configured scalar
agent; unsupported agents raise :class:`~repro.sim.batch.NoBatchTwin`
rather than silently degrading.
"""

from __future__ import annotations

import math

import numpy as np

from repro.agents.e2e.agent import EndToEndAgent
from repro.agents.e2e.observation import DrivingObservation
from repro.agents.modular.agent import ModularAgent, ModularAgentConfig
from repro.agents.modular.behavior import (
    BatchBehaviorPlanner,
    BatchPlan,
    BehaviorConfig,
)
from repro.agents.modular.pid import BatchPid
from repro.rl.pnn import ProgressivePolicy
from repro.rl.policy import SquashedGaussianPolicy
from repro.sim.batch import NoBatchTwin
from repro.sim.config import EPSILON_MECH
from repro.utils.geometry import clamp_array


class BatchModularActor:
    """Vectorized plan-then-track pipeline: one update covers N episodes.

    With the default :class:`BehaviorConfig` its planner would run the
    reference planner's state machine on the same state, so it tracks the
    reference plan and has no planner of its own (``planner`` is None).
    """

    name = "modular"

    def __init__(
        self,
        road,
        n: int,
        config: ModularAgentConfig | None = None,
        dt: float = 0.1,
    ) -> None:
        self.config = config or ModularAgentConfig()
        self.planner = (
            None
            if self.config.behavior == BehaviorConfig()
            else BatchBehaviorPlanner(road, self.config.behavior)
        )
        self._lateral = BatchPid(self.config.lateral_gains, dt, n)
        self._longitudinal = BatchPid(self.config.longitudinal_gains, dt, n)

    def reset(self, batch) -> None:
        if self.planner is not None:
            self.planner.reset(batch)
        self._lateral.reset()
        self._longitudinal.reset()

    def act_batch(
        self, batch, reference: BatchPlan
    ) -> tuple[np.ndarray, np.ndarray]:
        plan = (
            reference if self.planner is None else self.planner.update(batch)
        )
        ego_s = batch.geometry().ego[0]
        speed = batch.speed[:, 0]

        cfg = self.config
        lookahead = clamp_array(
            cfg.lookahead_gain * speed, cfg.lookahead_min, cfg.lookahead_max
        )
        target_s = ego_s + lookahead
        target_d = plan.reference_offset(target_s)
        target_xy, _ = batch.road.to_world_batch(target_s, target_d)
        dx = target_xy[:, 0] - batch.x[:, 0]
        dy = target_xy[:, 1] - batch.y[:, 0]
        bearing = np.arctan2(dy, dx) - batch.yaw[:, 0]
        bearing = (bearing + math.pi) % (2.0 * math.pi) - math.pi
        # Positive steer turns right; a target to the left needs negative.
        steer = self._lateral.step(-bearing)
        thrust = self._longitudinal.step(plan.target_speed - speed)
        return steer, thrust


class BatchPolicyActor:
    """Batched deterministic rollout of an end-to-end driving policy."""

    name = "end-to-end"

    def __init__(self, agent: EndToEndAgent, n: int) -> None:
        policy = agent.policy
        if not isinstance(policy, (SquashedGaussianPolicy, ProgressivePolicy)):
            raise NoBatchTwin(
                f"no batched rollout for a {type(policy).__name__} policy"
            )
        if not agent.deterministic:
            raise NoBatchTwin(
                "batched rollout supports deterministic driving policies only"
            )
        template = agent.observation
        self.policy = agent.policy
        self.observation = DrivingObservation(
            camera_config=template._stack.inner.config,
            frames=template._stack.k,
            reference_speed=template.reference_speed,
        )
        # A progressive column has no fused plan: it runs the forward its
        # scalar act() runs.
        self.plan = (
            self.policy.inference_plan(n)
            if isinstance(self.policy, SquashedGaussianPolicy)
            else None
        )

    def reset(self, batch) -> None:
        self.observation.reset()

    def act_batch(
        self, batch, reference: BatchPlan
    ) -> tuple[np.ndarray, np.ndarray]:
        """The policy's commands; it drives without the ``reference``."""
        obs = self.observation.observe_batch(batch)
        if self.plan is None:
            actions = np.tanh(self.policy.forward_np(obs)[0])
        else:
            actions = self.policy.act_batch(
                obs, deterministic=True, plan=self.plan
            )
        steer = clamp_array(actions[:, 0], -EPSILON_MECH, EPSILON_MECH)
        thrust = clamp_array(actions[:, 1], -EPSILON_MECH, EPSILON_MECH)
        return steer, thrust


def as_batch_actor(victim, batch):
    """The lockstep twin of a scalar driving agent, sized for ``batch``.

    A budget-informed :class:`~repro.defense.pnn_defense.SimplexSwitchedAgent`
    routes every tick of an episode to the same column, so its twin drives
    that column. Raises :class:`~repro.sim.batch.NoBatchTwin` for agents
    with no batched path (custom agents, stochastic policies, the
    detector-switched agent, whose column can change mid-episode).
    """
    # Imported here: the defense package builds on the agents package.
    from repro.defense.pnn_defense import SimplexSwitchedAgent

    if isinstance(victim, ModularAgent):
        return BatchModularActor(
            batch.road, batch.n, config=victim.config, dt=victim._lateral.dt
        )
    if isinstance(victim, SimplexSwitchedAgent):
        victim = victim.active
    if isinstance(victim, EndToEndAgent):
        return BatchPolicyActor(victim, batch.n)
    raise NoBatchTwin(
        f"no batched twin for agent type {type(victim).__name__}"
    )
