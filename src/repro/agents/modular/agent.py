"""The modular driving agent: planner hierarchy + PID feedback control.

This is the CARLA-Autopilot substitute of Section III-B, tuned to the
paper's aggressive freeway mode: reference speed 16 m/s, decisive lane
changes, overtaking permitted in all lanes. Steering traces a lookahead
point on the local planner's reference path; both actuation channels
command per-step *variations* bounded by the mechanical limit, which the
vehicle blends per Eq. (1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.agents.base import DrivingAgent
from repro.agents.modular.behavior import BehaviorConfig, BehaviorPlanner, Plan
from repro.agents.modular.pid import (
    LATERAL_GAINS,
    LONGITUDINAL_GAINS,
    Pid,
    PidGains,
)
from repro.sim.road import Road
from repro.sim.vehicle import Control
from repro.sim.world import World
from repro.telemetry.spans import timed
from repro.utils.geometry import clamp, normalize_angle


@dataclass(frozen=True)
class ModularAgentConfig:
    """Controller tuning for the modular pipeline."""

    behavior: BehaviorConfig = BehaviorConfig()
    lateral_gains: PidGains = LATERAL_GAINS
    longitudinal_gains: PidGains = LONGITUDINAL_GAINS
    #: Lookahead distance = clip(gain * speed, min, max), meters.
    lookahead_gain: float = 0.45
    lookahead_min: float = 4.0
    lookahead_max: float = 10.0


class ModularAgent(DrivingAgent):
    """Plan-then-track driving agent with local PID feedback."""

    name = "modular"

    def __init__(
        self,
        road: Road,
        config: ModularAgentConfig | None = None,
        dt: float = 0.1,
    ) -> None:
        self.config = config or ModularAgentConfig()
        self.planner = BehaviorPlanner(road, self.config.behavior)
        self._lateral = Pid(self.config.lateral_gains, dt)
        self._longitudinal = Pid(self.config.longitudinal_gains, dt)
        self._plan: Plan | None = None

    def reset(self, world: World) -> None:
        self.planner.reset(world)
        self._lateral.reset()
        self._longitudinal.reset()
        self._plan = None

    @property
    def current_plan(self) -> Plan | None:
        """The last plan computed by :meth:`act` (for metrics/inspection)."""
        return self._plan

    @timed("agent.modular.act")
    def act(self, world: World) -> Control:
        plan = self.planner.update(world)
        self._plan = plan
        state = world.ego.state
        ego_s = world.geometry().ego[0]

        # Lateral control: bearing to a lookahead point on the reference path.
        cfg = self.config
        lookahead = clamp(
            cfg.lookahead_gain * state.speed,
            cfg.lookahead_min,
            cfg.lookahead_max,
        )
        target_s = ego_s + lookahead
        target_d = plan.reference_offset(target_s)
        target_xy, _ = world.road.to_world(target_s, target_d)
        dx = float(target_xy[0] - state.x)
        dy = float(target_xy[1] - state.y)
        bearing = normalize_angle(math.atan2(dy, dx) - state.yaw)
        # Positive steer turns right (clockwise); a target to the left
        # (positive bearing) therefore needs negative steer.
        steer = self._lateral.step(-bearing)

        thrust = self._longitudinal.step(plan.target_speed - state.speed)
        return Control(steer=steer, thrust=thrust)
