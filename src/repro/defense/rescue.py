"""Rescue-augmented expert for defense-label generation.

The plain modular expert's reaction to an action-space attack is PID
counter-steering — exactly the response the oracle-derived attacker was
built to beat. The rescue expert adds the paper's own observation that
"the AD agent can avoid a collision by slowing down or braking"
(Section IV-A): when the vehicle's deviation from its reference path
exceeds a threshold (a control-anomaly signature no nominal maneuver
produces), it brakes hard while keeping the PID counter-steer. Defended
policies cloned from these labels learn to shed speed the moment they are
hijacked, which both opens the collision geometry and denies the attacker
the side-collision posture it is rewarded for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents.base import DrivingAgent
from repro.agents.modular.agent import ModularAgent, ModularAgentConfig
from repro.sim.road import Road
from repro.sim.vehicle import Control
from repro.sim.world import World


@dataclass(frozen=True)
class RescueConfig:
    """When and how hard the rescue reflex engages."""

    #: Deviation from the reference path that triggers the reflex, meters.
    deviation_threshold: float = 0.6
    #: Thrust command while the reflex is active (-1 = full brake).
    brake_command: float = -1.0
    #: Gain multiplying the PID steer command while the reflex is active.
    counter_steer_gain: float = 1.5


class RescueExpert(DrivingAgent):
    """Modular expert with an attack-rescue reflex layered on top."""

    name = "rescue-expert"

    def __init__(
        self,
        road: Road,
        config: RescueConfig | None = None,
        agent_config: ModularAgentConfig | None = None,
    ) -> None:
        self.inner = ModularAgent(road, agent_config)
        self.config = config or RescueConfig()

    def reset(self, world: World) -> None:
        self.inner.reset(world)

    def deviation(self, world: World) -> float:
        """Current absolute deviation from the reference path, meters."""
        plan = self.inner.current_plan
        if plan is None:
            return 0.0
        ego_s, ego_d, _ = world.geometry().ego
        return abs(ego_d - plan.reference_offset(ego_s))

    def act(self, world: World) -> Control:
        control = self.inner.act(world)
        if self.deviation(world) > self.config.deviation_threshold:
            boosted = control.steer * self.config.counter_steer_gain
            return Control(
                steer=boosted, thrust=self.config.brake_command
            ).clipped()
        return control
