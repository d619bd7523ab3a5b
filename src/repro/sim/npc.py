"""NPC vehicle behaviour: lane keeping at a fixed reference speed.

NPCs in the paper's scenario travel at 6 m/s in their spawn lane and never
change lanes; the ego must weave between them. The controller is a simple
proportional law on speed plus a cross-track / heading feedback on steering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.road import Road
from repro.sim.vehicle import Control, Vehicle
from repro.utils.geometry import angle_diff, clamp


@dataclass(frozen=True)
class LaneKeepGains:
    """Feedback gains for the NPC lane-keeping controller."""

    cross_track: float = 0.22
    heading: float = 0.9
    speed: float = 0.5


class LaneKeepingDriver:
    """Keeps a vehicle centered in ``lane`` at ``target_speed``."""

    def __init__(
        self,
        road: Road,
        lane: int,
        target_speed: float,
        gains: LaneKeepGains | None = None,
    ) -> None:
        if not 0 <= lane < road.n_lanes:
            raise ValueError(f"lane {lane} outside road with {road.n_lanes} lanes")
        self.road = road
        self.lane = lane
        self.target_speed = float(target_speed)
        self.gains = gains or LaneKeepGains()

    def control(
        self, vehicle: Vehicle, frenet: tuple[float, float, float]
    ) -> Control:
        """Compute the steering/thrust variations for one control step.

        ``frenet`` is the vehicle's ``(s, d, lane_yaw)`` on the road, as
        :meth:`repro.sim.world.World.geometry` works it out.
        """
        state = vehicle.state
        _, d, lane_yaw = frenet
        cross_track = self.road.lateral_deviation(d, self.lane)
        heading_error = angle_diff(state.yaw, lane_yaw)
        steer = (
            self.gains.cross_track * cross_track
            + self.gains.heading * heading_error
        )
        thrust = self.gains.speed * (self.target_speed - state.speed)
        return Control(
            steer=clamp(steer, -1.0, 1.0),
            thrust=clamp(thrust, -1.0, 1.0),
        )
