"""Scenario builder for the paper's lane-changing / overtaking task.

Constructs the world of Fig. 1(a): the ego on a freeway behind six slower
NPC vehicles that it must overtake within 180 control steps. Spawn
positions, lanes and speeds are jittered per episode from a seeded stream
so evaluation distributions are reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.sim.config import ScenarioConfig
from repro.sim.npc import LaneKeepingDriver
from repro.sim.road import Road, default_road
from repro.sim.vehicle import Vehicle, VehicleState
from repro.sim.world import NpcActor, World
from repro.utils.geometry import clamp


def make_world(
    config: ScenarioConfig | None = None,
    rng: np.random.Generator | None = None,
    road: Road | None = None,
) -> World:
    """Build a fresh episode world.

    Args:
        config: scenario parameters; defaults to the paper's setup.
        rng: stream for spawn jitter. ``None`` disables all randomization,
            which is useful for exactly repeatable unit tests.
        road: override the road (defaults to the shared straight freeway
            of ``config.road``, :func:`~repro.sim.road.default_road`).

    Returns:
        A ready-to-tick :class:`World` with the ego at rest-speed 16 m/s and
        six NPCs ahead at 6 m/s.
    """
    config = config or ScenarioConfig()
    road = road or default_road(config.road)

    ego_start_s = 10.0
    ego_position, ego_yaw = road.lane_center(config.ego_lane, ego_start_s)
    ego = Vehicle(
        "ego",
        config=config.vehicle,
        state=VehicleState(
            x=float(ego_position[0]),
            y=float(ego_position[1]),
            yaw=ego_yaw,
            speed=config.ego_speed,
        ),
    )

    npcs: list[NpcActor] = []
    for index in range(config.n_npcs):
        lane = config.npc_lanes[index % len(config.npc_lanes)]
        s = ego_start_s + config.first_npc_gap + index * config.npc_spacing
        speed = config.npc_speed
        if rng is not None:
            s += float(rng.uniform(-config.spawn_jitter, config.spawn_jitter))
            speed += float(rng.uniform(-config.speed_jitter, config.speed_jitter))
        s = clamp(s, 0.0, road.length - 10.0)
        position, yaw = road.lane_center(lane, s)
        vehicle = Vehicle(
            f"npc_{index}",
            config=config.vehicle,
            state=VehicleState(
                x=float(position[0]),
                y=float(position[1]),
                yaw=yaw,
                speed=max(speed, 0.0),
            ),
        )
        driver = LaneKeepingDriver(road, lane, max(speed, 0.0))
        npcs.append(NpcActor(vehicle=vehicle, driver=driver))

    return World(road=road, config=config, ego=ego, npcs=npcs)
