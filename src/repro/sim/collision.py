"""Collision detection and classification.

The adversarial reward distinguishes the attacker's desired outcome (a
*side* collision with an NPC vehicle) from undesired outcomes (front or
rear-end collisions, or hitting the roadside barrier). Classification uses
the bearing of the other actor in the struck vehicle's body frame.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.sim.road import Road
from repro.sim.vehicle import Vehicle
from repro.utils.geometry import OrientedBox, normalize_angle, reach


class CollisionKind(enum.Enum):
    """How a collision presented itself relative to the ego vehicle."""

    SIDE = "side"
    FRONT = "front"
    REAR = "rear"
    BARRIER = "barrier"


@dataclass(frozen=True)
class Collision:
    """A collision event reported by the world.

    Attributes:
        kind: geometric classification from the ego's perspective.
        ego: name of the vehicle whose perspective ``kind`` uses.
        other: name of the struck actor (``"barrier"`` for road edges).
        step: world control step at which contact was first detected.
        time: simulation time of first contact, seconds.
    """

    kind: CollisionKind
    ego: str
    other: str
    step: int
    time: float

    @property
    def is_side(self) -> bool:
        return self.kind is CollisionKind.SIDE


# Bearing sectors (radians from the ego's forward axis) for classification.
_FRONT_SECTOR = math.radians(38.0)
_REAR_SECTOR = math.radians(142.0)


def classify_vehicle_collision(ego: Vehicle, other: Vehicle) -> CollisionKind:
    """Classify a vehicle-vehicle contact from ``ego``'s perspective.

    The other vehicle's center is expressed in ego body coordinates. A
    bearing within +/-38 deg of the nose is a front collision, beyond
    +/-142 deg a rear-end, and anything in between is a side collision
    (the attacker's target outcome).
    """
    dx = other.state.x - ego.state.x
    dy = other.state.y - ego.state.y
    bearing = abs(normalize_angle(math.atan2(dy, dx) - ego.state.yaw))
    if bearing <= _FRONT_SECTOR:
        return CollisionKind.FRONT
    if bearing >= _REAR_SECTOR:
        return CollisionKind.REAR
    return CollisionKind.SIDE


def check_vehicle_pair(
    ego: Vehicle, other: Vehicle, ego_box: OrientedBox | None = None
) -> CollisionKind | None:
    """Overlap test + classification; ``None`` when not in contact.

    ``ego_box`` is ``ego.footprint()``, if the caller has built it. An
    ``other`` whose centre lies beyond the contact :func:`reach` cannot
    touch the ego: it is ruled out before its footprint is built, and only
    a pair within reach runs the separating-axis test.
    """
    box = ego.footprint() if ego_box is None else ego_box
    dx = other.state.x - box.center[0]
    dy = other.state.y - box.center[1]
    limit = reach(
        (box.length, box.width), (other.config.length, other.config.width)
    )
    if dx * dx + dy * dy > limit * limit:
        return None
    if not box.intersects(other.footprint()):
        return None
    return classify_vehicle_collision(ego, other)


def check_barrier(
    vehicle: Vehicle, road: Road, box: OrientedBox | None = None
) -> bool:
    """Whether any corner of ``vehicle`` crosses the roadside barriers.

    ``box`` is ``vehicle.footprint()``, if the caller has built it.
    """
    corners = (vehicle.footprint() if box is None else box).corners()
    for corner in corners:
        _, d, _ = road.to_frenet(corner)
        if road.off_road(d):
            return True
    return False
