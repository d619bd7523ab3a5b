"""The simulated world: actors, ticking, collision registry.

A :class:`World` owns the road, the ego vehicle, and the NPC fleet with
their lane-keeping drivers. Each control tick applies the ego command
(optionally perturbed on the steering channel by an action-space attack),
advances every vehicle, and reports collision events.

Episode termination mirrors the paper's protocol: a collision, the 180-step
horizon, or the ego running out of road.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.sim.collision import (
    Collision,
    CollisionKind,
    check_barrier,
    check_vehicle_pair,
)
from repro.sim.config import ScenarioConfig
from repro.sim.npc import LaneKeepingDriver
from repro.sim.road import Road
from repro.sim.vehicle import Control, Vehicle
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import span
from repro.utils.geometry import unit


@dataclass(frozen=True)
class TickResult:
    """Outcome of one control step."""

    step: int
    time: float
    collision: Collision | None
    done: bool
    #: The steering variation actually applied to the ego after the
    #: attack perturbation and mechanical clamp (Eq. (1) input).
    applied_steer: float

    @property
    def collided(self) -> bool:
        return self.collision is not None


@dataclass
class NpcActor:
    """An NPC vehicle bundled with its driver."""

    vehicle: Vehicle
    driver: LaneKeepingDriver


@dataclass(frozen=True)
class Nearest:
    """The NPC closest to the ego by Euclidean distance."""

    #: Index of the NPC in :attr:`World.npcs`.
    index: int
    distance: float
    #: Unit vector from the ego to the NPC (zeros when they coincide).
    direction: np.ndarray
    #: Unit vector along the NPC's velocity (zeros when it stands still).
    heading: np.ndarray
    #: ``direction . heading``, the paper's ``omega`` (Section IV-D);
    #: None when the NPC stands still.
    omega: float | None


@dataclass(frozen=True)
class WorldGeometry:
    """Where every actor of one world state sits relative to the road and
    to the ego, worked out once by :meth:`World.geometry`."""

    #: The :meth:`World.pose_key` of the state it describes.
    key: bytes
    #: Ego ``(s, d, tangent_yaw)`` on the road reference line.
    ego: tuple[float, float, float]
    #: Each NPC's ``(s, d, lane_yaw)``, in :attr:`World.npcs` order.
    npcs: tuple[tuple[float, float, float], ...]
    #: None when the world has no NPCs.
    nearest: Nearest | None

    @classmethod
    def of(cls, world: "World", key: bytes) -> "WorldGeometry":
        road = world.road
        ego_position = world.ego.state.position
        positions = [npc.vehicle.state.position for npc in world.npcs]
        nearest = None
        if positions:
            offsets = [position - ego_position for position in positions]
            distances = [float(np.linalg.norm(o)) for o in offsets]
            index = int(np.argmin(distances))
            # :func:`unit` of the offset, reusing the norm it would take.
            offset, distance = offsets[index], distances[index]
            direction = (
                np.zeros_like(offset)
                if distance < 1e-12
                else offset / distance
            )
            heading = unit(world.npcs[index].vehicle.state.velocity)
            direction.flags.writeable = heading.flags.writeable = False
            nearest = Nearest(
                index=index,
                distance=distance,
                direction=direction,
                heading=heading,
                omega=(
                    float(direction @ heading) if heading.any() else None
                ),
            )
        return cls(
            key=key,
            ego=road.to_frenet(ego_position),
            npcs=tuple(road.to_frenet(position) for position in positions),
            nearest=nearest,
        )


class World:
    """Owns all simulation state and advances it tick by tick."""

    def __init__(
        self,
        road: Road,
        config: ScenarioConfig,
        ego: Vehicle,
        npcs: list[NpcActor],
    ) -> None:
        self.road = road
        self.config = config
        self.ego = ego
        self.npcs = npcs
        self.step_count = 0
        self.time = 0.0
        self.collisions: list[Collision] = []
        self._done = False
        self._passed: set[str] = set()
        #: Sensor frames of the current actor poses, keyed by sensor
        #: config (see :meth:`repro.sensors.camera.BevCamera.observe`).
        self.frame_memo: dict = {}
        self._geometry: WorldGeometry | None = None

    # -- ticking ---------------------------------------------------------------

    def tick(self, ego_control: Control, steer_delta: float = 0.0) -> TickResult:
        """Advance the world one control step.

        Args:
            ego_control: the victim agent's command (pre-attack).
            steer_delta: additive action-space perturbation applied to the
                steering *variation* before the mechanical clamp, per
                Section IV-C (``nu' = nu + delta``).

        Returns:
            The per-step result. After ``done`` becomes true further ticks
            raise ``RuntimeError``.
        """
        if self._done:
            raise RuntimeError("world already done; create a new episode")
        with span("world.tick"):
            perturbed = Control(
                steer=ego_control.steer + steer_delta,
                thrust=ego_control.thrust,
            ).clipped()
            self.ego.apply_control(perturbed)
            for npc, frenet in zip(self.npcs, self.geometry().npcs):
                npc.vehicle.apply_control(
                    npc.driver.control(npc.vehicle, frenet)
                )

            dt, substeps = self.config.dt, self.config.substeps
            self.ego.step(dt, substeps)
            for npc in self.npcs:
                npc.vehicle.step(dt, substeps)

            self.step_count += 1
            self.time += dt
            collision = self._detect_collision()
            if collision is not None:
                self.collisions.append(collision)
                get_registry().counter(
                    "collisions_total", kind=collision.kind.name
                ).inc()
            geometry = self.geometry()
            self._update_passed(geometry)
            out_of_road = (
                geometry.ego[0] >= self.road.length - self.ego.config.length
            )
            self._done = (
                collision is not None
                or self.step_count >= self.config.max_steps
                or out_of_road
            )
        return TickResult(
            step=self.step_count,
            time=self.time,
            collision=collision,
            done=self._done,
            applied_steer=perturbed.steer,
        )

    @property
    def done(self) -> bool:
        return self._done

    # -- collision handling ------------------------------------------------------

    def _detect_collision(self) -> Collision | None:
        box = self.ego.footprint()
        for npc in self.npcs:
            kind = check_vehicle_pair(self.ego, npc.vehicle, box)
            if kind is not None:
                return Collision(
                    kind=kind,
                    ego=self.ego.name,
                    other=npc.vehicle.name,
                    step=self.step_count,
                    time=self.time,
                )
        if check_barrier(self.ego, self.road, box):
            return Collision(
                kind=CollisionKind.BARRIER,
                ego=self.ego.name,
                other="barrier",
                step=self.step_count,
                time=self.time,
            )
        return None

    # -- progress metrics ----------------------------------------------------------

    def _update_passed(self, geometry: WorldGeometry) -> None:
        ego_s = geometry.ego[0]
        margin = self.ego.config.length
        for npc, (npc_s, _, _) in zip(self.npcs, geometry.npcs):
            if ego_s > npc_s + margin:
                self._passed.add(npc.vehicle.name)

    @property
    def passed_npcs(self) -> int:
        """How many NPC vehicles the ego has fully overtaken so far."""
        return len(self._passed)

    # -- geometry of the current state --------------------------------------

    def pose_key(self) -> bytes:
        """The ``x, y, yaw`` and ``speed`` of every actor, ego first, as
        bytes: equal keys mean an unchanged state, whatever changed it (a
        tick, a teleport or a write to a pose field)."""
        ego = self.ego.state
        values = [ego.x, ego.y, ego.yaw, ego.speed]
        for npc in self.npcs:
            state = npc.vehicle.state
            values += (state.x, state.y, state.yaw, state.speed)
        return struct.pack(f"{len(values)}d", *values)

    def geometry(self) -> WorldGeometry:
        """The current state's :class:`WorldGeometry`, worked out on the
        first call after the state changed and shared until it changes
        again. Read it at once; do not keep it across a tick."""
        key = self.pose_key()
        if self._geometry is None or self._geometry.key != key:
            self._geometry = WorldGeometry.of(self, key)
        return self._geometry
