"""The simulated world: actors, ticking, collision registry.

A :class:`World` owns the road, the ego vehicle, and the NPC fleet with
their lane-keeping drivers. Each control tick applies the ego command
(optionally perturbed on the steering channel by an action-space attack),
advances every vehicle, and reports collision events.

Episode termination mirrors the paper's protocol: a collision, the 180-step
horizon, or the ego running out of road.
"""

from __future__ import annotations

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
            for npc in self.npcs:
                npc.vehicle.apply_control(npc.driver.control(npc.vehicle))

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
            self._update_passed()
            ego_s, _, _ = self.road.to_frenet(self.ego.state.position)
            out_of_road = ego_s >= self.road.length - self.ego.config.length
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
        for npc in self.npcs:
            kind = check_vehicle_pair(self.ego, npc.vehicle)
            if kind is not None:
                return Collision(
                    kind=kind,
                    ego=self.ego.name,
                    other=npc.vehicle.name,
                    step=self.step_count,
                    time=self.time,
                )
        if check_barrier(self.ego, self.road):
            return Collision(
                kind=CollisionKind.BARRIER,
                ego=self.ego.name,
                other="barrier",
                step=self.step_count,
                time=self.time,
            )
        return None

    # -- progress metrics ----------------------------------------------------------

    def _update_passed(self) -> None:
        ego_s, _, _ = self.road.to_frenet(self.ego.state.position)
        margin = self.ego.config.length
        for npc in self.npcs:
            npc_s, _, _ = self.road.to_frenet(npc.vehicle.state.position)
            if ego_s > npc_s + margin:
                self._passed.add(npc.vehicle.name)

    @property
    def passed_npcs(self) -> int:
        """How many NPC vehicles the ego has fully overtaken so far."""
        return len(self._passed)

    def ego_frenet(self) -> tuple[float, float, float]:
        """Ego ``(s, d, tangent_yaw)`` on the road reference line."""
        return self.road.to_frenet(self.ego.state.position)

    def nearest_npc(self) -> NpcActor | None:
        """The NPC closest to the ego by Euclidean distance (None if empty)."""
        if not self.npcs:
            return None
        ego_pos = self.ego.state.position
        distances = [
            float(np.linalg.norm(npc.vehicle.state.position - ego_pos))
            for npc in self.npcs
        ]
        return self.npcs[int(np.argmin(distances))]
