"""Structure-of-arrays batch simulation: N episodes ticking in lockstep.

The scalar :class:`~repro.sim.world.World` advances one episode per call
with per-vehicle Python objects; profiling shows a full bench session is
dominated by that per-episode Python overhead, not by compute. This module
re-expresses the same physics over ``[N, ...]`` numpy arrays so one
``tick`` advances every episode of a batch at once:

* all actor state (ego + NPCs) lives in ``[N, 1 + M]`` arrays (column 0 is
  the ego, columns ``1..M`` the NPCs in spawn order);
* the kinematic bicycle model, Eq. (1) actuation smoothing, the
  lane-keeping NPC drivers, and the vehicle-pair/barrier collision checks
  are all evaluated as whole-batch array expressions (the vehicle-pair
  test only for pairs within :func:`~repro.utils.geometry.reach`);
* finished episodes are *frozen* via a per-episode ``done`` mask — their
  rows stop updating while the batch continues, so every episode sees
  exactly the trajectory it would have seen running alone.

Determinism contract: the batch engine evaluates the same formulas as the
scalar world in the same order, but through numpy's SIMD kernels
(``np.cos`` over an array) instead of ``math.cos`` per scalar. Those
kernels may differ from libm in the last ulp, so batched trajectories are
*deterministic for a fixed batch* and match the scalar reference to within
a tight documented tolerance rather than bit-for-bit (see
``tests/eval/test_batch_equivalence.py`` for the measured envelope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.collision import (
    _FRONT_SECTOR,
    _REAR_SECTOR,
    Collision,
    CollisionKind,
)
from repro.sim.config import EPSILON_MECH, ScenarioConfig
from repro.sim.npc import LaneKeepGains
from repro.sim.road import Road, default_road
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import span
from repro.utils.geometry import clamp_array, reach, unit_rows

#: Integer collision codes used by the SoA bookkeeping arrays.
KIND_NONE = 0
KIND_SIDE = 1
KIND_FRONT = 2
KIND_REAR = 3
KIND_BARRIER = 4

_KIND_TO_ENUM = {
    KIND_SIDE: CollisionKind.SIDE,
    KIND_FRONT: CollisionKind.FRONT,
    KIND_REAR: CollisionKind.REAR,
    KIND_BARRIER: CollisionKind.BARRIER,
}

_TWO_PI = 2.0 * math.pi
#: Angle of each separating axis from its box's yaw: the ego's heading
#: and its normal, then the NPC's.
_AXIS_OFFSETS = np.array([0.0, math.pi / 2.0, 0.0, math.pi / 2.0])


class NoBatchTwin(TypeError):
    """An agent or attacker has no lockstep twin: run it on the scalar engine.

    Raised only by the twin lookups, before any tick, so an engine choice
    can catch it without hiding errors raised while episodes run.
    """


def _normalize_angles(
    angles: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized :func:`repro.utils.geometry.normalize_angle`, into
    ``out`` when given."""
    wrapped = np.add(angles, math.pi, out=out)
    np.remainder(wrapped, _TWO_PI, out=wrapped)
    return np.subtract(wrapped, math.pi, out=wrapped)


@dataclass(frozen=True)
class BatchTickResult:
    """Per-episode outcome arrays of one lockstep control step.

    Rows of episodes that were already ``done`` before the call are frozen:
    their ``step``/``time`` do not advance and ``collision_kind`` is
    :data:`KIND_NONE` (a collision is reported only on the tick it first
    happens, matching the scalar :class:`~repro.sim.world.TickResult`).
    """

    #: Control step count per episode (after this tick).
    step: np.ndarray
    #: Simulation time per episode, seconds.
    time: np.ndarray
    #: Collision code (KIND_*) of collisions that happened *this tick*.
    collision_kind: np.ndarray
    #: Episode-finished flags after this tick.
    done: np.ndarray
    #: The steering variation actually applied per episode (post clamp).
    applied_steer: np.ndarray

    @property
    def collided(self) -> np.ndarray:
        return self.collision_kind != KIND_NONE


@dataclass(frozen=True)
class BatchNearest:
    """Each episode's NPC closest to its ego by Euclidean distance (SoA
    mirror of :class:`repro.sim.world.Nearest`), arrays over episodes.

    With no NPCs every row reads ``index`` -1, ``distance`` inf, zero
    vectors, ``moving`` False and ``omega`` 0.
    """

    index: np.ndarray
    distance: np.ndarray
    #: Unit vectors from each ego to its nearest NPC, ``[N, 2]``.
    direction: np.ndarray
    #: Unit vectors along each nearest NPC's velocity, ``[N, 2]``.
    heading: np.ndarray
    #: Rows whose nearest NPC moves (the scalar ``omega`` is not None).
    moving: np.ndarray
    #: ``direction . heading`` where ``moving``, else 0.
    omega: np.ndarray


@dataclass(frozen=True)
class BatchGeometry:
    """Where every actor of every episode sits and moves, relative to the
    world, the road and its ego, for one batch state (SoA mirror of
    :class:`repro.sim.world.WorldGeometry`); read-only arrays worked out
    once by :meth:`BatchWorld.geometry`."""

    #: The :meth:`BatchWorld.pose_key` of the state it describes.
    key: bytes
    #: Ego world positions and velocity vectors, ``[N, 2]`` each.
    ego_position: np.ndarray
    ego_velocity: np.ndarray
    #: NPC world positions and velocity vectors, ``[N, M, 2]`` each.
    npc_positions: np.ndarray
    npc_velocities: np.ndarray
    #: NPC positions less their ego's, ``(dx, dy)``, ``[N, M]`` each, and
    #: the squared centre distances ``dx * dx + dy * dy``, ``[N, M]``.
    npc_offsets: tuple[np.ndarray, np.ndarray]
    npc_distance2: np.ndarray
    #: ``(cos, sin)`` of every ego's yaw, ``[N]`` each, and of every NPC's,
    #: ``[N, M]`` each. Every consumer of a heading reads these; a vector
    #: kernel may round a value differently in another array shape, so
    #: the two shapes are not fused.
    ego_heading: tuple[np.ndarray, np.ndarray]
    npc_heading: tuple[np.ndarray, np.ndarray]
    #: Ego ``(s, d, tangent_yaw)``, ``[N]`` each.
    ego: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: NPC ``(s, d, lane_yaw)``, ``[N, M]`` each.
    npcs: tuple[np.ndarray, np.ndarray, np.ndarray]
    nearest: BatchNearest

    @classmethod
    def of(cls, batch: "BatchWorld", key: bytes) -> "BatchGeometry":
        n, m = batch.n, batch.m
        yaw, speed = batch.yaw, batch.speed
        ego_heading = (np.cos(yaw[:, 0]), np.sin(yaw[:, 0]))
        npc_heading = (np.cos(yaw[:, 1:]), np.sin(yaw[:, 1:]))
        # Every actor's position and velocity, [N, 1 + M, 2] each.
        position = np.empty((n, 1 + m, 2))
        position[..., 0] = batch.x
        position[..., 1] = batch.y
        velocity = np.empty_like(position)
        for j in range(2):
            np.multiply(speed[:, 0], ego_heading[j], out=velocity[:, 0, j])
            np.multiply(speed[:, 1:], npc_heading[j], out=velocity[:, 1:, j])
        # Views of a read-only array are read-only.
        position.setflags(write=False)
        velocity.setflags(write=False)
        ego_position, npc_positions = position[:, 0], position[:, 1:]
        ego_velocity, npc_velocities = velocity[:, 0], velocity[:, 1:]
        x, y = batch.x, batch.y
        offsets = (x[:, 1:] - x[:, :1], y[:, 1:] - y[:, :1])
        distance2 = offsets[0] * offsets[0] + offsets[1] * offsets[1]
        if m:
            rows = np.arange(n)
            npcs = batch.road.frenet_batch(npc_positions)
            dist = np.sqrt(distance2)
            index = np.argmin(dist, axis=1)
            distance = dist[rows, index]
            near = np.stack([a[rows, index] for a in offsets], axis=1)
            direction, _ = unit_rows(near, distance)
            heading, moving = unit_rows(npc_velocities[rows, index])
            omega = np.where(
                moving, np.einsum("nj,nj->n", direction, heading), 0.0
            )
            nearest = BatchNearest(
                index, distance, direction, heading, moving, omega
            )
        else:
            empty = np.zeros((n, 0))
            npcs = (empty, empty, empty)
            nearest = BatchNearest(
                np.full(n, -1), np.full(n, np.inf), np.zeros((n, 2)),
                np.zeros((n, 2)), np.zeros(n, dtype=bool), np.zeros(n),
            )
        ego = batch.ego_frenet(ego_position)
        for array in (
            *offsets, distance2, *ego_heading, *npc_heading, *ego, *npcs,
            *vars(nearest).values(),
        ):
            array.setflags(write=False)
        return cls(
            key, ego_position, ego_velocity, npc_positions, npc_velocities,
            offsets, distance2, ego_heading, npc_heading, ego, npcs, nearest,
        )


class BatchWorld:
    """N independent episodes of the overtaking scenario, ticked in lockstep.

    All state is stored as structure-of-arrays with the actor axis second:
    ``x[i, 0]`` is episode ``i``'s ego, ``x[i, 1 + j]`` its NPC ``j``.
    ``x``, ``y``, ``yaw`` and ``speed`` are views into one pose buffer:
    write into them, do not rebind them. Build instances with
    :func:`make_batch_world`.
    """

    def __init__(
        self,
        road: Road,
        config: ScenarioConfig,
        x: np.ndarray,
        y: np.ndarray,
        yaw: np.ndarray,
        speed: np.ndarray,
        npc_lane: np.ndarray,
        npc_target_speed: np.ndarray,
        gains: LaneKeepGains | None = None,
    ) -> None:
        states = [np.asarray(a, dtype=float) for a in (x, y, yaw, speed)]
        if x.ndim != 2 or x.shape[1] < 1 or any(
            a.shape != x.shape for a in states
        ):
            raise ValueError("state arrays must have shape (n, 1 + n_npcs)")
        self.road = road
        self.config = config
        self.n, actors = x.shape
        self.m = actors - 1
        shape = (self.n, actors)
        self._pose = np.array(states)
        self.x, self.y, self.yaw, self.speed = self._pose
        #: Smoothed actuation values a_{t-1} of Eq. (1), per actor.
        self._actuation = np.zeros((2, *shape))
        self.steer_act, self.thrust_act = self._actuation
        self.npc_lane = np.array(npc_lane, dtype=int)
        self.npc_target_speed = np.array(npc_target_speed, dtype=float)
        self.gains = gains or LaneKeepGains()

        self.step_count = np.zeros(self.n, dtype=int)
        self.time = np.zeros(self.n)
        self.done = np.zeros(self.n, dtype=bool)
        self.passed = np.zeros((self.n, self.m), dtype=bool)
        #: First-collision bookkeeping (KIND_NONE / -1 where none yet).
        self.collision_kind = np.zeros(self.n, dtype=np.int8)
        self.collision_other = np.full(self.n, -1, dtype=int)
        self.collision_step = np.zeros(self.n, dtype=int)
        self.collision_time = np.zeros(self.n)
        #: Sensor frames of the current actor poses, keyed by sensor
        #: config (see :meth:`repro.sensors.camera.BevCamera.observe_batch`).
        self.frame_memo: dict = {}
        self._geometry: BatchGeometry | None = None
        # The tick's buffers: the commands, which become the new
        # actuation; the integrated pose; the substeps' intermediates.
        self._command = np.zeros((2, *shape))
        self._next_pose = np.zeros((4, *shape))
        self._scratch = np.zeros((5, *shape))
        self._moving = np.zeros(shape, dtype=bool)

        cfg = config.vehicle
        half_l, half_w = cfg.length / 2.0, cfg.width / 2.0
        # Same corner order as OrientedBox.corners (CCW from front-left).
        self._corner_local = np.array(
            [
                [half_l, half_w],
                [-half_l, half_w],
                [-half_l, -half_w],
                [half_l, -half_w],
            ]
        )
        #: Centre distance within which an ego and an NPC footprint can
        #: overlap; farther pairs skip the separating-axis test.
        self._contact_reach = reach(
            (cfg.length, cfg.width), (cfg.length, cfg.width)
        )
        # Signed lateral offset of each NPC's lane center, [N, M].
        centre = (road.config.n_lanes - 1) / 2.0
        self._npc_lane_offset = (
            (self.npc_lane - centre) * road.config.lane_width
        )

    # -- ticking -----------------------------------------------------------

    def tick(
        self,
        ego_steer: np.ndarray,
        ego_thrust: np.ndarray,
        steer_delta: np.ndarray | None = None,
    ) -> BatchTickResult:
        """Advance every unfinished episode one control step.

        Args:
            ego_steer / ego_thrust: the victims' commands, shape ``(n,)``.
            steer_delta: additive action-space perturbations on the
                steering variation (``nu' = nu + delta``), shape ``(n,)``.

        Raises:
            RuntimeError: when every episode is already done.
        """
        if bool(self.done.all()):
            raise RuntimeError("all episodes done; create a new batch")
        with span("world.tick_batch"):
            live = ~self.done
            row_live = live[:, None]
            cfg, vcfg = self.config, self.config.vehicle

            # Control.clipped: both channels to the mechanical limit.
            steer, thrust = self._command
            p_steer = clamp_array(
                np.asarray(ego_steer, dtype=float)
                + (0.0 if steer_delta is None else steer_delta),
                -EPSILON_MECH,
                EPSILON_MECH,
            )
            steer[:, 0] = p_steer
            clamp_array(
                np.asarray(ego_thrust, dtype=float),
                -EPSILON_MECH,
                EPSILON_MECH,
                out=thrust[:, 0],
            )
            self._npc_controls(steer[:, 1:], thrust[:, 1:])

            # Eq. (1) actuation smoothing, over the commands in place:
            # a_t = (1 - alpha) nu_t + alpha a_{t-1}.
            steer *= 1.0 - vcfg.steer_retain
            steer += vcfg.steer_retain * self.steer_act
            thrust *= 1.0 - vcfg.thrust_retain
            thrust += vcfg.thrust_retain * self.thrust_act
            # The actuation holds over the substeps.
            drive = thrust * np.where(
                thrust >= 0.0, vcfg.max_accel, vcfg.max_brake
            )
            tan_wheel = np.tan(steer * vcfg.max_steer_angle)

            pose = self._next_pose
            np.copyto(pose, self._pose)
            x, y, yaw, speed = pose
            new_speed, yaw_rate, limit, mid_yaw, move = self._scratch
            moving = self._moving
            sub_dt = cfg.dt / cfg.substeps
            for _ in range(cfg.substeps):
                # speed + (drive - drag * speed * speed) * dt, clamped.
                np.multiply(vcfg.drag, speed, out=new_speed)
                new_speed *= speed
                np.subtract(drive, new_speed, out=new_speed)
                new_speed *= sub_dt
                new_speed += speed
                clamp_array(new_speed, 0.0, vcfg.max_speed, out=new_speed)
                # -speed / wheelbase * tan(wheel angle): dividing by
                # -wheelbase rounds as negating the speed first does.
                np.divide(new_speed, -vcfg.wheelbase, out=yaw_rate)
                yaw_rate *= tan_wheel
                # Moving rows hold the yaw rate under the lateral limit.
                np.greater(new_speed, 1e-6, out=moving)
                np.divide(
                    vcfg.max_lateral_accel,
                    np.where(moving, new_speed, 1.0),
                    out=limit,
                )
                limited = clamp_array(yaw_rate, -limit, limit)
                np.copyto(yaw_rate, limited, where=moving)
                np.multiply(0.5, yaw_rate, out=mid_yaw)
                mid_yaw *= sub_dt
                mid_yaw += yaw
                # x and y move by mid_speed * (cos, sin)(mid_yaw) * dt,
                # mid_speed = 0.5 * (speed + new_speed).
                speed += new_speed
                speed *= 0.5
                for position, trig in ((x, np.cos), (y, np.sin)):
                    trig(mid_yaw, out=move)
                    move *= speed
                    move *= sub_dt
                    position += move
                yaw_rate *= sub_dt
                yaw += yaw_rate
                _normalize_angles(yaw, out=yaw)
                np.copyto(speed, new_speed)

            # Frozen rows keep their old state verbatim.
            np.copyto(self._pose, pose, where=row_live)
            np.copyto(self._actuation, self._command, where=row_live)
            self.step_count += live
            np.add(self.time, cfg.dt, out=self.time, where=live)

            kind, other = self._detect_collisions(live)
            new_hit = kind != KIND_NONE
            if new_hit.any():
                registry = get_registry()
                for i in np.flatnonzero(new_hit):
                    self.collision_kind[i] = kind[i]
                    self.collision_other[i] = other[i]
                    self.collision_step[i] = self.step_count[i]
                    self.collision_time[i] = self.time[i]
                    registry.counter(
                        "collisions_total",
                        kind=_KIND_TO_ENUM[int(kind[i])].name,
                    ).inc()

            geometry = self.geometry()
            ego_s, npc_s = geometry.ego[0], geometry.npcs[0]
            self.passed |= (ego_s[:, None] > npc_s + vcfg.length) & row_live
            finished = new_hit | (self.step_count >= cfg.max_steps)
            finished |= ego_s >= self.road.length - vcfg.length
            self.done |= finished & live
        return BatchTickResult(
            step=self.step_count.copy(),
            time=self.time.copy(),
            collision_kind=kind,
            done=self.done.copy(),
            applied_steer=p_steer,
        )

    # -- NPC drivers -------------------------------------------------------

    def _npc_controls(self, steer: np.ndarray, thrust: np.ndarray) -> None:
        """Vectorized lane-keeping feedback for every NPC, written into
        ``steer`` and ``thrust`` ([N, M] each)."""
        _, d, lane_yaw = self.geometry().npcs
        cross_track = d - self._npc_lane_offset
        heading_error = _normalize_angles(self.yaw[:, 1:] - lane_yaw)
        g = self.gains
        clamp_array(
            g.cross_track * cross_track + g.heading * heading_error,
            -1.0,
            1.0,
            out=steer,
        )
        clamp_array(
            g.speed * (self.npc_target_speed - self.speed[:, 1:]),
            -1.0,
            1.0,
            out=thrust,
        )

    # -- collision detection -----------------------------------------------

    def _corners(
        self, x: np.ndarray, y: np.ndarray, cos: np.ndarray, sin: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """World-frame footprint corners of the boxes centred at ``(x, y)``
        with headings ``(cos, sin)`` (``[K]`` each): their x and y,
        ``[4, K]`` each, corners first."""
        lx, ly = self._corner_local.T[..., None]
        return lx * cos - ly * sin + x, lx * sin + ly * cos + y

    def _overlapping(
        self,
        ego_x: np.ndarray,
        ego_y: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> np.ndarray:
        """Separating-axis test of the ego against NPC ``cols`` in episodes
        ``rows``; ``ego_x``/``ego_y`` are those rows' ego corners, ``[4, K]``
        each. ``[K]`` bool."""
        npc = 1 + cols
        ego_yaw = self.yaw[rows, 0]
        npc_yaw = self.yaw[rows, npc]
        npc_x, npc_y = self._corners(
            self.x[rows, npc],
            self.y[rows, npc],
            np.cos(npc_yaw),
            np.sin(npc_yaw),
        )
        # SAT axes: ego's two face normals + the NPC's two, mirroring
        # OrientedBox.axes (heading_vector(yaw) and yaw + pi/2), [K, 4].
        a = np.stack((ego_yaw, ego_yaw, npc_yaw, npc_yaw), axis=1)
        a += _AXIS_OFFSETS
        # Axes first, [4, K], then the corners' projections on them,
        # x * axis_x + y * axis_y, [corner, axis, K].
        axis_x, axis_y = np.cos(a).T, np.sin(a).T
        proj_e = ego_x[:, None] * axis_x + ego_y[:, None] * axis_y
        proj_o = npc_x[:, None] * axis_x + npc_y[:, None] * axis_y
        separated = np.maximum.reduce(proj_e) < np.minimum.reduce(proj_o)
        separated |= np.maximum.reduce(proj_o) < np.minimum.reduce(proj_e)
        return ~np.logical_or.reduce(separated)

    def _classify_contacts(
        self,
        kind: np.ndarray,
        other: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> None:
        """Write into ``kind``/``other`` the contact of each episode in
        ``rows`` with its lowest-index NPC among ``cols`` (pairs sorted by
        row, then NPC), classed by the NPC's bearing from the ego."""
        first = np.ones(len(rows), dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        rows, cols = rows[first], cols[first]
        dx, dy = (a[rows, cols] for a in self.geometry().npc_offsets)
        bearing = np.abs(
            _normalize_angles(np.arctan2(dy, dx) - self.yaw[rows, 0])
        )
        k = np.full(len(rows), KIND_SIDE, dtype=np.int8)
        k[bearing <= _FRONT_SECTOR] = KIND_FRONT
        k[bearing >= _REAR_SECTOR] = KIND_REAR
        kind[rows] = k
        other[rows] = cols

    def _detect_collisions(
        self, live: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """First collision of each episode ``live`` marks: ``(kind[N],
        other[N])`` arrays; every other row reads ``KIND_NONE`` / -1.

        Mirrors the scalar ``World._detect_collision``: NPCs are tested in
        spawn order (the lowest-index overlapping NPC wins), the barrier
        only when no vehicle contact exists. Only (episode, NPC) pairs
        whose centres lie within the contact :func:`reach` run the
        separating-axis test; the others cannot overlap. A finished
        episode's collision is already recorded, so its row is not tested.
        """
        kind = np.zeros(self.n, dtype=np.int8)
        other = np.full(self.n, -1, dtype=int)
        live_rows = np.flatnonzero(live)
        geometry = self.geometry()
        cos, sin = geometry.ego_heading
        ego_x, ego_y = self._corners(
            self.x[live_rows, 0],
            self.y[live_rows, 0],
            cos[live_rows],
            sin[live_rows],
        )
        reach2 = self._contact_reach * self._contact_reach
        pairs, cols = np.nonzero(geometry.npc_distance2[live_rows] <= reach2)
        if len(pairs):
            rows = live_rows[pairs]
            hit = self._overlapping(
                ego_x[:, pairs], ego_y[:, pairs], rows, cols
            )
            if hit.any():
                self._classify_contacts(kind, other, rows[hit], cols[hit])
        # Barrier: any ego footprint corner beyond the roadside barriers,
        # only where no vehicle collision was found.
        clear = kind[live_rows] == KIND_NONE
        if clear.any():
            d = self.road.lateral_batch(ego_y, lambda: ego_x)
            off = np.logical_or.reduce(np.abs(d) >= self.road.barrier_offset)
            kind[live_rows[clear & off]] = KIND_BARRIER
        return kind, other

    # -- queries -----------------------------------------------------------

    @property
    def all_done(self) -> bool:
        return bool(self.done.all())

    # Worked out afresh on each read; :meth:`geometry` holds the current
    # state's.

    @property
    def ego_position(self) -> np.ndarray:
        """Ego world positions, ``[N, 2]``."""
        return np.stack([self.x[:, 0], self.y[:, 0]], axis=1)

    @property
    def ego_velocity(self) -> np.ndarray:
        """Ego velocity vectors, ``[N, 2]``."""
        return self.speed[:, 0, None] * np.stack(
            [np.cos(self.yaw[:, 0]), np.sin(self.yaw[:, 0])], axis=1
        )

    @property
    def npc_positions(self) -> np.ndarray:
        """NPC world positions, ``[N, M, 2]``."""
        return np.stack([self.x[:, 1:], self.y[:, 1:]], axis=2)

    @property
    def npc_velocities(self) -> np.ndarray:
        """NPC velocity vectors, ``[N, M, 2]``."""
        return self.speed[:, 1:, None] * np.stack(
            [np.cos(self.yaw[:, 1:]), np.sin(self.yaw[:, 1:])], axis=2
        )

    def ego_frenet(
        self, position: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ego ``(s, d, tangent_yaw)`` arrays on the road reference line,
        of the ego positions ``position`` (default: :attr:`ego_position`).
        """
        if position is None:
            position = self.ego_position
        return self.road.frenet_batch(position)

    # -- geometry of the current state ---------------------------------------

    def pose_key(self) -> bytes:
        """The ``x, y, yaw`` and ``speed`` of every actor of every episode,
        as a key: equal keys mean an unchanged state, whatever changed it
        (a tick or an in-place write to the state arrays). One copy of the
        pose buffer those four arrays view."""
        return self._pose.tobytes()

    def geometry(self) -> BatchGeometry:
        """The current state's :class:`BatchGeometry`, worked out on the
        first call after the state changed (one :meth:`ego_frenet` call)
        and shared until it changes again. Read it at once; do not keep
        it across a tick."""
        key = self.pose_key()
        if self._geometry is None or self._geometry.key != key:
            self._geometry = BatchGeometry.of(self, key)
        return self._geometry

    @property
    def passed_npcs(self) -> np.ndarray:
        """How many NPCs each ego has fully overtaken so far, ``[N]``."""
        return self.passed.sum(axis=1)

    def collision(self, i: int) -> Collision | None:
        """Episode ``i``'s collision event (None while not collided)."""
        code = int(self.collision_kind[i])
        if code == KIND_NONE:
            return None
        other = (
            "barrier"
            if code == KIND_BARRIER
            else f"npc_{int(self.collision_other[i])}"
        )
        return Collision(
            kind=_KIND_TO_ENUM[code],
            ego="ego",
            other=other,
            step=int(self.collision_step[i]),
            time=float(self.collision_time[i]),
        )


def make_batch_world(
    config: ScenarioConfig | None = None,
    seeds: list[int] | None = None,
    n: int | None = None,
    road: Road | None = None,
) -> BatchWorld:
    """Build ``N`` fresh episode worlds as one :class:`BatchWorld`.

    Episode ``i`` is spawned exactly like ``make_world(config,
    rng=np.random.default_rng(seeds[i]))`` — same jitter-draw order, same
    clipping — so batched and scalar runs of the same seed start from
    bit-identical states. ``seeds=None`` spawns ``n`` unjittered episodes
    (the ``rng=None`` scalar behaviour).
    """
    config = config or ScenarioConfig()
    road = road or default_road(config.road)
    m = config.n_npcs
    if seeds is None:
        if n is None:
            raise ValueError("provide seeds or n")
        jitter = np.zeros((n, m, 2))
    else:
        n = len(seeds)
        # make_world draws, per NPC, the spawn jitter then the speed
        # jitter, each rng.uniform(-half, half) = low + (high - low) * u.
        lows = np.tile([-config.spawn_jitter, -config.speed_jitter], m)
        highs = np.tile([config.spawn_jitter, config.speed_jitter], m)
        jitter = np.array(
            [
                lows + (highs - lows) * np.random.default_rng(s).random(2 * m)
                for s in seeds
            ]
        ).reshape(n, m, 2)

    lanes = [config.npc_lanes[i % len(config.npc_lanes)] for i in range(m)]
    ego_start_s = 10.0
    s = ego_start_s + config.first_npc_gap + np.arange(m) * config.npc_spacing
    s = clamp_array(s + jitter[..., 0], 0.0, road.length - 10.0)
    npc_speed = np.maximum(config.npc_speed + jitter[..., 1], 0.0)
    offsets = np.array([road.lane_offset(lane) for lane in lanes])
    position, npc_yaw = road.to_world_batch(
        s.ravel(), np.broadcast_to(offsets, s.shape).ravel()
    )

    ego_position, ego_yaw = road.lane_center(config.ego_lane, ego_start_s)
    x, y, yaw, speed = np.empty((4, n, 1 + m))
    x[:, 0], y[:, 0] = ego_position
    yaw[:, 0] = ego_yaw
    speed[:, 0] = config.ego_speed
    x[:, 1:] = position[:, 0].reshape(n, m)
    y[:, 1:] = position[:, 1].reshape(n, m)
    yaw[:, 1:] = npc_yaw.reshape(n, m)
    speed[:, 1:] = npc_speed
    return BatchWorld(
        road=road,
        config=config,
        x=x,
        y=y,
        yaw=yaw,
        speed=speed,
        npc_lane=np.broadcast_to(lanes, (n, m)),
        npc_target_speed=npc_speed,
    )
