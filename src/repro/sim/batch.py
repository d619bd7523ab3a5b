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
from repro.utils.geometry import clamp, clamp_array, reach, unit_rows

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


def _normalize_angles(angles: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.utils.geometry.normalize_angle`."""
    return (angles + math.pi) % _TWO_PI - math.pi


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
    key: tuple
    #: Ego world positions and velocity vectors, ``[N, 2]`` each.
    ego_position: np.ndarray
    ego_velocity: np.ndarray
    #: NPC world positions and velocity vectors, ``[N, M, 2]`` each.
    npc_positions: np.ndarray
    npc_velocities: np.ndarray
    #: Ego ``(s, d, tangent_yaw)``, ``[N]`` each.
    ego: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: NPC ``(s, d, lane_yaw)``, ``[N, M]`` each.
    npcs: tuple[np.ndarray, np.ndarray, np.ndarray]
    nearest: BatchNearest

    @classmethod
    def of(cls, batch: "BatchWorld", key: tuple) -> "BatchGeometry":
        n, m = batch.n, batch.m
        ego_position, npc_positions = batch.ego_position, batch.npc_positions
        npc_velocities = batch.npc_velocities
        if m:
            rows = np.arange(n)
            npcs = tuple(
                a.reshape(n, m)
                for a in batch.road.frenet_batch(
                    npc_positions.reshape(-1, 2)
                )
            )
            diff = npc_positions - ego_position[:, None, :]
            dist = np.sqrt(np.einsum("nmj,nmj->nm", diff, diff))
            index = np.argmin(dist, axis=1)
            direction, _ = unit_rows(diff[rows, index])
            heading, moving = unit_rows(npc_velocities[rows, index])
            omega = np.where(
                moving, np.einsum("nj,nj->n", direction, heading), 0.0
            )
            nearest = BatchNearest(
                index, dist[rows, index], direction, heading, moving, omega
            )
        else:
            empty = np.zeros((n, 0))
            npcs = (empty, empty, empty)
            nearest = BatchNearest(
                np.full(n, -1), np.full(n, np.inf), np.zeros((n, 2)),
                np.zeros((n, 2)), np.zeros(n, dtype=bool), np.zeros(n),
            )
        ego = batch.ego_frenet(ego_position)
        ego_velocity = batch.ego_velocity
        for array in (
            ego_position, ego_velocity, npc_positions, npc_velocities,
            *ego, *npcs, *vars(nearest).values(),
        ):
            array.flags.writeable = False
        return cls(
            key, ego_position, ego_velocity, npc_positions, npc_velocities,
            ego, npcs, nearest,
        )


class BatchWorld:
    """N independent episodes of the overtaking scenario, ticked in lockstep.

    All state is stored as structure-of-arrays with the actor axis second:
    ``x[i, 0]`` is episode ``i``'s ego, ``x[i, 1 + j]`` its NPC ``j``.
    Build instances with :func:`make_batch_world`.
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
        if x.ndim != 2 or x.shape[1] < 1:
            raise ValueError("state arrays must have shape (n, 1 + n_npcs)")
        self.road = road
        self.config = config
        self.n, actors = x.shape
        self.m = actors - 1
        self.x = np.array(x, dtype=float)
        self.y = np.array(y, dtype=float)
        self.yaw = np.array(yaw, dtype=float)
        self.speed = np.array(speed, dtype=float)
        #: Smoothed actuation values a_{t-1} of Eq. (1), per actor.
        self.steer_act = np.zeros((self.n, actors))
        self.thrust_act = np.zeros((self.n, actors))
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
            active = ~self.done
            cfg, vcfg = self.config, self.config.vehicle
            ego_steer = np.asarray(ego_steer, dtype=float)
            ego_thrust = np.asarray(ego_thrust, dtype=float)
            if steer_delta is None:
                steer_delta = np.zeros(self.n)

            # Control.clipped: both channels to the mechanical limit.
            p_steer = clamp_array(
                ego_steer + steer_delta, -EPSILON_MECH, EPSILON_MECH
            )
            p_thrust = clamp_array(ego_thrust, -EPSILON_MECH, EPSILON_MECH)
            npc_steer, npc_thrust = self._npc_controls()
            steer_cmd = np.concatenate([p_steer[:, None], npc_steer], axis=1)
            thrust_cmd = np.concatenate(
                [p_thrust[:, None], npc_thrust], axis=1
            )

            # Eq. (1) actuation smoothing, then sub-stepped integration.
            steer_act = (
                (1.0 - vcfg.steer_retain) * steer_cmd
                + vcfg.steer_retain * self.steer_act
            )
            thrust_act = (
                (1.0 - vcfg.thrust_retain) * thrust_cmd
                + vcfg.thrust_retain * self.thrust_act
            )
            # The actuation holds over the substeps.
            drive = np.where(
                thrust_act >= 0.0,
                thrust_act * vcfg.max_accel,
                thrust_act * vcfg.max_brake,
            )
            tan_wheel = np.tan(steer_act * vcfg.max_steer_angle)
            x, y, yaw, speed = self.x, self.y, self.yaw, self.speed
            sub_dt = cfg.dt / cfg.substeps
            for _ in range(cfg.substeps):
                accel = drive - vcfg.drag * speed * speed
                new_speed = clamp_array(
                    speed + accel * sub_dt, 0.0, vcfg.max_speed
                )
                yaw_rate = -new_speed / vcfg.wheelbase * tan_wheel
                moving = new_speed > 1e-6
                limit = vcfg.max_lateral_accel / np.where(
                    moving, new_speed, 1.0
                )
                yaw_rate = np.where(
                    moving, clamp_array(yaw_rate, -limit, limit), yaw_rate
                )
                mid_yaw = yaw + 0.5 * yaw_rate * sub_dt
                mid_speed = 0.5 * (speed + new_speed)
                x = x + mid_speed * np.cos(mid_yaw) * sub_dt
                y = y + mid_speed * np.sin(mid_yaw) * sub_dt
                yaw = _normalize_angles(yaw + yaw_rate * sub_dt)
                speed = new_speed

            # Frozen rows keep their old state verbatim.
            row_active = active[:, None]
            np.copyto(self.x, x, where=row_active)
            np.copyto(self.y, y, where=row_active)
            np.copyto(self.yaw, yaw, where=row_active)
            np.copyto(self.speed, speed, where=row_active)
            np.copyto(self.steer_act, steer_act, where=row_active)
            np.copyto(self.thrust_act, thrust_act, where=row_active)
            np.add(self.step_count, 1, out=self.step_count, where=active)
            np.add(self.time, cfg.dt, out=self.time, where=active)

            kind, other = self._detect_collisions()
            new_hit = active & (kind != KIND_NONE)
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
            overtaken = ego_s[:, None] > npc_s + vcfg.length
            np.logical_or(
                self.passed, overtaken, out=self.passed, where=row_active
            )
            out_of_road = ego_s >= self.road.length - vcfg.length
            finished = (
                new_hit
                | (self.step_count >= cfg.max_steps)
                | out_of_road
            )
            np.logical_or(self.done, finished, out=self.done, where=active)

            tick_kind = np.where(new_hit, kind, KIND_NONE).astype(np.int8)
        return BatchTickResult(
            step=self.step_count.copy(),
            time=self.time.copy(),
            collision_kind=tick_kind,
            done=self.done.copy(),
            applied_steer=p_steer,
        )

    # -- NPC drivers -------------------------------------------------------

    def _npc_controls(self) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lane-keeping feedback for every NPC, [N, M] each."""
        _, d, lane_yaw = self.geometry().npcs
        cross_track = d - self._npc_lane_offset
        heading_error = _normalize_angles(self.yaw[:, 1:] - lane_yaw)
        g = self.gains
        steer = clamp_array(
            g.cross_track * cross_track + g.heading * heading_error,
            -1.0,
            1.0,
        )
        thrust = clamp_array(
            g.speed * (self.npc_target_speed - self.speed[:, 1:]),
            -1.0,
            1.0,
        )
        return steer, thrust

    # -- collision detection -----------------------------------------------

    def _footprint_corners(
        self, rows: np.ndarray | slice, cols: np.ndarray | int
    ) -> tuple[np.ndarray, np.ndarray]:
        """World-frame footprint corners of actor ``cols`` in episodes
        ``rows`` (ego = column 0): their x and y, ``[K, 4]`` each."""
        yaw = self.yaw[rows, cols]
        cos, sin = np.cos(yaw)[:, None], np.sin(yaw)[:, None]
        lx = self._corner_local[:, 0]
        ly = self._corner_local[:, 1]
        cx = lx * cos - ly * sin + self.x[rows, cols][:, None]
        cy = lx * sin + ly * cos + self.y[rows, cols][:, None]
        return cx, cy

    def _overlapping(
        self, ego_corners: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Separating-axis test of the ego against NPC ``cols`` in episodes
        ``rows``; ``ego_corners`` are those rows' ego corners, ``[K, 4, 2]``.
        ``[K]`` bool."""
        npc_corners = np.stack(self._footprint_corners(rows, 1 + cols), -1)
        # SAT axes: ego's two face normals + the NPC's two, mirroring
        # OrientedBox.axes (heading_vector(yaw) and yaw + pi/2), [K, 4].
        ego_yaw = self.yaw[rows, 0, None]
        npc_yaw = self.yaw[rows, 1 + cols, None]
        a = np.concatenate([ego_yaw, ego_yaw, npc_yaw, npc_yaw], axis=1)
        a = a + _AXIS_OFFSETS
        axes = np.stack([np.cos(a), np.sin(a)], axis=-1)
        # Projections of both footprints on every axis, [K, axis, corner].
        proj_e = np.einsum("kcj,kaj->kac", ego_corners, axes)
        proj_o = np.einsum("kcj,kaj->kac", npc_corners, axes)
        separated = (proj_e.max(axis=2) < proj_o.min(axis=2)) | (
            proj_o.max(axis=2) < proj_e.min(axis=2)
        )
        return ~separated.any(axis=1)

    def _detect_collisions(self) -> tuple[np.ndarray, np.ndarray]:
        """First collision per episode: ``(kind[N], other[N])`` arrays.

        Mirrors the scalar ``World._detect_collision``: NPCs are tested in
        spawn order (the lowest-index overlapping NPC wins), the barrier
        only when no vehicle contact exists. Only (episode, NPC) pairs
        whose centres lie within the contact :func:`reach` run the
        separating-axis test; the others cannot overlap.
        """
        kind = np.zeros(self.n, dtype=np.int8)
        other = np.full(self.n, -1, dtype=int)
        ego_x, ego_y = self._footprint_corners(slice(None), 0)
        dx = self.x[:, 1:] - self.x[:, :1]
        dy = self.y[:, 1:] - self.y[:, :1]
        rows, cols = np.nonzero(
            dx * dx + dy * dy <= self._contact_reach * self._contact_reach
        )
        if len(rows):
            ego_corners = np.stack([ego_x[rows], ego_y[rows]], axis=-1)
            hit = self._overlapping(ego_corners, rows, cols)
            # nonzero lists pairs row-major, so each row's first hit is
            # its lowest-index NPC.
            rows, first = np.unique(rows[hit], return_index=True)
            cols = cols[hit][first]
            bearing = np.abs(
                _normalize_angles(
                    np.arctan2(dy[rows, cols], dx[rows, cols])
                    - self.yaw[rows, 0]
                )
            )
            k = np.full(len(rows), KIND_SIDE, dtype=np.int8)
            k[bearing <= _FRONT_SECTOR] = KIND_FRONT
            k[bearing >= _REAR_SECTOR] = KIND_REAR
            kind[rows] = k
            other[rows] = cols
        # Barrier: any ego footprint corner beyond the roadside barriers,
        # only where no vehicle collision was found.
        clear = kind == KIND_NONE
        if clear.any():
            d = self.road.lateral_batch(ego_y, lambda: ego_x)
            off = (np.abs(d) >= self.road.barrier_offset).any(axis=1)
            barrier = clear & off
            kind[barrier] = KIND_BARRIER
            other[barrier] = -1
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

    def pose_key(self) -> tuple:
        """The ``x, y, yaw`` and ``speed`` of every actor of every episode,
        as a key: equal keys mean an unchanged state, whatever changed it
        (a tick or an in-place write to the state arrays)."""
        return self.x.shape, b"".join(
            [a.tobytes() for a in (self.x, self.y, self.yaw, self.speed)]
        )

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
    if seeds is None:
        if n is None:
            raise ValueError("provide seeds or n")
        rngs = [None] * n
    else:
        rngs = [np.random.default_rng(s) for s in seeds]
        n = len(rngs)
    m = config.n_npcs

    x = np.zeros((n, 1 + m))
    y = np.zeros((n, 1 + m))
    yaw = np.zeros((n, 1 + m))
    speed = np.zeros((n, 1 + m))
    npc_lane = np.zeros((n, m), dtype=int)
    npc_target_speed = np.zeros((n, m))

    ego_start_s = 10.0
    ego_position, ego_yaw = road.lane_center(config.ego_lane, ego_start_s)
    x[:, 0] = float(ego_position[0])
    y[:, 0] = float(ego_position[1])
    yaw[:, 0] = ego_yaw
    speed[:, 0] = config.ego_speed

    for i, rng in enumerate(rngs):
        for index in range(m):
            lane = config.npc_lanes[index % len(config.npc_lanes)]
            s = ego_start_s + config.first_npc_gap + index * config.npc_spacing
            npc_speed = config.npc_speed
            if rng is not None:
                s += float(
                    rng.uniform(-config.spawn_jitter, config.spawn_jitter)
                )
                npc_speed += float(
                    rng.uniform(-config.speed_jitter, config.speed_jitter)
                )
            s = clamp(s, 0.0, road.length - 10.0)
            position, npc_yaw = road.lane_center(lane, s)
            col = 1 + index
            x[i, col] = float(position[0])
            y[i, col] = float(position[1])
            yaw[i, col] = npc_yaw
            speed[i, col] = max(npc_speed, 0.0)
            npc_lane[i, index] = lane
            npc_target_speed[i, index] = max(npc_speed, 0.0)

    return BatchWorld(
        road=road,
        config=config,
        x=x,
        y=y,
        yaw=yaw,
        speed=speed,
        npc_lane=npc_lane,
        npc_target_speed=npc_target_speed,
    )
