"""Structure-of-arrays batch simulation: N episodes ticking in lockstep.

The scalar :class:`~repro.sim.world.World` advances one episode per call
with per-vehicle Python objects; profiling shows a full bench session is
dominated by that per-episode Python overhead, not by compute. This module
re-expresses the same physics over numpy arrays so one ``tick`` advances
every episode of a batch at once:

* the state is actor-major. Every actor's pose lives in one ``[4, 1 + M,
  N]`` buffer (planes x, y, yaw and speed; row 0 holds the egos, rows
  ``1..M`` the NPCs in spawn order), the Eq. (1) actuation in one ``[2,
  1 + M, N]`` buffer, and the NPC lanes, target speeds and passed flags in
  ``[M, N]`` arrays, so the tick and its consumers read contiguous planes:
  ego arrays ``[N]``, NPC arrays ``[M, N]``. The ``[N, 1 + M]`` and
  ``[N, M]`` attributes (``x``, ``y``, ``yaw``, ``speed``, ``steer_act``,
  ``thrust_act``, ``npc_lane``, ``npc_target_speed``, ``passed``) are
  transposed views of those buffers, not copies;
* the kinematic bicycle model, Eq. (1) actuation smoothing, the
  lane-keeping NPC drivers, and the vehicle-pair/barrier collision checks
  are all evaluated as whole-batch array expressions (the vehicle-pair
  test only for pairs within :func:`~repro.utils.geometry.reach`, the
  barrier test only for egos within reach of a barrier);
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
from repro.utils.geometry import (
    clamp_array, count_nonzero, dot_planes, reach, unit_planes
)

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

#: The tick's float operands as 0-d arrays, same bits as Python floats: a
#: ufunc converts a Python float on every call (about 0.2 us).
_PI, _TWO_PI = np.array(math.pi), np.array(2.0 * math.pi)
_HALF, _MOVING_SPEED = np.array(0.5), np.array(1e-6)  # m/s
#: The box (0 the ego, 1 the NPC) of each separating axis, and the axis's
#: angle from that box's yaw: the ego's heading and its normal, then the
#: NPC's.
_AXIS_BOXES = np.array([0, 0, 1, 1])
_AXIS_OFFSETS = np.array([[0.0], [math.pi / 2.0], [0.0], [math.pi / 2.0]])
#: From about this many angles on, two range reductions cost less than the
#: remainder they may skip (about 16 ns an element on a 2-vCPU host).
_WRAP_CHECK_SIZE = 128


class NoBatchTwin(TypeError):
    """An agent or attacker has no lockstep twin: run it on the scalar engine.

    Raised only by the twin lookups, before any tick, so an engine choice
    can catch it without hiding errors raised while episodes run.
    """


def _normalize_angles(
    angles: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized :func:`repro.utils.geometry.normalize_angle`, into
    ``out`` when given. The remainder leaves a value in ``[0, 2 pi)`` as
    it is, bit for bit, so on a large array it runs only when some value
    lies outside."""
    wrapped = np.add(angles, _PI, out=out)
    if wrapped.size < _WRAP_CHECK_SIZE or not (
        np.minimum.reduce(wrapped, axis=None, initial=0.0) >= 0.0
        and np.maximum.reduce(wrapped, axis=None, initial=0.0) < _TWO_PI
    ):
        np.remainder(wrapped, _TWO_PI, out=wrapped)
    return np.subtract(wrapped, _PI, out=wrapped)


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
    #: Each nearest NPC's position less its ego's, ``[2, N]`` (x and y
    #: planes), and its unit vector.
    offset: np.ndarray
    direction: np.ndarray
    #: Unit vectors along each nearest NPC's velocity, ``[2, N]``.
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
    once by :meth:`BatchWorld.geometry`. Vectors are ``[2, ...]`` planes
    (x, then y), ego arrays ``[N]`` and NPC arrays ``[M, N]``."""

    #: The :meth:`BatchWorld.pose_key` of the state it describes.
    key: bytes
    #: Ego world positions and velocity vectors, ``[2, N]`` each. The
    #: positions are read-only views of the pose buffer.
    ego_position: np.ndarray
    ego_velocity: np.ndarray
    #: NPC world positions and velocity vectors, ``[2, M, N]`` each.
    npc_positions: np.ndarray
    npc_velocities: np.ndarray
    #: NPC positions less their ego's, ``(dx, dy)``, ``[M, N]`` each (the
    #: planes of one ``[2, M, N]`` array), and the squared centre
    #: distances ``dx * dx + dy * dy``, ``[M, N]``.
    npc_offsets: tuple[np.ndarray, np.ndarray]
    npc_distance2: np.ndarray
    #: ``(cos, sin)`` of every ego's yaw, ``[N]`` each, and of every NPC's,
    #: ``[M, N]`` each: planes of one cos and one sin call over the yaw
    #: plane, which every consumer of a heading reads.
    ego_heading: tuple[np.ndarray, np.ndarray]
    npc_heading: tuple[np.ndarray, np.ndarray]
    #: Ego ``(s, d, tangent_yaw)``, ``[N]`` each.
    ego: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: NPC ``(s, d, lane_yaw)``, ``[M, N]`` each.
    npcs: tuple[np.ndarray, np.ndarray, np.ndarray]
    nearest: BatchNearest

    @classmethod
    def of(cls, batch: "BatchWorld", key: bytes) -> "BatchGeometry":
        n, m = batch.n, batch.m
        pose = batch.pose
        heading = np.empty((2, 1 + m, n))
        np.cos(pose[2], out=heading[0])
        np.sin(pose[2], out=heading[1])
        velocity = heading * pose[3]
        # A read-only view of the pose planes: no copy, and its views are
        # read-only too.
        position = pose[:2]
        for array in (position, heading, velocity):
            array.setflags(write=False)
        npc_positions, npc_velocities = position[:, 1:], velocity[:, 1:]
        offsets = npc_positions - position[:, :1]
        squares = offsets * offsets
        distance2 = np.add(squares[0], squares[1], out=squares[0])
        if m:
            npcs = batch.road.frenet_batch(npc_positions.transpose(1, 2, 0))
            dist = np.sqrt(distance2)
            index = dist.argmin(axis=0)
            # The nearest NPC's flat index in an [M, N] plane, then in a
            # [1 + M, N] one.
            flat = index * n
            flat += batch.rows
            distance = dist.take(flat)
            offset = offsets.reshape(2, -1).take(flat, axis=1)
            direction, _ = unit_planes(offset, distance)
            flat += n
            npc_heading, moving = unit_planes(
                velocity.reshape(2, -1).take(flat, axis=1)
            )
            omega = dot_planes(direction, npc_heading)
            if count_nonzero(moving) < n:
                np.copyto(omega, 0.0, where=~moving)
            nearest = BatchNearest(
                index, distance, offset, direction, npc_heading, moving, omega
            )
        else:
            empty = np.zeros((0, n))
            npcs = (empty, empty, empty)
            nearest = BatchNearest(
                np.full(n, -1), np.full(n, np.inf), np.zeros((2, n)),
                np.zeros((2, n)), np.zeros((2, n)), np.zeros(n, dtype=bool),
                np.zeros(n),
            )
        ego = batch.ego_frenet(position[:, 0])
        for array in (
            offsets, distance2, *ego, *npcs, *vars(nearest).values(),
        ):
            array.setflags(write=False)
        cos, sin = heading[0], heading[1]
        return cls(
            key, position[:, 0], velocity[:, 0], npc_positions,
            npc_velocities, (offsets[0], offsets[1]), distance2,
            (cos[0], sin[0]), (cos[1:], sin[1:]), ego, npcs, nearest,
        )


class BatchWorld:
    """N independent episodes of the overtaking scenario, ticked in lockstep.

    The state is actor-major: :attr:`pose` is one ``[4, 1 + M, N]``
    buffer (planes x, y, yaw and speed; ``pose[:, 0]`` the egos,
    ``pose[:, 1 + j]`` NPC ``j``) and :attr:`actuation` one ``[2, 1 + M,
    N]`` buffer (steer, thrust). ``x``, ``y``, ``yaw`` and ``speed``
    (``x[i, 0]`` is episode ``i``'s ego, ``x[i, 1 + j]`` its NPC ``j``),
    ``steer_act`` and ``thrust_act`` are ``[N, 1 + M]`` transposed views
    of them, and ``npc_lane``, ``npc_target_speed`` and ``passed``
    ``[N, M]`` views of ``[M, N]`` arrays: write into them, do not rebind
    them. Build instances with :func:`make_batch_world`.
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
        shape = states[0].shape
        if len(shape) != 2 or shape[1] < 1 or any(
            a.shape != shape for a in states
        ):
            raise ValueError("state arrays must have shape (n, 1 + n_npcs)")
        self.road = road
        self.config = config
        self.n, actors = shape
        self.m = actors - 1
        # One NPC array of another shape would broadcast into its buffer
        # unnoticed, or fail only at the first tick.
        npc_shape = (self.n, self.m)
        for name, array in (
            ("npc_lane", npc_lane),
            ("npc_target_speed", npc_target_speed),
        ):
            if np.shape(array) != npc_shape:
                raise ValueError(
                    f"{name} must have shape (n, n_npcs) = {npc_shape}, "
                    f"got {np.shape(array)}"
                )
        #: Every actor's pose, actor-major: ``[4, 1 + M, N]``.
        self.pose = np.array([a.T for a in states])
        self.x, self.y, self.yaw, self.speed = (a.T for a in self.pose)
        #: Smoothed actuation values a_{t-1} of Eq. (1), per actor:
        #: ``[2, 1 + M, N]``.
        self.actuation = np.zeros((2, actors, self.n))
        self.steer_act, self.thrust_act = (a.T for a in self.actuation)
        # The NPC arrays, [M, N] each, and their [N, M] views.
        self._lane = np.array(np.transpose(npc_lane), dtype=int)
        self._target_speed = np.array(
            np.transpose(npc_target_speed), dtype=float
        )
        self._passed = np.zeros((self.m, self.n), dtype=bool)
        self.npc_lane = self._lane.T
        self.npc_target_speed = self._target_speed.T
        self.passed = self._passed.T
        self.gains = gains or LaneKeepGains()

        #: ``arange(n)``, read-only: flat indexing into ``[..., N]`` planes.
        self.rows = np.arange(self.n)
        self.rows.setflags(write=False)
        self._no_contact = np.full(self.n, -1)
        self.step_count = np.zeros(self.n, dtype=int)
        self.time = np.zeros(self.n)
        self.done = np.zeros(self.n, dtype=bool)
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
        # actuation; the integrated pose; the substeps' intermediates and
        # the x/y move. Unpacking an array builds a view per plane on each
        # call, so the planes the tick reads are held as tuples of views.
        planes = (actors, self.n)
        self._command = np.zeros((2, *planes))
        self._commands = tuple(self._command)
        self._next_pose = np.zeros((4, *planes))
        self._next_planes = (
            self._next_pose[:3], self._next_pose[2], self._next_pose[3]
        )
        self._scratch = tuple(np.zeros((4, *planes)))
        # A substep's move of x, y and yaw, [3, 1 + M, N].
        self._step = np.zeros((3, *planes))
        self._move = self._step[:2]
        self._moves = tuple(self._move)
        self._moving = np.zeros(planes, dtype=bool)

        cfg = config.vehicle
        # The substeps' float operands (see _PI).
        operands = (cfg.drag, config.dt / config.substeps, -cfg.wheelbase)
        self._substep_operands = tuple(
            np.array(v) for v in (*operands, cfg.max_lateral_accel)
        )
        # Each channel's Eq. (1) weights on the command and on the last
        # actuation, [2, 1, 1].
        retain = np.array([cfg.steer_retain, cfg.thrust_retain])
        self._keep = (1.0 - retain).reshape(2, 1, 1)
        self._retain = retain.reshape(2, 1, 1)
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
        #: Ego centres whose lateral offset is below this in magnitude
        #: keep every footprint corner short of the barriers, as each
        #: corner lies within the footprint's reach of its centre and, on
        #: an axis-aligned road, a corner's offset is its y less the
        #: line's. Elsewhere the offset is a projection, not a distance,
        #: and every ego is tested.
        self._barrier_clear = (
            road.barrier_offset - reach((cfg.length, cfg.width))
            if road.axis_aligned
            else -math.inf
        )
        # Signed lateral offset of each NPC's lane center, [M, N].
        centre = (road.config.n_lanes - 1) / 2.0
        self._npc_lane_offset = (self._lane - centre) * road.config.lane_width

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
        if self.all_done:
            raise RuntimeError("all episodes done; create a new batch")
        with span("world.tick_batch"):
            live = ~self.done
            cfg, vcfg = self.config, self.config.vehicle

            # The commands, [2, 1 + M, N]: the egos' (the steering
            # perturbed), then the NPC drivers'. Control.clipped limits
            # every one to the mechanical limit, which is also the
            # drivers' own limit of 1.
            command, move = self._command, self._move
            np.add(
                np.asarray(ego_steer, dtype=float),
                0.0 if steer_delta is None else steer_delta,
                out=command[0, 0],
            )
            command[1, 0] = np.asarray(ego_thrust, dtype=float)
            self._npc_controls(command[:, 1:])
            clamp_array(command, -EPSILON_MECH, EPSILON_MECH, out=command)
            p_steer = command[0, 0].copy()

            # Eq. (1) actuation smoothing of both channels, over the
            # commands in place: a_t = (1 - alpha) nu_t + alpha a_{t-1}.
            command *= self._keep
            command += np.multiply(self._retain, self.actuation, out=move)
            steer, thrust = self._commands
            # The actuation holds over the substeps.
            drive = thrust * vcfg.max_brake
            np.multiply(
                thrust, vcfg.max_accel, out=drive, where=thrust >= 0.0
            )
            tan_wheel = np.tan(steer * vcfg.max_steer_angle)

            pose = self._next_pose
            np.copyto(pose, self.pose)
            position_yaw, yaw, speed = self._next_planes
            new_speed, low, limit, mid_yaw = self._scratch
            yaw_rate = self._step[2]
            moving, (move_x, move_y) = self._moving, self._moves
            drag, sub_dt, neg_wheelbase, max_lateral = self._substep_operands
            for _ in range(cfg.substeps):
                # speed + (drive - drag * speed * speed) * dt, clamped.
                np.multiply(drag, speed, out=new_speed)
                new_speed *= speed
                np.subtract(drive, new_speed, out=new_speed)
                new_speed *= sub_dt
                new_speed += speed
                clamp_array(new_speed, 0.0, vcfg.max_speed, out=new_speed)
                # -speed / wheelbase * tan(wheel angle): dividing by
                # -wheelbase rounds as negating the speed first does.
                np.divide(new_speed, neg_wheelbase, out=yaw_rate)
                yaw_rate *= tan_wheel
                # Moving rows hold the yaw rate under the lateral limit;
                # the limit of a row standing still is never read.
                np.greater(new_speed, _MOVING_SPEED, out=moving)
                np.divide(max_lateral, new_speed, out=limit, where=moving)
                clamp_array(
                    yaw_rate, np.negative(limit, out=low), limit,
                    out=yaw_rate, where=moving,
                )
                # The yaw moves by yaw_rate * dt, its midpoint by half of
                # that: halving is exact, so 0.5 * (yaw_rate * dt) rounds
                # as (0.5 * yaw_rate) * dt does.
                yaw_rate *= sub_dt
                np.multiply(_HALF, yaw_rate, out=mid_yaw)
                mid_yaw += yaw
                # x and y move by mid_speed * (cos, sin)(mid_yaw) * dt,
                # mid_speed = 0.5 * (speed + new_speed), as one op.
                speed += new_speed
                speed *= _HALF
                np.cos(mid_yaw, out=move_x)
                np.sin(mid_yaw, out=move_y)
                move *= speed
                move *= sub_dt
                position_yaw += self._step
                _normalize_angles(yaw, out=yaw)
                np.copyto(speed, new_speed)

            # Frozen rows keep their old state verbatim (no mask while
            # every row is live).
            commit = True if count_nonzero(live) == self.n else live
            np.copyto(self.pose, pose, where=commit)
            np.copyto(self.actuation, command, where=commit)
            self.step_count += live
            np.add(self.time, cfg.dt, out=self.time, where=commit)

            kind, other = self._detect_collisions(live)
            # The committed state's geometry, which the collision test read.
            geometry = self._geometry
            # KIND_NONE is 0: the rows that collided are the nonzero ones.
            if count_nonzero(kind):
                registry = get_registry()
                for i in np.flatnonzero(kind):
                    self.collision_kind[i] = kind[i]
                    self.collision_other[i] = other[i]
                    self.collision_step[i] = self.step_count[i]
                    self.collision_time[i] = self.time[i]
                    registry.counter(
                        "collisions_total",
                        kind=_KIND_TO_ENUM[int(kind[i])].name,
                    ).inc()
                self.done |= kind != KIND_NONE

            ego_s, npc_s = geometry.ego[0], geometry.npcs[0]
            self._passed |= (ego_s > npc_s + vcfg.length) & live
            # Frozen rows are done already: the ORs need no live mask.
            self.done |= self.step_count >= cfg.max_steps
            self.done |= ego_s >= self.road.length - vcfg.length
        return BatchTickResult(
            step=self.step_count.copy(),
            time=self.time.copy(),
            collision_kind=kind,
            done=self.done.copy(),
            applied_steer=p_steer,
        )

    # -- NPC drivers -------------------------------------------------------

    def _npc_controls(self, command: np.ndarray) -> None:
        """Vectorized lane-keeping feedback for every NPC, written into
        ``command`` (steer and thrust, ``[2, M, N]``) before the drivers'
        limit of ±1, which the tick applies with the mechanical one."""
        _, d, lane_yaw = self.geometry().npcs
        steer, thrust = command[0], command[1]
        g = self.gains
        np.subtract(d, self._npc_lane_offset, out=steer)
        steer *= g.cross_track
        heading_error = _normalize_angles(self.pose[2, 1:] - lane_yaw)
        heading_error *= g.heading
        steer += heading_error
        np.subtract(self._target_speed, self.pose[3, 1:], out=thrust)
        thrust *= g.speed

    # -- collision detection -----------------------------------------------

    def _corners(
        self, x: np.ndarray, y: np.ndarray, cos: np.ndarray, sin: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """World-frame footprint corners of the boxes centred at ``(x, y)``
        with headings ``(cos, sin)`` (one shape ``S``): their x and y,
        ``[4, *S]`` each, corners first."""
        lx, ly = self._corner_local.T.reshape(2, 4, *(1,) * np.ndim(x))
        return lx * cos - ly * sin + x, lx * sin + ly * cos + y

    def _overlapping(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Separating-axis test of the ego against NPC ``cols`` in episodes
        ``rows``. ``[K]`` bool."""
        # Both boxes of each pair, the ego then the NPC: [2, K] each.
        boxes = np.stack((np.zeros_like(cols), 1 + cols))
        x, y, yaw = self.pose[:3, boxes, rows]
        corner_x, corner_y = self._corners(x, y, np.cos(yaw), np.sin(yaw))
        # SAT axes: ego's two face normals + the NPC's two, mirroring
        # OrientedBox.axes (heading_vector(yaw) and yaw + pi/2), [4, K].
        a = yaw[_AXIS_BOXES] + _AXIS_OFFSETS
        axis_x, axis_y = np.cos(a), np.sin(a)
        # The corners' projections on them, x * axis_x + y * axis_y,
        # [corner, box, axis, K]; each box's extent, [box, axis, K].
        proj = corner_x[:, :, None] * axis_x + corner_y[:, :, None] * axis_y
        high, low = np.maximum.reduce(proj), np.minimum.reduce(proj)
        separated = (high[0] < low[1]) | (high[1] < low[0])
        return ~np.logical_or.reduce(separated)

    def _classify_contacts(
        self,
        geometry: BatchGeometry,
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
        dx, dy = (a[cols, rows] for a in geometry.npc_offsets)
        bearing = np.abs(
            _normalize_angles(np.arctan2(dy, dx) - self.pose[2, 0, rows])
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
        separating-axis test, and only egos within reach of a barrier the
        barrier test; the others cannot touch. A finished episode's
        collision is already recorded, so its row is not tested.
        """
        kind = np.zeros(self.n, dtype=np.int8)
        other = self._no_contact.copy()
        geometry = self.geometry()
        reach2 = self._contact_reach * self._contact_reach
        close = geometry.npc_distance2 <= reach2
        close &= live
        if count_nonzero(close):
            # Pairs in (row, NPC) order, as the contacts are classed.
            rows, cols = close.T.nonzero()
            hit = self._overlapping(rows, cols)
            if count_nonzero(hit):
                self._classify_contacts(
                    geometry, kind, other, rows[hit], cols[hit]
                )
        # Barrier: any ego footprint corner beyond the roadside barriers,
        # only where no vehicle collision was found.
        near = np.abs(geometry.ego[1]) >= self._barrier_clear
        if count_nonzero(near):
            near &= live
            near &= kind == KIND_NONE
            rows = np.flatnonzero(near)
            cos, sin = geometry.ego_heading
            ego_x, ego_y = self._corners(
                *self.pose[:2, 0, rows], cos[rows], sin[rows]
            )
            d = self.road.lateral_batch(ego_y, lambda: ego_x)
            off = np.logical_or.reduce(np.abs(d) >= self.road.barrier_offset)
            kind[rows[off]] = KIND_BARRIER
        return kind, other

    # -- queries -----------------------------------------------------------

    @property
    def all_done(self) -> bool:
        return count_nonzero(self.done) == self.n

    def ego_frenet(
        self, position: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ego ``(s, d, tangent_yaw)`` arrays on the road reference line,
        of the ego positions ``position`` (``[2, N]``, the x and y planes;
        default: the egos' rows of :attr:`pose`).
        """
        if position is None:
            position = self.pose[:2, 0]
        return self.road.frenet_batch(position.T)

    # -- geometry of the current state ---------------------------------------

    def pose_key(self) -> bytes:
        """The ``x, y, yaw`` and ``speed`` of every actor of every episode,
        as a key: equal keys mean an unchanged state, whatever changed it
        (a tick or an in-place write to the state arrays). One copy of the
        pose buffer."""
        return self.pose.tobytes()

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
        return self._passed.sum(axis=0)

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
        jitter = np.zeros((2, m, n))
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
        ).reshape(n, m, 2).T

    lanes = [config.npc_lanes[i % len(config.npc_lanes)] for i in range(m)]
    ego_start_s = 10.0
    s = ego_start_s + config.first_npc_gap + np.arange(m) * config.npc_spacing
    s = clamp_array(s[:, None] + jitter[0], 0.0, road.length - 10.0)
    npc_speed = np.maximum(config.npc_speed + jitter[1], 0.0)
    offsets = np.array([road.lane_offset(lane) for lane in lanes])
    position, npc_yaw = road.to_world_batch(
        s.ravel(), np.broadcast_to(offsets[:, None], s.shape).ravel()
    )

    # Actor-major planes, [1 + M, N] each.
    ego_position, ego_yaw = road.lane_center(config.ego_lane, ego_start_s)
    x, y, yaw, speed = np.empty((4, 1 + m, n))
    x[0], y[0] = ego_position
    yaw[0] = ego_yaw
    speed[0] = config.ego_speed
    x[1:] = position[0].reshape(m, n)
    y[1:] = position[1].reshape(m, n)
    yaw[1:] = npc_yaw.reshape(m, n)
    speed[1:] = npc_speed
    return BatchWorld(
        road=road,
        config=config,
        x=x.T,
        y=y.T,
        yaw=yaw.T,
        speed=speed.T,
        npc_lane=np.broadcast_to(lanes, (n, m)),
        npc_target_speed=npc_speed.T,
    )
