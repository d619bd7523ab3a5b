"""Behavioural layer and local reference-path planner.

This module implements the decision-making hierarchy of the modular
pipeline (Section III-B): a behavioural layer that decides when to follow,
overtake, or change lanes (tuned to the paper's *aggressive* freeway mode),
and a local planner that turns those decisions into a smooth reference path
``d_ref(s)`` plus a target speed.

The same planner also serves as the *privileged agent* of the end-to-end
reward shaping (Section III-C) and as the predetermined path against which
trajectory deviation is measured in Figs. 5 and 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.sim.road import Road
from repro.sim.world import World, WorldGeometry
from repro.utils.geometry import clamp, clamp_array, count_nonzero


@dataclass(frozen=True)
class BehaviorConfig:
    """Tuning of the aggressive freeway behaviour (Section III-B)."""

    #: Cruise reference speed, m/s (paper: 16).
    target_speed: float = 16.0
    #: Distance ahead at which a slower leader triggers an overtake attempt.
    overtake_trigger: float = 26.0
    #: Bumper-to-bumper gap the ACC fallback tries to keep.
    min_gap: float = 7.0
    #: Required clear distance ahead in the target lane for a lane change.
    change_front_gap: float = 13.0
    #: Required clear distance behind in the target lane for a lane change.
    change_rear_gap: float = 8.0
    #: Nominal lane-change duration, seconds.
    change_time: float = 1.6
    #: Minimum lane-change length, meters.
    min_change_distance: float = 16.0
    #: ACC proportional gain on (gap - min_gap).
    acc_gain: float = 0.6


@dataclass(frozen=True)
class LaneTransition:
    """A smooth lateral blend between two lane offsets over ``[s0, s1]``."""

    s0: float
    d0: float
    s1: float
    d1: float

    def offset(self, s: float) -> float:
        """Cosine-blended lateral offset at arc-length ``s``."""
        if s <= self.s0:
            return self.d0
        if s >= self.s1:
            return self.d1
        phase = (s - self.s0) / (self.s1 - self.s0)
        return self.d0 + (self.d1 - self.d0) * 0.5 * (1.0 - math.cos(math.pi * phase))


@dataclass(frozen=True)
class Plan:
    """One tick's output of the behavioural layer."""

    target_lane: int
    target_speed: float
    lane_offset: float
    transition: LaneTransition | None

    @property
    def changing(self) -> bool:
        return self.transition is not None

    def reference_offset(self, s: float) -> float:
        """The reference path's lateral offset ``d_ref`` at arc-length ``s``."""
        if self.transition is not None:
            return self.transition.offset(s)
        return self.lane_offset


class BehaviorPlanner:
    """Stateful behaviour + local planning for the overtaking scenario.

    Call :meth:`reset` at episode start and :meth:`update` once per control
    tick. The planner only *observes* the world; it never actuates, so an
    independent instance can shadow any victim agent to provide the
    privileged reference path for rewards and deviation metrics.
    """

    def __init__(self, road: Road, config: BehaviorConfig | None = None) -> None:
        self.road = road
        self.config = config or BehaviorConfig()
        self._target_lane = 0
        self._transition: LaneTransition | None = None

    @property
    def target_lane(self) -> int:
        return self._target_lane

    def reset(self, world: World) -> None:
        """Initialize the plan to the ego's spawn lane."""
        _, d, _ = world.geometry().ego
        lane = world.road.lane_at(d)
        self._target_lane = lane if lane is not None else 0
        self._transition = None

    def update(self, world: World) -> Plan:
        """Advance the behavioural state machine and return this tick's plan."""
        cfg = self.config
        geometry = world.geometry()
        ego_s = geometry.ego[0]
        if self._transition is not None and ego_s >= self._transition.s1:
            self._transition = None

        target_speed = cfg.target_speed
        if self._transition is None:
            leader = self._leader(world, geometry, self._target_lane)
            if leader is not None:
                gap = leader[0] - ego_s
                if gap < cfg.overtake_trigger:
                    started = self._try_lane_change(world, geometry)
                    if not started:
                        target_speed = self._acc_speed(leader, ego_s)
        else:
            leader = self._leader(world, geometry, self._target_lane)
            if leader is not None and leader[0] - ego_s < cfg.overtake_trigger:
                target_speed = self._acc_speed(leader, ego_s)

        return Plan(
            target_lane=self._target_lane,
            target_speed=target_speed,
            lane_offset=self.road.lane_offset(self._target_lane),
            transition=self._transition,
        )

    # -- internals ---------------------------------------------------------

    def _leader(
        self, world: World, geometry: WorldGeometry, lane: int
    ) -> tuple[float, float] | None:
        """Closest NPC ahead of the ego in ``lane``: ``(s, speed)`` or None."""
        ego_s = geometry.ego[0]
        best: tuple[float, float] | None = None
        for npc, (s, d, _) in zip(world.npcs, geometry.npcs):
            npc_lane = world.road.lane_at(d)
            if npc_lane != lane or s <= ego_s:
                continue
            if best is None or s < best[0]:
                best = (s, npc.vehicle.state.speed)
        return best

    def _lane_is_free(
        self, world: World, geometry: WorldGeometry, lane: int
    ) -> bool:
        cfg = self.config
        ego_s = geometry.ego[0]
        for s, d, _ in geometry.npcs:
            if world.road.lane_at(d) != lane:
                continue
            if -cfg.change_rear_gap <= s - ego_s <= cfg.change_front_gap:
                return False
        return True

    def _try_lane_change(self, world: World, geometry: WorldGeometry) -> bool:
        """Attempt an overtake; aggressive mode may use any adjacent lane."""
        cfg = self.config
        ego_s, ego_d, _ = geometry.ego
        candidates = [self._target_lane + 1, self._target_lane - 1]
        for lane in candidates:
            if not 0 <= lane < self.road.n_lanes:
                continue
            if not self._lane_is_free(world, geometry, lane):
                continue
            speed = max(world.ego.state.speed, 4.0)
            distance = max(speed * cfg.change_time, cfg.min_change_distance)
            self._transition = LaneTransition(
                s0=ego_s,
                d0=ego_d,
                s1=ego_s + distance,
                d1=self.road.lane_offset(lane),
            )
            self._target_lane = lane
            return True
        return False

    def _acc_speed(self, leader: tuple[float, float], ego_s: float) -> float:
        """Adaptive-cruise fallback speed when boxed in behind a leader."""
        cfg = self.config
        gap = leader[0] - ego_s
        leader_speed = leader[1]
        speed = leader_speed + cfg.acc_gain * (gap - cfg.min_gap)
        return clamp(speed, 0.0, cfg.target_speed)


@dataclass(frozen=True)
class BatchPlan:
    """One tick's plans for every episode of a batch (SoA mirror of
    :class:`Plan`): per-episode target lane/speed arrays plus the active
    lane-change transitions."""

    target_lane: np.ndarray
    target_speed: np.ndarray
    lane_offset: np.ndarray
    #: Cosine-blend transition parameters; rows where ``changing`` is
    #: False hold stale values and are ignored.
    changing: np.ndarray
    s0: np.ndarray
    d0: np.ndarray
    s1: np.ndarray
    d1: np.ndarray

    @cached_property
    def _blend(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Each row's blend span (1 where not changing), half rise and
        steady flag; None while no row changes lanes."""
        if not count_nonzero(self.changing):
            return None
        span = np.where(self.changing, self.s1 - self.s0, 1.0)
        return span, (self.d1 - self.d0) * 0.5, ~self.changing

    def reference_offset(self, s: np.ndarray) -> np.ndarray:
        """Vectorized ``d_ref(s)`` per episode, same blend as scalar:
        ``s`` is ``[N]``, or ``[K, N]`` for ``K`` points per episode."""
        if self._blend is None:
            offset = np.empty(np.shape(s))
            np.copyto(offset, self.lane_offset)
            return offset
        span, half_rise, steady = self._blend
        phase = clamp_array((s - self.s0) / span, 0.0, 1.0)
        offset = self.d0 + half_rise * (1.0 - np.cos(math.pi * phase))
        np.copyto(offset, self.d0, where=s <= self.s0)
        np.copyto(offset, self.d1, where=s >= self.s1)
        np.copyto(offset, self.lane_offset, where=steady)
        return offset


class BatchBehaviorPlanner:
    """SoA twin of :class:`BehaviorPlanner` for lockstep batch evaluation.

    Runs the identical state machine per episode row — clear finished
    transitions, find the leader in the *current* target lane, attempt a
    lane change (left-adjacent candidate first), fall back to ACC — but as
    whole-batch array expressions. NPC lane membership is re-derived from
    positions every tick (``lane_at``), exactly like the scalar planner.
    """

    def __init__(self, road: Road, config: BehaviorConfig | None = None) -> None:
        self.road = road
        self.config = config or BehaviorConfig()
        self._target_lane: np.ndarray | None = None
        self._changing: np.ndarray | None = None
        self._s0 = self._d0 = self._s1 = self._d1 = None

    def reset(self, batch) -> None:
        """Initialize every episode's plan to its ego's spawn lane."""
        _, d, _ = batch.geometry().ego
        lane = self._lane_at(d)
        self._target_lane = np.where(lane >= 0, lane, 0)
        self._changing = np.zeros(batch.n, dtype=bool)
        self._s0 = np.zeros(batch.n)
        self._d0 = np.zeros(batch.n)
        self._s1 = np.zeros(batch.n)
        self._d1 = np.zeros(batch.n)

    def _lane_at(self, d: np.ndarray) -> np.ndarray:
        """Vectorized ``Road.lane_at``: lane index, or -1 off-road."""
        road = self.road
        half = road.config.n_lanes * road.config.lane_width / 2.0
        lane = np.minimum(
            ((d + half) / road.config.lane_width).astype(int),
            road.config.n_lanes - 1,
        )
        np.copyto(lane, -1, where=np.abs(d) > half)
        return lane

    def _lane_offsets(self, lane: np.ndarray) -> np.ndarray:
        centre = (self.road.config.n_lanes - 1) / 2.0
        return (lane - centre) * self.road.config.lane_width

    def update(self, batch) -> BatchPlan:
        """Advance every row's state machine; returns this tick's plans."""
        if self._target_lane is None:
            raise RuntimeError("call reset(batch) before update(batch)")
        cfg = self.config
        n = batch.n
        geometry = batch.geometry()
        ego_s, ego_d, _ = geometry.ego

        # 1. Clear transitions whose blend interval the ego has passed.
        # The state arrays are rebound, never written in place, so each
        # plan holds this update's arrays without copying them.
        changing = self._changing & (ego_s < self._s1)

        # 2. Leader search in the current target lane (positions decide
        #    lane membership, matching the scalar planner).
        npc_s, npc_d, _ = geometry.npcs
        npc_lane = self._lane_at(npc_d)

        ahead = (npc_lane == self._target_lane) & (npc_s > ego_s)
        masked_s = np.where(ahead, npc_s, np.inf)
        # Each row's leader, as a flat index into the [M, N] planes.
        leader = masked_s.argmin(axis=0)
        leader *= n
        leader += batch.rows
        # A row without a leader reads an infinite (or NaN) gap: not near.
        gap = masked_s.take(leader)
        gap -= ego_s
        near = gap < cfg.overtake_trigger

        # 3. Lane-change attempt for non-transitioning rows with a close
        #    leader; candidate order matches the scalar planner (+1 first).
        #    Most ticks no row attempts one.
        attempt = ~changing & near
        target_lane, acc = self._target_lane, near
        if count_nonzero(attempt):
            started = np.zeros(n, dtype=bool)
            rel = npc_s - ego_s
            for delta in (1, -1):
                candidate = self._target_lane + delta
                valid = (
                    attempt
                    & ~started
                    & (candidate >= 0)
                    & (candidate < self.road.n_lanes)
                )
                if not count_nonzero(valid):
                    continue
                in_cand = npc_lane == candidate
                blocking = (
                    in_cand
                    & (rel >= -cfg.change_rear_gap)
                    & (rel <= cfg.change_front_gap)
                ).any(axis=0)
                go = valid & ~blocking
                if count_nonzero(go):
                    speed = np.maximum(batch.pose[3, 0], 4.0)
                    distance = np.maximum(
                        speed * cfg.change_time, cfg.min_change_distance
                    )
                    self._s0 = np.where(go, ego_s, self._s0)
                    self._d0 = np.where(go, ego_d, self._d0)
                    self._s1 = np.where(go, ego_s + distance, self._s1)
                    self._d1 = np.where(
                        go, self._lane_offsets(candidate), self._d1
                    )
                    target_lane = np.where(go, candidate, target_lane)
                    started |= go
            changing |= started
            acc = near & ~started
        self._changing, self._target_lane = changing, target_lane

        # 4. ACC fallback: boxed-in rows (no change started) and
        #    transitioning rows with a close leader track the leader.
        target_speed = np.full(n, cfg.target_speed)
        if count_nonzero(acc):
            acc_speed = clamp_array(
                batch.pose[3, 1:].take(leader)
                + cfg.acc_gain * (gap - cfg.min_gap),
                0.0,
                cfg.target_speed,
            )
            target_speed[acc] = acc_speed[acc]

        return BatchPlan(
            target_lane=self._target_lane,
            target_speed=target_speed,
            lane_offset=self._lane_offsets(self._target_lane),
            changing=self._changing,
            s0=self._s0,
            d0=self._d0,
            s1=self._s1,
            d1=self._d1,
        )


class GlobalRoutePlanner:
    """Route planning over the lane-graph (the hierarchy's top layer).

    On a freeway the optimal route is simply "continue to the end of the
    road", but the planner is a real Dijkstra search over the waypoint
    graph so non-trivial maps route correctly.
    """

    def __init__(self, road: Road) -> None:
        self.road = road

    def plan(self, world: World, goal_lane: int | None = None) -> list:
        """Waypoints from the ego's position to the end of the road."""
        ego_s, ego_d, _ = world.geometry().ego
        lane = world.road.lane_at(ego_d)
        if lane is None:
            lane = 0
        start = world.road.nearest_waypoint(lane, ego_s)
        target_lane = goal_lane if goal_lane is not None else lane
        goal = world.road.waypoints(target_lane)[-1]
        return self.road.shortest_route(
            (start.lane, start.index), (goal.lane, goal.index)
        )
