"""Freeway road geometry: lanes, Frenet frames, and the waypoint graph.

The road is defined by a reference centerline (straight or gently curved)
with ``n_lanes`` parallel lanes. Positions convert between the world frame
and Frenet coordinates ``(s, d)`` — arc-length along the reference line and
signed lateral offset (positive left). A directed waypoint graph over all
lanes supports route planning with lane-change edges; the waypoints and
the graph are built on first use, and only then is networkx imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.sim.config import RoadConfig
from repro.utils.geometry import (
    clamp_array,
    interpolate_polyline,
    polyline_arclength,
    project_to_polyline,
)

if TYPE_CHECKING:
    import networkx as nx

#: The normal ``(-sin 0, cos 0)`` of an axis-aligned reference line, as
#: a ``[2, 1]`` column of x and y.
_AXIS_NORMAL = np.array([[-0.0], [1.0]])
_AXIS_NORMAL.flags.writeable = False


@dataclass(frozen=True)
class Waypoint:
    """A discrete point on a lane used for planning and reward shaping."""

    lane: int
    index: int
    s: float
    position: tuple[float, float]
    yaw: float


class Road:
    """A multilane freeway with Frenet conversion and a routing graph."""

    def __init__(self, config: RoadConfig, centerline: np.ndarray) -> None:
        """Build a road from an explicit reference ``centerline`` polyline.

        Prefer the :meth:`straight` and :meth:`curved` constructors.
        """
        if centerline.ndim != 2 or centerline.shape[1] != 2:
            raise ValueError("centerline must have shape (n, 2)")
        if len(centerline) < 2:
            raise ValueError("centerline needs at least two points")
        self.config = config
        # Read-only, like the waypoints and the graph: one road may be
        # shared by every world of its config (see :func:`default_road`).
        self.centerline = np.array(centerline, dtype=float)
        self.arclength = polyline_arclength(self.centerline)
        self.centerline.flags.writeable = False
        self.arclength.flags.writeable = False
        # The centerline's x and y planes, [2, S], for the batch lookups.
        self._line = np.ascontiguousarray(self.centerline.T)
        self._line.flags.writeable = False
        self.length = float(self.arclength[-1])
        # Fast path: an axis-aligned straight road (the default scenario)
        # converts to Frenet in O(1) instead of projecting onto the polyline.
        self._axis_aligned = bool(
            np.all(self.centerline[:, 1] == self.centerline[0, 1])
            and np.all(np.diff(self.centerline[:, 0]) > 0)
        )
        self._base_x = float(self.centerline[0, 0])
        self._base_y = float(self.centerline[0, 1])
        # to_world_batch's segment table, one column per segment: start
        # arc length, span (floored, it divides), start and end points.
        span = np.maximum(np.diff(self.arclength), 1e-12)
        self._segments = np.vstack(
            (self.arclength[:-1], span, self._line[:, :-1], self._line[:, 1:])
        )
        self._segments.flags.writeable = False
        self._knots = self.arclength[1:-1]

    # -- constructors ------------------------------------------------------

    @classmethod
    def straight(cls, config: RoadConfig | None = None) -> "Road":
        """A straight road along +x, the default Town04-Road23-like freeway."""
        config = config or RoadConfig()
        n = max(int(config.length / 2.0) + 1, 2)
        xs = np.linspace(0.0, config.length, n)
        centerline = np.stack([xs, np.zeros_like(xs)], axis=1)
        return cls(config, centerline)

    @classmethod
    def curved(
        cls,
        config: RoadConfig | None = None,
        amplitude: float = 6.0,
        wavelength: float = 220.0,
    ) -> "Road":
        """A gently S-curved freeway (sinusoidal lateral profile).

        Args:
            amplitude: peak lateral excursion of the centerline, meters.
            wavelength: spatial period of the curve, meters.
        """
        config = config or RoadConfig()
        n = max(int(config.length / 1.0) + 1, 2)
        xs = np.linspace(0.0, config.length, n)
        ys = amplitude * np.sin(2.0 * math.pi * xs / wavelength)
        centerline = np.stack([xs, ys], axis=1)
        return cls(config, centerline)

    @property
    def axis_aligned(self) -> bool:
        """Whether the reference line runs straight along +x, so a point's
        lateral offset is its y less the line's."""
        return self._axis_aligned

    # -- frenet ------------------------------------------------------------

    def to_frenet(self, position: np.ndarray) -> tuple[float, float, float]:
        """World position -> ``(s, d, tangent_yaw)`` on the reference line."""
        if self._axis_aligned:
            s = min(max(float(position[0]) - self._base_x, 0.0), self.length)
            return s, float(position[1]) - self._base_y, 0.0
        return project_to_polyline(position, self.centerline, self.arclength)

    def frenet_batch(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`to_frenet`: ``(s, d, tangent_yaw)`` arrays of
        the ``[..., 2]`` points, each of shape ``points.shape[:-1]``.

        Mirrors the scalar conversion element-for-element (the axis-aligned
        fast path is exact; the generic path picks the same nearest segment
        and evaluates the same projection formulas). Used by the batch
        engine, where one call replaces N per-episode conversions, and by
        the camera rasterizer, where per-point :meth:`to_frenet` calls
        would dominate the frame time.
        """
        pts = np.asarray(points, dtype=float)
        if self._axis_aligned:
            s = clamp_array(pts[..., 0] - self._base_x, 0.0, self.length)
            return s, pts[..., 1] - self._base_y, np.zeros(pts.shape[:-1])
        if pts.ndim != 2:
            return tuple(
                a.reshape(pts.shape[:-1])
                for a in self.frenet_batch(pts.reshape(-1, 2))
            )
        starts = self.centerline[:-1]
        segs = self.centerline[1:] - starts
        seg_len2 = np.maximum(np.einsum("ij,ij->i", segs, segs), 1e-12)
        rel = pts[:, None, :] - starts[None, :, :]
        t = np.einsum("nmj,mj->nm", rel, segs) / seg_len2[None, :]
        t = clamp_array(t, 0.0, 1.0)
        foot = starts[None, :, :] + t[..., None] * segs[None, :, :]
        diff = pts[:, None, :] - foot
        dist2 = np.einsum("nmj,nmj->nm", diff, diff)
        idx = np.argmin(dist2, axis=1)
        rows = np.arange(len(pts))
        seg_len = np.sqrt(seg_len2)
        tangents = segs / seg_len[:, None]
        chosen_t = t[rows, idx]
        s = self.arclength[idx] + chosen_t * seg_len[idx]
        normals = np.stack([-tangents[:, 1], tangents[:, 0]], axis=1)
        offs = diff[rows, idx]
        d = np.einsum("nj,nj->n", offs, normals[idx])
        yaw = np.arctan2(tangents[idx, 1], tangents[idx, 0])
        return s, d, yaw

    def lateral_batch(
        self, y: np.ndarray, x: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """The :meth:`frenet_batch` lateral offset ``d`` of the points
        ``(x(), y)``, same shape as ``y``.

        ``x`` is called only on a road whose lateral offset depends on it:
        on an axis-aligned road ``d`` is ``y`` less the line's ``y``, so a
        caller that would build ``x`` just for this skips it. On such a
        road whose line lies on ``y = +0.0`` (the default road) ``d`` is
        ``y`` itself, not a copy: ``y - 0.0`` has ``y``'s bits for every
        float, ``-0.0`` and NaN included. Read the result; do not write
        to it.
        """
        if self._axis_aligned:
            if self._base_y == 0.0 and math.copysign(1.0, self._base_y) > 0:
                return y
            return y - self._base_y
        points = np.stack([np.ravel(x()), np.ravel(y)], axis=1)
        return self.frenet_batch(points)[1].reshape(np.shape(y))

    def to_world(self, s: float, d: float) -> tuple[np.ndarray, float]:
        """Frenet ``(s, d)`` -> world position and tangent heading."""
        base, yaw = interpolate_polyline(s, self.centerline, self.arclength)
        normal = np.array([-math.sin(yaw), math.cos(yaw)])
        return base + d * normal, yaw

    def to_world_batch(
        self, s: np.ndarray, d: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`to_world`: positions as ``[2, n]`` x and y
        planes, and headings ``(n,)``.

        Evaluates the same interpolation formula as
        :func:`~repro.utils.geometry.interpolate_polyline` element-wise
        (same segment choice via ``searchsorted``, same lerp) and takes
        each segment's heading and normal from the scalar conversion's
        ``math`` calls, so every road reproduces the scalar result bit for
        bit. An axis-aligned road, like :meth:`frenet_batch`, skips the
        lookup: its heading is 0 and its normal ``(-0.0, 1.0)``.
        """
        s = np.asarray(s, dtype=float)
        d = np.asarray(d, dtype=float)
        s_c = clamp_array(s, 0.0, self.length)
        # searchsorted(arclength, s_c, "right") - 1 clamped to a segment.
        idx = self._knots.searchsorted(s_c, side="right")
        (start, span), low, high = self._segments.take(idx, axis=1).reshape(
            3, 2, *idx.shape
        )
        t = np.subtract(s_c, start)
        t /= span
        base = low * (1.0 - t)
        base += high * t
        if self._axis_aligned:
            return base + d * _AXIS_NORMAL, np.zeros(len(t))
        yaw, normal = self._segment_frames
        return base + d * normal.take(idx, axis=1), yaw.take(idx)

    @cached_property
    def _segment_frames(self) -> tuple[np.ndarray, np.ndarray]:
        """Each centerline segment's heading and left normal, ``[S]`` and
        ``[2, S]`` (x and y planes): the ``math.atan2``, ``math.sin`` and
        ``math.cos`` values :meth:`to_world` works out, which a vector
        kernel may round otherwise."""
        yaw = np.array(
            [
                math.atan2(dy, dx)
                for dx, dy in np.diff(self.centerline, axis=0).tolist()
            ]
        )
        normal = np.array(
            [
                [-math.sin(a) for a in yaw.tolist()],
                [math.cos(a) for a in yaw.tolist()],
            ]
        )
        yaw.flags.writeable = normal.flags.writeable = False
        return yaw, normal

    # -- lanes -------------------------------------------------------------

    @property
    def n_lanes(self) -> int:
        return self.config.n_lanes

    def lane_offset(self, lane: int) -> float:
        """Signed lateral offset of a lane center from the reference line."""
        self._check_lane(lane)
        return (lane - (self.config.n_lanes - 1) / 2.0) * self.config.lane_width

    def lane_center(self, lane: int, s: float) -> tuple[np.ndarray, float]:
        """World position and heading of ``lane``'s center at arc-length ``s``."""
        return self.to_world(s, self.lane_offset(lane))

    def lane_at(self, d: float) -> int | None:
        """The lane index containing lateral offset ``d``, or ``None`` off-road."""
        half = self.config.n_lanes * self.config.lane_width / 2.0
        if abs(d) > half:
            return None
        lane = int((d + half) / self.config.lane_width)
        return min(lane, self.config.n_lanes - 1)

    @property
    def half_width(self) -> float:
        """Distance from the reference line to either drivable edge."""
        return self.config.n_lanes * self.config.lane_width / 2.0

    @property
    def barrier_offset(self) -> float:
        """Distance from the reference line to the barriers."""
        return self.half_width + self.config.shoulder

    def off_road(self, d: float) -> bool:
        """Whether lateral offset ``d`` is beyond the barriers."""
        return abs(d) >= self.barrier_offset

    def lateral_deviation(self, d: float, lane: int) -> float:
        """Signed offset of ``d`` from the center of ``lane``."""
        return d - self.lane_offset(lane)

    # -- waypoints and routing ----------------------------------------------

    @cached_property
    def _waypoints(self) -> tuple[tuple[Waypoint, ...], ...]:
        spacing = self.config.waypoint_spacing
        count = int(self.length / spacing) + 1
        lanes: list[tuple[Waypoint, ...]] = []
        for lane in range(self.config.n_lanes):
            points: list[Waypoint] = []
            for index in range(count):
                s = min(index * spacing, self.length)
                position, yaw = self.lane_center(lane, s)
                points.append(
                    Waypoint(
                        lane=lane,
                        index=index,
                        s=s,
                        position=(float(position[0]), float(position[1])),
                        yaw=yaw,
                    )
                )
            lanes.append(tuple(points))
        return tuple(lanes)

    @cached_property
    def graph(self) -> nx.DiGraph:
        """Directed graph: forward edges along lanes, diagonal lane changes."""
        import networkx as nx

        graph = nx.DiGraph()
        lane_change_span = max(
            2, int(math.ceil(8.0 / self.config.waypoint_spacing))
        )
        for lane_points in self._waypoints:
            for waypoint in lane_points:
                graph.add_node((waypoint.lane, waypoint.index))
        spacing = self.config.waypoint_spacing
        for lane, lane_points in enumerate(self._waypoints):
            for waypoint in lane_points:
                nxt = (lane, waypoint.index + 1)
                if graph.has_node(nxt):
                    graph.add_edge((lane, waypoint.index), nxt, weight=spacing)
                for other in (lane - 1, lane + 1):
                    target = (other, waypoint.index + lane_change_span)
                    if graph.has_node(target):
                        cost = math.hypot(
                            lane_change_span * spacing, self.config.lane_width
                        )
                        graph.add_edge(
                            (lane, waypoint.index),
                            target,
                            weight=cost * 1.05,
                        )
        return nx.freeze(graph)

    def waypoints(self, lane: int) -> tuple[Waypoint, ...]:
        """All waypoints of ``lane`` ordered by arc-length."""
        self._check_lane(lane)
        return self._waypoints[lane]

    def waypoint(self, lane: int, index: int) -> Waypoint:
        return self._waypoints[lane][index]

    def nearest_waypoint(self, lane: int, s: float) -> Waypoint:
        """The waypoint of ``lane`` closest to arc-length ``s``."""
        self._check_lane(lane)
        index = int(round(s / self.config.waypoint_spacing))
        index = min(max(index, 0), len(self._waypoints[lane]) - 1)
        return self._waypoints[lane][index]

    def shortest_route(
        self, start: tuple[int, int], goal: tuple[int, int]
    ) -> list[Waypoint]:
        """Dijkstra route between waypoint graph nodes ``(lane, index)``."""
        import networkx as nx

        nodes = nx.shortest_path(self.graph, start, goal, weight="weight")
        return [self.waypoint(lane, index) for lane, index in nodes]

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.config.n_lanes:
            raise ValueError(
                f"lane {lane} out of range [0, {self.config.n_lanes})"
            )


def default_road(config: RoadConfig | None = None) -> Road:
    """The shared straight freeway of ``config`` (the paper's by default).

    Built once per distinct config and shared by every world built from
    it; a road is immutable, so sharing is safe. ``default_road()`` and
    ``default_road(RoadConfig())`` return the same road.
    """
    return _straight_road(config or RoadConfig())


@lru_cache(maxsize=8)
def _straight_road(config: RoadConfig) -> Road:
    return Road.straight(config)
