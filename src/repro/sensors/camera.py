"""Semantic segmentation cameras.

Two renderers substitute for the CARLA semantic segmentation camera:

* :class:`BevCamera` — a fast ego-centric bird's-eye grid used as the
  policy observation (our numpy MLP substrate replaces the paper's GPU
  CNN over 84x420 panoramas, so the default grid is compact).
* :class:`PanoramaCamera` — a range-azimuth panorama mimicking the paper's
  300-degree roof-camera view at configurable resolution (84x420 capable);
  used for visualization and fidelity tests.

Both label each pixel with a semantic class: off-road, road surface, lane
marking, or vehicle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.sensors.base import Sensor
from repro.sim.batch import BatchWorld
from repro.sim.road import Road
from repro.sim.world import World
from repro.telemetry.spans import timed
from repro.utils.geometry import clamp_array, reach


class SemanticClass(enum.IntEnum):
    """Pixel labels of the segmentation output."""

    OFF_ROAD = 0
    ROAD = 1
    LANE_MARKING = 2
    VEHICLE = 3


#: Scale for normalizing class codes into [0, 1] observations.
_MAX_CLASS = float(max(SemanticClass))
#: Half-width of a painted lane boundary, meters.
_MARKING_HALF_WIDTH = 0.2


def _classify_road(road: Road, d: np.ndarray) -> np.ndarray:
    """Off-road / road / lane-marking class per lateral offset ``d``
    (any shape), ``uint8``.

    A point is marking when it lies within the marking half-width of the
    lane boundary nearest to it, ``-half_width + k * lane_width`` with
    ``k`` its offset rounded to whole lanes. No other boundary can be that
    close while lanes are wider than two marking half-widths, so this one
    test per point classifies as testing every boundary would.

    Raises:
        ValueError: on a road whose lanes are too narrow for that.
    """
    half, width = road.half_width, road.config.lane_width
    if width <= 2.0 * _MARKING_HALF_WIDTH:
        raise ValueError(
            "lane markings need lanes wider than "
            f"{2.0 * _MARKING_HALF_WIDTH} m; the road has lane_width={width}"
        )
    # One buffer, in place: the nearest boundary, then the distance to it.
    # An on-road offset rounds to a boundary index in [0, n_lanes]; an
    # off-road one may round past them, but its class is OFF_ROAD whatever
    # its marking test says.
    gap = d + half
    gap /= width
    np.rint(gap, out=gap)
    gap *= width
    np.add(-half, gap, out=gap)
    np.subtract(d, gap, out=gap)
    marking = np.abs(gap, out=gap) <= _MARKING_HALF_WIDTH
    on_road = np.abs(d, out=gap) <= half
    marking &= on_road
    # OFF_ROAD 0, ROAD 1, LANE_MARKING 2: the flags' bytes are 0 or 1.
    return np.add(on_road.view(np.uint8), marking.view(np.uint8))


def _cloud_gap2(
    xs: np.ndarray, ys: np.ndarray, cx: np.ndarray, cy: np.ndarray
) -> np.ndarray:
    """Squared distance from centres ``(cx, cy)`` to the bounding box of
    the points ``(xs, ys)``, each ``[..., P]``; the centres broadcast
    against ``[..., 1]``."""
    gap_x = np.maximum(
        np.maximum(
            xs.min(axis=-1, keepdims=True) - cx,
            cx - xs.max(axis=-1, keepdims=True),
        ),
        0.0,
    )
    gap_y = np.maximum(
        np.maximum(
            ys.min(axis=-1, keepdims=True) - cy,
            cy - ys.max(axis=-1, keepdims=True),
        ),
        0.0,
    )
    return gap_x * gap_x + gap_y * gap_y


def _classify_points(world: World, points: np.ndarray) -> np.ndarray:
    """Semantic class per world point, shape ``(n,)`` of ``uint8``.

    NPCs whose footprint :func:`reach` does not touch the bounding box of
    ``points`` cannot paint any of them and are skipped; the test reads
    the vehicle states, so no footprint is built.
    """
    _, d, _ = world.road.frenet_batch(points)
    classes = _classify_road(world.road, d)
    vehicles = [npc.vehicle for npc in world.npcs]
    gap2 = _cloud_gap2(
        points[:, 0],
        points[:, 1],
        np.array([vehicle.state.x for vehicle in vehicles]),
        np.array([vehicle.state.y for vehicle in vehicles]),
    )
    for vehicle, vehicle_gap2 in zip(vehicles, gap2):
        state, cfg = vehicle.state, vehicle.config
        limit = reach((cfg.length, cfg.width))
        if vehicle_gap2 > limit * limit:
            continue
        rel = points - np.array([state.x, state.y])
        cos_yaw, sin_yaw = math.cos(state.yaw), math.sin(state.yaw)
        local_x = rel[:, 0] * cos_yaw + rel[:, 1] * sin_yaw
        local_y = -rel[:, 0] * sin_yaw + rel[:, 1] * cos_yaw
        inside = (np.abs(local_x) <= cfg.length / 2.0) & (
            np.abs(local_y) <= cfg.width / 2.0
        )
        classes[inside] = int(SemanticClass.VEHICLE)
    return classes


def _paint_vehicles_batch(
    classes: np.ndarray,
    batch: BatchWorld,
    heading: tuple[np.ndarray, np.ndarray],
    px: np.ndarray,
    py: np.ndarray,
    cells: np.ndarray,
) -> None:
    """Paint every episode's NPCs into ``classes`` (``[N, P]``), in place.

    The exact footprint test of NPC ``j`` of episode ``i`` runs only on
    the points ``cells[:, j, i]`` (``[K, M, N]`` flat indices into the
    ``[N, P]`` grid) at world ``(px, py)`` (``[K, M, N]`` each); they must
    hold every point that NPC can cover. ``heading`` is the NPCs' ``(cos,
    sin)`` of yaw, ``[M, N]`` each.
    """
    vcfg = batch.config.vehicle
    half_l, half_w = vcfg.length / 2.0, vcfg.width / 2.0
    rel_x = px - batch.pose[0, 1:]
    rel_y = py - batch.pose[1, 1:]
    cos_yaw, sin_yaw = heading
    local_x = rel_x * cos_yaw + rel_y * sin_yaw
    # -rel_x * sin + rel_y * cos, bit for bit, one negation fewer.
    local_y = rel_y * cos_yaw - rel_x * sin_yaw
    inside = (np.abs(local_x) <= half_l) & (np.abs(local_y) <= half_w)
    classes.put(cells[inside], int(SemanticClass.VEHICLE))


@lru_cache(maxsize=16)
def _window_plan(config: BevCameraConfig, radius: float) -> tuple:
    """How :meth:`BevCamera.render_batch` places, on ``config``'s grid,
    the lattice windows that hold every cell within ``radius`` of a point.

    Returns, rows then columns, each lattice's origin and step and the
    largest first index a window may take (``[2, 1, 1]`` arrays), and the
    flat grid offsets of a window's cells from its first cell (``[K, 1,
    1]``). A span of ``2 * radius`` holds at most ``floor(2 * radius /
    step) + 1`` lattice points, so every window has that many (at most the
    lattice's count), from the first point at or past ``centre - radius``;
    a window that would run off the lattice is slid back onto it.
    """
    steps = np.array(
        [
            (config.forward + config.backward) / (config.rows - 1),
            2.0 * config.half_width / (config.cols - 1),
        ]
    )
    counts = np.array([config.rows, config.cols])
    spans = np.minimum(np.floor(2.0 * radius / steps).astype(int) + 1, counts)
    origin = np.array([-config.backward, -config.half_width])
    offsets = (
        np.arange(spans[0])[:, None] * config.cols + np.arange(spans[1])
    ).reshape(-1, 1, 1)
    plan = (
        *(a.reshape(2, 1, 1) for a in (origin, steps, counts - spans)),
        offsets,
    )
    for array in plan:
        array.flags.writeable = False
    return plan


def _shared_frame(
    memo: dict,
    config: BevCameraConfig,
    poses: object,
    render: Callable[[], np.ndarray],
) -> np.ndarray:
    """The frame ``memo`` holds for ``config`` if it was rendered from
    ``poses``; else ``render()``'s, made read-only and stored there."""
    held = memo.get(config)
    if held is not None and held[0] == poses:
        return held[1]
    frame = render()
    frame.flags.writeable = False
    memo[config] = (poses, frame)
    return frame


@dataclass(frozen=True)
class BevCameraConfig:
    """Geometry of the bird's-eye observation grid (ego frame)."""

    forward: float = 48.0
    backward: float = 8.0
    half_width: float = 9.0
    rows: int = 24
    cols: int = 12

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise ValueError(
                f"a BEV grid needs at least 2 rows and 2 columns, got "
                f"{self.rows}x{self.cols}"
            )
        if self.forward + self.backward <= 0.0 or self.half_width <= 0.0:
            raise ValueError(
                "a BEV grid needs a positive extent along and across the "
                f"heading, got forward={self.forward}, "
                f"backward={self.backward}, half_width={self.half_width}"
            )

    @property
    def cells(self) -> int:
        return self.rows * self.cols


class BevCamera(Sensor):
    """Ego-centric bird's-eye semantic grid.

    Rows span ``[-backward, forward]`` meters along the ego heading
    (row 0 = farthest back), columns span ``[-half_width, half_width]``
    laterally (column 0 = rightmost). :meth:`observe` returns the grid
    flattened with class codes normalized to ``[0, 1]``.

    A world state is rasterised once per camera config: :meth:`observe`
    and :meth:`observe_batch` keep the normalized frame in the world's
    ``frame_memo`` and hand the same read-only array to every camera of
    that config until the world's ``pose_key`` changes (an actor's ``x``,
    ``y``, ``yaw`` or ``speed``); they key it with the world's geometry's
    ``key``, the same bytes. So the victim and the attacker watching
    one camera share a frame, while each
    :class:`~repro.sensors.base.FrameStack` keeps its own history.
    """

    def __init__(self, config: BevCameraConfig | None = None) -> None:
        self.config = config or BevCameraConfig()
        cfg = self.config
        xs = np.linspace(-cfg.backward, cfg.forward, cfg.rows)
        ys = np.linspace(-cfg.half_width, cfg.half_width, cfg.cols)
        grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
        self._local = np.stack([grid_x.ravel(), grid_y.ravel()], axis=1)
        # The same cells as two contiguous coordinate rows, for the batch
        # rasteriser's broadcasts.
        self._lx, self._ly = self._local.T.copy()

    @timed("camera.bev.render")
    def render(self, world: World) -> np.ndarray:
        """The raw class grid, shape ``(rows, cols)`` of ``uint8``."""
        state = world.ego.state
        cos_yaw, sin_yaw = math.cos(state.yaw), math.sin(state.yaw)
        rot = np.array([[cos_yaw, -sin_yaw], [sin_yaw, cos_yaw]])
        points = self._local @ rot.T + state.position
        classes = _classify_points(world, points)
        return classes.reshape(self.config.rows, self.config.cols)

    def observe(self, world: World) -> np.ndarray:
        """The normalized grid, flattened; shared and read-only."""
        return self.frame(world, world.geometry().key)

    def frame(self, world: World, key: bytes) -> np.ndarray:
        """:meth:`observe` for a caller that holds the world's geometry:
        ``key`` is its :attr:`~repro.sim.world.WorldGeometry.key`."""
        return _shared_frame(
            world.frame_memo,
            self.config,
            key,
            lambda: self.render(world).astype(np.float64).ravel()
            / _MAX_CLASS,
        )

    @timed("camera.bev.render_batch")
    def render_batch(self, batch: BatchWorld) -> np.ndarray:
        """All N ego-centric class grids in one pass, ``[N, rows, cols]``.

        One call replaces N :meth:`render` invocations: the local grid is
        rotated/translated into every episode's ego frame by broadcasting.
        The road layers read only each cell's lateral offset, and the
        road works out world x for that only where the offset depends on
        it (:meth:`~repro.sim.road.Road.lateral_batch`). Each NPC is
        tested only on the lattice window of cells within
        :func:`~repro.utils.geometry.reach` of its centre, taken in the
        ego grid frame (2 x 3 cells for the policy camera); no cell
        outside it can lie in its footprint. World x is worked out for
        those cells alone.
        """
        cfg = self.config
        geometry = batch.geometry()
        # Each ego's heading and position, [N] each, and as [N, 1] columns
        # for the [N, P] grid.
        cos_ego, sin_ego = geometry.ego_heading
        ego_x, ego_y = batch.pose[0, 0], batch.pose[1, 0]
        cos_yaw, sin_yaw = cos_ego[:, None], sin_ego[:, None]
        lx, ly = self._lx, self._ly
        # World y of every cell, (lx sin + ly cos) + ego y, in place.
        py = lx * sin_yaw
        py += ly * cos_yaw
        py += ego_y[:, None]
        d = batch.road.lateral_batch(
            py, lambda: lx * cos_yaw - ly * sin_yaw + ego_x[:, None]
        )
        classes = _classify_road(batch.road, d)
        # NPC centres in the ego grid frame, along and across the heading.
        dx, dy = geometry.npc_offsets
        first = np.array(
            (dx * cos_ego + dy * sin_ego, dy * cos_ego - dx * sin_ego)
        )
        # A painted point lies within the footprint's circumradius of its
        # centre, up to ~1e-12 m of rounding; the reach's 1e-6 m margin
        # covers that, so the windows hold every cell the NPC can paint.
        vcfg = batch.config.vehicle
        radius = reach((vcfg.length, vcfg.width))
        origin, step, last, offsets = _window_plan(cfg, radius)
        first -= radius
        first -= origin
        first /= step
        np.ceil(first, out=first)
        row0, col0 = clamp_array(first.astype(np.intp), 0, last)
        # Each window's cells, window cell first, [K, M, N]: index in the
        # grid, then in the [N, P] batch.
        local = offsets + (row0 * cfg.cols + col0)
        cells = local + batch.rows * cfg.cells
        window_x = (
            lx.take(local) * cos_ego - ly.take(local) * sin_ego + ego_x
        )
        _paint_vehicles_batch(
            classes, batch, geometry.npc_heading, window_x, py.take(cells),
            cells,
        )
        return classes.reshape(batch.n, cfg.rows, cfg.cols)

    def observe_batch(self, batch: BatchWorld) -> np.ndarray:
        """Flattened normalized grids for every episode, ``[N, cells]``;
        shared and read-only, as for :meth:`observe`."""
        return self.frame_batch(batch, batch.geometry().key)

    def frame_batch(self, batch: BatchWorld, key: bytes) -> np.ndarray:
        """:meth:`observe_batch` for a caller that holds the batch's
        geometry: ``key`` is its ``key``, as for :meth:`frame`."""
        return _shared_frame(
            batch.frame_memo,
            self.config,
            key,
            lambda: self.render_batch(batch)
            .astype(np.float64)
            .reshape(batch.n, -1)
            / _MAX_CLASS,
        )

    def reset(self) -> None:
        """Stateless: nothing to clear."""

    @property
    def observation_dim(self) -> int:
        return self.config.cells


@dataclass(frozen=True)
class PanoramaCameraConfig:
    """Geometry of the panorama camera (paper default: 84x420, 300 deg)."""

    height: int = 84
    width: int = 420
    fov: float = math.radians(300.0)
    camera_height: float = 1.6
    max_range: float = 60.0


class PanoramaCamera(Sensor):
    """Roof-mounted panorama projecting the ground plane.

    Each pixel ``(row, col)`` corresponds to an azimuth within the field
    of view and a downward elevation angle; the pixel is labeled with the
    semantic class of the ground point the ray hits (rows near the top of
    the image look toward the horizon / far range).
    """

    def __init__(self, config: PanoramaCameraConfig | None = None) -> None:
        self.config = config or PanoramaCameraConfig()
        cfg = self.config
        azimuths = np.linspace(cfg.fov / 2.0, -cfg.fov / 2.0, cfg.width)
        # Row 0 looks at max range, bottom row near the vehicle.
        min_range = 2.0
        ranges = np.geomspace(cfg.max_range, min_range, cfg.height)
        grid_r, grid_a = np.meshgrid(ranges, azimuths, indexing="ij")
        self._local = np.stack(
            [(grid_r * np.cos(grid_a)).ravel(), (grid_r * np.sin(grid_a)).ravel()],
            axis=1,
        )

    @timed("camera.panorama.render")
    def render(self, world: World) -> np.ndarray:
        """The class image, shape ``(height, width)`` of ``uint8``."""
        state = world.ego.state
        cos_yaw, sin_yaw = math.cos(state.yaw), math.sin(state.yaw)
        rot = np.array([[cos_yaw, -sin_yaw], [sin_yaw, cos_yaw]])
        points = self._local @ rot.T + state.position
        classes = _classify_points(world, points)
        return classes.reshape(self.config.height, self.config.width)

    def observe(self, world: World) -> np.ndarray:
        return self.render(world).astype(np.float64).ravel() / _MAX_CLASS

    def reset(self) -> None:
        """Stateless: nothing to clear."""

    @property
    def observation_dim(self) -> int:
        return self.config.height * self.config.width
