"""The bounding-circle broadphase never changes an exact footprint test.

Every culled site is compared bit for bit with a brute-force reference
kept here: the separating-axis test on every pair, and every NPC painted
on every point with lane markings found by one ``min`` over all
boundaries. Poses are drawn around the touching distance, half of them
corner to corner (the only contact a reach can just miss), so a reach too
small on both engines at once still fails. The batch camera's lattice
window is checked the same way: ``render_batch`` against every NPC
painted on every point of every row.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.e2e.observation import POLICY_CAMERA
from repro.sensors import camera as camera_module
from repro.sensors.camera import (
    BevCamera,
    PanoramaCamera,
    PanoramaCameraConfig,
    SemanticClass,
)
from repro.sim import ScenarioConfig, default_road
from repro.sim.batch import (
    _FRONT_SECTOR,
    _REAR_SECTOR,
    KIND_BARRIER,
    KIND_FRONT,
    KIND_NONE,
    KIND_REAR,
    KIND_SIDE,
    BatchWorld,
    _normalize_angles,
)
from repro.sim.collision import (
    CollisionKind,
    check_vehicle_pair,
    classify_vehicle_collision,
)
from repro.sim.config import VehicleConfig
from repro.sim.npc import LaneKeepingDriver
from repro.sim.vehicle import Vehicle, VehicleState
from repro.sim.world import NpcActor, World
from repro.utils.geometry import OrientedBox, normalize_angle

CONFIG = ScenarioConfig()
VEHICLE = CONFIG.vehicle
SIZE = (VEHICLE.length, VEHICLE.width)
BEV = BevCamera()
POLICY_BEV = BevCamera(POLICY_CAMERA)
PANORAMA = PanoramaCamera(PanoramaCameraConfig(height=12, width=40))

yaws = st.one_of(
    st.sampled_from([-math.pi, -math.pi / 2.0, 0.0, math.pi / 2.0]),
    st.floats(-math.pi, math.pi, exclude_max=True),
)
#: Centre distance minus the summed circumradii; the second band is where
#: a reach shrunk by a centimetre culls a real contact.
gaps = st.one_of(st.floats(-0.5, 0.5), st.floats(-0.02, 0.0))


def corner_angles(length: float, width: float) -> list[float]:
    """Directions of a footprint's corners in its body frame."""
    a = math.atan2(width / 2.0, length / 2.0)
    return [a, math.pi - a, a - math.pi, -a]


@st.composite
def near(draw, anchor, anchor_box, length, width, bearing=None):
    """``(x, y, yaw)`` of a footprint around touching distance of an anchor.

    The anchor is a point, or a box given as ``(yaw, length, width)``.
    Half the draws put a corner of the footprint on the line between the
    centres, pointing back at the anchor (and at one of a box anchor's
    own corners). ``bearing`` fixes the direction from the anchor.
    """
    distance = math.hypot(length / 2.0, width / 2.0) + draw(gaps)
    if bearing is None:
        bearing = draw(yaws)
    if anchor_box is not None:
        anchor_yaw, anchor_length, anchor_width = anchor_box
        distance += math.hypot(anchor_length / 2.0, anchor_width / 2.0)
    if draw(st.booleans()):
        if anchor_box is not None:
            bearing = anchor_yaw + draw(
                st.sampled_from(corner_angles(anchor_length, anchor_width))
            )
        yaw = bearing + math.pi - draw(
            st.sampled_from(corner_angles(length, width))
        )
    else:
        yaw = draw(yaws)
    return (
        anchor[0] + distance * math.cos(bearing),
        anchor[1] + distance * math.sin(bearing),
        normalize_angle(yaw),
    )


def cloud(camera, x: float, y: float, yaw: float) -> np.ndarray:
    """The world points ``camera`` classifies for an ego pose."""
    rot = np.array(
        [[math.cos(yaw), -math.sin(yaw)], [math.sin(yaw), math.cos(yaw)]]
    )
    return camera._local @ rot.T + np.array([x, y])


def batch_cloud(camera, batch: BatchWorld) -> tuple[np.ndarray, np.ndarray]:
    """The world points ``(px, py)``, each ``[N, P]``, that
    ``camera.render_batch`` classifies, computed as it computes them."""
    cos_yaw, sin_yaw = np.cos(batch.yaw[:, :1]), np.sin(batch.yaw[:, :1])
    lx, ly = camera._local[:, 0], camera._local[:, 1]
    px = lx * cos_yaw - ly * sin_yaw + batch.x[:, :1]
    py = lx * sin_yaw + ly * cos_yaw + batch.y[:, :1]
    return px, py


@st.composite
def near_contact_rows(draw, camera):
    """Ego poses and NPC poses near contact with the ego or near the edge
    of the ego's camera point cloud: ``(x, y, yaw, done)`` arrays."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    x, y, yaw = (np.zeros((n, 1 + m)) for _ in range(3))
    for i in range(n):
        ex = draw(st.floats(20.0, 420.0))
        ey = draw(st.floats(-9.0, 9.0))
        eyaw = draw(yaws)
        x[i, 0], y[i, 0], yaw[i, 0] = ex, ey, eyaw
        points = cloud(camera, ex, ey, eyaw)
        # The cloud's extreme points and the way out of its bounding box:
        # where a just-too-small reach misses a painted point.
        extremes = [
            (int(np.argmin(points[:, 0])), math.pi),
            (int(np.argmax(points[:, 0])), 0.0),
            (int(np.argmin(points[:, 1])), -math.pi / 2.0),
            (int(np.argmax(points[:, 1])), math.pi / 2.0),
        ]
        for j in range(1, 1 + m):
            anchor = draw(st.sampled_from(["ego", "edge", "any"]))
            if anchor == "ego":
                pose = draw(near((ex, ey), (eyaw, *SIZE), *SIZE))
            elif anchor == "edge":
                index, outward = draw(st.sampled_from(extremes))
                pose = draw(near(points[index], None, *SIZE, bearing=outward))
            else:
                # Bearings relative to the ego heading, so the sampled
                # ones run along the grid axes: a corner there is where a
                # just-too-small lattice window misses a painted point.
                index = draw(st.integers(0, len(points) - 1))
                bearing = normalize_angle(eyaw + draw(yaws))
                pose = draw(near(points[index], None, *SIZE, bearing=bearing))
            x[i, j], y[i, j], yaw[i, j] = pose
    done = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return x, y, yaw, done


def make_batch(x, y, yaw, done) -> BatchWorld:
    n, m = x.shape[0], x.shape[1] - 1
    batch = BatchWorld(
        road=default_road(),
        config=CONFIG,
        x=x,
        y=y,
        yaw=yaw,
        speed=np.full((n, 1 + m), 10.0),
        npc_lane=np.zeros((n, m), dtype=int),
        npc_target_speed=np.full((n, m), 6.0),
    )
    batch.done[:] = done
    return batch


def make_scalar_world(x, y, yaw) -> World:
    """Row ``x, y, yaw`` (ego first) as a scalar world."""
    vehicles = [
        Vehicle(
            "ego" if j == 0 else f"npc_{j - 1}",
            config=VEHICLE,
            state=VehicleState(x=x[j], y=y[j], yaw=yaw[j], speed=10.0),
        )
        for j in range(len(x))
    ]
    road = default_road()
    npcs = [
        NpcActor(vehicle=v, driver=LaneKeepingDriver(road, 0, 6.0))
        for v in vehicles[1:]
    ]
    return World(road=road, config=CONFIG, ego=vehicles[0], npcs=npcs)


# -- brute-force references ---------------------------------------------------


def brute_intersects(a: OrientedBox, b: OrientedBox) -> bool:
    """SAT on the four face normals, with no early exit."""
    corners_a, corners_b = a.corners(), b.corners()
    for axis in np.concatenate([a.axes(), b.axes()]):
        proj_a, proj_b = corners_a @ axis, corners_b @ axis
        if proj_a.max() < proj_b.min() or proj_b.max() < proj_a.min():
            return False
    return True


def brute_collisions(batch: BatchWorld) -> tuple[np.ndarray, np.ndarray]:
    """``BatchWorld._detect_collisions`` with SAT on every pair."""
    n, m = batch.n, batch.m
    kind = np.zeros(n, dtype=np.int8)
    other = np.full(n, -1, dtype=int)
    cos, sin = np.cos(batch.yaw), np.sin(batch.yaw)
    lx = batch._corner_local[:, 0]
    ly = batch._corner_local[:, 1]
    cx = lx * cos[..., None] - ly * sin[..., None] + batch.x[..., None]
    cy = lx * sin[..., None] + ly * cos[..., None] + batch.y[..., None]
    corners = np.stack([cx, cy], axis=-1)  # [N, A, 4, 2]
    ego, npc = corners[:, 0], corners[:, 1:]
    if m > 0:
        hit = np.ones((n, m), dtype=bool)
        for yaw_src in (batch.yaw[:, :1], batch.yaw[:, 1:]):
            for offset in (0.0, math.pi / 2.0):
                a = np.broadcast_to(yaw_src + offset, (n, m))
                axis = np.stack([np.cos(a), np.sin(a)], axis=-1)
                proj_e = np.einsum("nkj,nmj->nmk", ego, axis)
                proj_o = np.einsum("nmkj,nmj->nmk", npc, axis)
                hit &= ~(
                    (proj_e.max(axis=2) < proj_o.min(axis=2))
                    | (proj_o.max(axis=2) < proj_e.min(axis=2))
                )
        rows = np.flatnonzero(hit.any(axis=1))
        cols = np.argmax(hit, axis=1)[rows]
        dx = batch.x[rows, 1 + cols] - batch.x[rows, 0]
        dy = batch.y[rows, 1 + cols] - batch.y[rows, 0]
        bearing = np.abs(
            _normalize_angles(np.arctan2(dy, dx) - batch.yaw[rows, 0])
        )
        k = np.full(len(rows), KIND_SIDE, dtype=np.int8)
        k[bearing <= _FRONT_SECTOR] = KIND_FRONT
        k[bearing >= _REAR_SECTOR] = KIND_REAR
        kind[rows] = k
        other[rows] = cols
    _, d, _ = batch.road.frenet_batch(ego.reshape(-1, 2))
    off = (np.abs(d.reshape(n, 4)) >= batch.road.barrier_offset).any(axis=1)
    barrier = (kind == 0) & off
    kind[barrier] = KIND_BARRIER
    return kind, other


def brute_scalar_collision(world: World):
    """``World._detect_collision`` with SAT on every pair, as
    ``(kind, other)`` or None."""
    ego = world.ego
    for npc in world.npcs:
        other = npc.vehicle
        if brute_intersects(ego.footprint(), other.footprint()):
            return classify_vehicle_collision(ego, other), other.name
    for corner in ego.footprint().corners():
        if world.road.off_road(world.road.to_frenet(corner)[1]):
            return CollisionKind.BARRIER, "barrier"
    return None


def brute_road(road, d: np.ndarray) -> np.ndarray:
    classes = np.full(d.shape, int(SemanticClass.OFF_ROAD), dtype=np.uint8)
    on_road = np.abs(d) <= road.half_width
    classes[on_road] = int(SemanticClass.ROAD)
    boundaries = np.array(
        [
            -road.half_width + i * road.config.lane_width
            for i in range(road.config.n_lanes + 1)
        ]
    )
    marking = np.min(np.abs(d[..., None] - boundaries), axis=-1) <= 0.2
    classes[on_road & marking] = int(SemanticClass.LANE_MARKING)
    return classes


def paint(classes, points, cx, cy, yaw, half_l, half_w) -> None:
    rel_x, rel_y = points[..., 0] - cx, points[..., 1] - cy
    cos_yaw, sin_yaw = np.cos(yaw), np.sin(yaw)
    local_x = rel_x * cos_yaw + rel_y * sin_yaw
    local_y = -rel_x * sin_yaw + rel_y * cos_yaw
    inside = (np.abs(local_x) <= half_l) & (np.abs(local_y) <= half_w)
    classes[inside] = int(SemanticClass.VEHICLE)


def brute_classify_batch(batch: BatchWorld, px, py) -> np.ndarray:
    """Every NPC painted on every row."""
    n, p = px.shape
    points = np.stack([px, py], axis=-1)
    _, d, _ = batch.road.frenet_batch(points.reshape(-1, 2))
    classes = brute_road(batch.road, d.reshape(n, p))
    for col in range(1, 1 + batch.m):
        paint(
            classes,
            points,
            batch.x[:, col, None],
            batch.y[:, col, None],
            batch.yaw[:, col, None],
            VEHICLE.length / 2.0,
            VEHICLE.width / 2.0,
        )
    return classes


def brute_classify(world: World, points: np.ndarray) -> np.ndarray:
    """Every NPC painted on the scalar engine's points."""
    _, d, _ = world.road.frenet_batch(points)
    classes = brute_road(world.road, d)
    for npc in world.npcs:
        box = npc.vehicle.footprint()
        paint(
            classes,
            points,
            box.center[0],
            box.center[1],
            box.yaw,
            box.length / 2.0,
            box.width / 2.0,
        )
    return classes


def assert_batch_render_exact(camera, batch: BatchWorld) -> None:
    """``render_batch`` equals every NPC painted on every point."""
    grids = camera.render_batch(batch)
    reference = brute_classify_batch(batch, *batch_cloud(camera, batch))
    assert np.array_equal(grids, reference.reshape(grids.shape))


# -- the culled sites against the references --------------------------------


extents = st.tuples(st.floats(1.0, 6.0), st.floats(0.5, 3.0))


@st.composite
def box_pairs(draw):
    (la, wa), (lb, wb) = draw(extents), draw(extents)
    a = OrientedBox(
        center=(draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))),
        yaw=draw(yaws),
        length=la,
        width=wa,
    )
    bx, by, byaw = draw(near(a.center, (a.yaw, la, wa), lb, wb))
    return a, OrientedBox(center=(bx, by), yaw=byaw, length=lb, width=wb)


class TestBroadphaseMatchesBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(box_pairs())
    def test_oriented_box_intersects(self, pair):
        a, b = pair
        assert a.intersects(b) == brute_intersects(a, b)
        assert b.intersects(a) == brute_intersects(b, a)

    @settings(max_examples=200, deadline=None)
    @given(near_contact_rows(BEV))
    def test_batch_collisions(self, rows):
        batch = make_batch(*rows)
        live = ~batch.done
        kind, other = batch._detect_collisions(live)
        ref_kind, ref_other = brute_collisions(batch)
        # A live row equals the brute force bit for bit; a frozen row is
        # not tested and reads no collision.
        assert np.array_equal(kind[live], ref_kind[live])
        assert np.array_equal(other[live], ref_other[live])
        assert np.all(kind[~live] == KIND_NONE)
        assert np.all(other[~live] == -1)

    @settings(max_examples=300, deadline=None)
    @given(box_pairs())
    def test_vehicle_pair(self, pair):
        # Footprints of two sizes: the contact reach sums both.
        ego, other = (
            Vehicle(
                f"v{i}",
                config=VehicleConfig(length=box.length, width=box.width),
                state=VehicleState(*box.center, yaw=box.yaw),
            )
            for i, box in enumerate(pair)
        )
        for a, b in ((ego, other), (other, ego)):
            found = check_vehicle_pair(a, b) is not None
            assert found == brute_intersects(a.footprint(), b.footprint())

    @settings(max_examples=200, deadline=None)
    @given(near_contact_rows(BEV))
    def test_scalar_collisions(self, rows):
        x, y, yaw, _ = rows
        for row in zip(x, y, yaw):
            world = make_scalar_world(*row)
            collision = world._detect_collision()
            found = (
                None
                if collision is None
                else (collision.kind, collision.other)
            )
            assert found == brute_scalar_collision(world)

    @settings(max_examples=300, deadline=None)
    @given(near_contact_rows(BEV))
    def test_render_batch(self, rows):
        assert_batch_render_exact(BEV, make_batch(*rows))

    @settings(max_examples=300, deadline=None)
    @given(near_contact_rows(POLICY_BEV))
    def test_render_batch_policy_camera(self, rows):
        assert_batch_render_exact(POLICY_BEV, make_batch(*rows))

    @settings(max_examples=100, deadline=None)
    @given(near_contact_rows(BEV))
    def test_scalar_bev_render(self, rows):
        x, y, yaw, _ = rows
        worlds = [make_scalar_world(*row) for row in zip(x, y, yaw)]
        grids = [BEV.render(world) for world in worlds]
        with mock.patch.object(
            camera_module, "_classify_points", brute_classify
        ):
            for world, grid in zip(worlds, grids):
                assert np.array_equal(grid, BEV.render(world))

    @settings(max_examples=100, deadline=None)
    @given(near_contact_rows(PANORAMA))
    def test_scalar_panorama_render(self, rows):
        x, y, yaw, _ = rows
        worlds = [make_scalar_world(*row) for row in zip(x, y, yaw)]
        images = [PANORAMA.render(world) for world in worlds]
        with mock.patch.object(
            camera_module, "_classify_points", brute_classify
        ):
            for world, image in zip(worlds, images):
                assert np.array_equal(image, PANORAMA.render(world))
