"""Tests for the semantic segmentation cameras."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensors.camera import (
    BevCamera,
    BevCameraConfig,
    PanoramaCamera,
    PanoramaCameraConfig,
    SemanticClass,
    _classify_road,
)
from repro.sim import Control, RoadConfig, ScenarioConfig, make_world
from repro.sim.batch import make_batch_world
from repro.sim.road import Road


class TestBevCamera:
    def test_observation_dim(self):
        camera = BevCamera(BevCameraConfig(rows=10, cols=6))
        assert camera.observation_dim == 60

    @pytest.mark.parametrize(
        "geometry",
        [
            dict(rows=1),
            dict(cols=1),
            dict(rows=0, cols=0),
            dict(forward=-8.0),
            dict(half_width=0.0),
        ],
    )
    def test_degenerate_grid_rejected(self, geometry):
        # A grid without a positive lattice step on both axes.
        with pytest.raises(ValueError, match="BEV grid"):
            BevCameraConfig(**geometry)

    def test_observe_normalized(self, quiet_world):
        camera = BevCamera()
        obs = camera.observe(quiet_world)
        assert obs.shape == (camera.observation_dim,)
        assert obs.min() >= 0.0 and obs.max() <= 1.0

    def test_sees_road_under_ego(self, quiet_world):
        camera = BevCamera()
        grid = camera.render(quiet_world)
        road_like = {
            int(SemanticClass.ROAD),
            int(SemanticClass.LANE_MARKING),
            int(SemanticClass.VEHICLE),
        }
        # The center of the grid sits on the roadway.
        assert int(grid[grid.shape[0] // 2, grid.shape[1] // 2]) in road_like

    def test_sees_off_road_at_edges(self, quiet_world):
        camera = BevCamera(BevCameraConfig(half_width=20.0, cols=21))
        grid = camera.render(quiet_world)
        assert int(grid[0, 0]) == int(SemanticClass.OFF_ROAD)
        assert int(grid[0, -1]) == int(SemanticClass.OFF_ROAD)

    def test_sees_npc_ahead(self, quiet_world):
        camera = BevCamera()
        grid = camera.render(quiet_world)
        assert np.any(grid == int(SemanticClass.VEHICLE))

    def test_npc_pixels_move_closer_as_ego_approaches(self, quiet_world):
        camera = BevCamera()
        before = camera.render(quiet_world)
        rows_before = np.where(before == int(SemanticClass.VEHICLE))[0]
        for _ in range(15):
            quiet_world.tick(Control())
        after = camera.render(quiet_world)
        rows_after = np.where(after == int(SemanticClass.VEHICLE))[0]
        assert rows_before.size and rows_after.size
        # Row index grows toward the ego's forward direction; the nearest
        # vehicle pixel appears at a smaller forward distance after closing in.
        assert rows_after.min() <= rows_before.min()

    def test_view_rotates_with_ego(self, quiet_world):
        camera = BevCamera(BevCameraConfig(half_width=20.0, cols=21))
        quiet_world.ego.state.yaw = np.pi / 2.0  # face across the road
        grid = camera.render(quiet_world)
        # Looking across the road, far forward cells are off-road.
        assert int(grid[-1, grid.shape[1] // 2]) == int(SemanticClass.OFF_ROAD)

    def test_lane_markings_present_at_high_resolution(self, quiet_world):
        camera = BevCamera(BevCameraConfig(rows=40, cols=120, half_width=9.0))
        grid = camera.render(quiet_world)
        assert np.any(grid == int(SemanticClass.LANE_MARKING))

    def test_reset_is_noop(self, quiet_world):
        camera = BevCamera()
        first = camera.observe(quiet_world)
        camera.reset()
        np.testing.assert_array_equal(first, camera.observe(quiet_world))


@pytest.mark.batch
class TestBevCameraBatch:
    def test_render_batch_matches_scalar_grids(self):
        from repro.sim import ScenarioConfig, make_batch_world
        from repro.sim.scenario import make_world as make_scalar

        cfg = ScenarioConfig()
        seeds = [0, 5, 9]
        batch = make_batch_world(cfg, seeds=seeds)
        camera = BevCamera(BevCameraConfig(rows=12, cols=8))
        grids = camera.render_batch(batch)
        assert grids.shape == (len(seeds), 12, 8)
        for i, seed in enumerate(seeds):
            world = make_scalar(cfg, rng=np.random.default_rng(seed))
            np.testing.assert_array_equal(grids[i], camera.render(world))

    def test_observe_batch_matches_scalar_after_ticks(self):
        from repro.sim import ScenarioConfig, make_batch_world
        from repro.sim.scenario import make_world as make_scalar

        cfg = ScenarioConfig()
        seeds = [3, 7]
        batch = make_batch_world(cfg, seeds=seeds)
        worlds = [
            make_scalar(cfg, rng=np.random.default_rng(s)) for s in seeds
        ]
        for _ in range(5):
            for world in worlds:
                world.tick(Control(steer=0.2, thrust=0.5))
            batch.tick(np.full(2, 0.2), np.full(2, 0.5))
        camera = BevCamera()
        obs = camera.observe_batch(batch)
        for i, world in enumerate(worlds):
            np.testing.assert_array_equal(obs[i], camera.observe(world))


def loop_classes(road: Road, d: np.ndarray) -> np.ndarray:
    """Road classes with every lane boundary tested (the oracle)."""
    classes = np.full(d.shape, int(SemanticClass.OFF_ROAD), dtype=np.uint8)
    on_road = np.abs(d) <= road.half_width
    classes[on_road] = int(SemanticClass.ROAD)
    near_marking = np.zeros(d.shape, dtype=bool)
    for i in range(road.config.n_lanes + 1):
        boundary = -road.half_width + i * road.config.lane_width
        near_marking |= np.abs(d - boundary) <= 0.2
    classes[on_road & near_marking] = int(SemanticClass.LANE_MARKING)
    return classes


ROADS = [
    Road.straight(),
    Road.straight(RoadConfig(n_lanes=3, lane_width=3.0)),
    Road.straight(RoadConfig(n_lanes=6, lane_width=0.41)),
]


def edge_offsets(road: Road) -> np.ndarray:
    """Each boundary +-0.2 and the half-width, one ulp either side, and
    +-0.0."""
    half = road.half_width
    centres = [
        -half + i * road.config.lane_width
        for i in range(road.config.n_lanes + 1)
    ]
    edges = [b + 0.2 for b in centres] + [b - 0.2 for b in centres]
    edges += [half, -half]
    values = [0.0, -0.0]
    for edge in edges:
        values += [edge, np.nextafter(edge, 99.0), np.nextafter(edge, -99.0)]
    return np.array(values)


class TestRoadClasses:
    """One distance test, to the nearest lane boundary, classifies as the
    loop over every boundary does."""

    @pytest.mark.parametrize("road", ROADS, ids=["default", "3x3", "narrow"])
    def test_edges(self, road):
        d = edge_offsets(road)
        np.testing.assert_array_equal(
            _classify_road(road, d), loop_classes(road, d)
        )

    @pytest.mark.parametrize("road", ROADS, ids=["default", "3x3", "narrow"])
    @given(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_random_offsets(self, road, values):
        d = np.array(values).reshape(1, -1)
        np.testing.assert_array_equal(
            _classify_road(road, d), loop_classes(road, d)
        )

    @pytest.mark.parametrize("lane_width", [0.4, 0.2])
    def test_lanes_too_narrow_for_markings_raise(self, lane_width):
        road = Road.straight(RoadConfig(lane_width=lane_width))
        with pytest.raises(ValueError, match="lane_width"):
            _classify_road(road, np.zeros(3))
        config = ScenarioConfig(road=RoadConfig(lane_width=lane_width))
        with pytest.raises(ValueError, match="lane_width"):
            BevCamera().render_batch(make_batch_world(config, n=2))


class TestCurvedRoad:
    """``render_batch`` on a road whose lateral offset depends on x."""

    @pytest.mark.parametrize("width", [2, 7])
    def test_render_batch_matches_scalar(self, width):
        road = Road.curved()
        config = ScenarioConfig()
        seeds = list(range(width))
        batch = make_batch_world(config, seeds=seeds, road=road)
        worlds = [
            make_world(config, rng=np.random.default_rng(s), road=road)
            for s in seeds
        ]
        # Spawn poses, then the egos shifted across lanes and turned.
        rng = np.random.default_rng(width)
        for shift in range(3):
            if shift:
                batch.x[:, 0] += rng.uniform(0.0, 60.0, width)
                batch.y[:, 0] += rng.uniform(-4.0, 4.0, width)
                batch.yaw[:, 0] = rng.uniform(-0.5, 0.5, width)
                for i, world in enumerate(worlds):
                    state = world.ego.state
                    state.x, state.y = batch.x[i, 0], batch.y[i, 0]
                    state.yaw = batch.yaw[i, 0]
            for camera in (BevCamera(), BevCamera(BevCameraConfig(rows=40))):
                grids = camera.render_batch(batch)
                for i, world in enumerate(worlds):
                    np.testing.assert_array_equal(
                        grids[i], camera.render(world)
                    )


class TestPanoramaCamera:
    def test_paper_resolution(self):
        camera = PanoramaCamera()
        assert camera.config.height == 84
        assert camera.config.width == 420
        assert camera.observation_dim == 84 * 420

    def test_render_shape_and_classes(self, quiet_world):
        camera = PanoramaCamera(PanoramaCameraConfig(height=21, width=60))
        image = camera.render(quiet_world)
        assert image.shape == (21, 60)
        assert set(np.unique(image)) <= {0, 1, 2, 3}

    def test_sees_vehicle_ahead(self, quiet_world):
        camera = PanoramaCamera(PanoramaCameraConfig(height=42, width=210))
        image = camera.render(quiet_world)
        assert np.any(image == int(SemanticClass.VEHICLE))

    def test_forward_column_is_road(self, quiet_world):
        camera = PanoramaCamera(PanoramaCameraConfig(height=21, width=61))
        image = camera.render(quiet_world)
        center = image[:, image.shape[1] // 2]
        assert int(SemanticClass.ROAD) in set(center.tolist()) | {
            int(SemanticClass.VEHICLE)
        }
