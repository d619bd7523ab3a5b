"""Tests for road geometry, Frenet frames and the routing graph."""

import math
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import curved_world, make_batch_world, make_world
from repro.sim.config import RoadConfig, ScenarioConfig
from repro.sim.presets import two_lane
from repro.sim.road import Road, default_road


class TestConstruction:
    def test_straight_length(self, road):
        assert road.length == pytest.approx(road.config.length)

    def test_rejects_bad_centerline(self):
        with pytest.raises(ValueError):
            Road(RoadConfig(), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            Road(RoadConfig(), np.zeros((5, 3)))

    def test_curved_has_lateral_extent(self):
        curved = Road.curved(RoadConfig(length=220.0), amplitude=5.0)
        ys = curved.centerline[:, 1]
        assert ys.max() > 4.0 and ys.min() < -4.0

    def test_default_road_cached(self):
        assert default_road() is default_road()


class TestSharedRoad:
    def test_default_worlds_share_one_road(self):
        road = make_world().road
        assert make_world(ScenarioConfig()).road is road
        assert make_batch_world(n=2).road is road
        assert default_road(RoadConfig()) is default_road() is road

    def test_other_configs_get_their_own_road(self):
        config = two_lane()
        road = make_world(config).road
        assert road is not default_road()
        assert road.n_lanes == 2
        assert make_batch_world(config, n=1).road is road
        assert curved_world().road is not default_road()

    def test_shared_road_is_immutable(self):
        road = default_road()
        with pytest.raises(TypeError):
            road.waypoints(0)[0] = road.waypoints(0)[1]
        with pytest.raises(AttributeError):
            road.waypoints(0).append(road.waypoints(0)[0])
        with pytest.raises(nx.NetworkXError):
            road.graph.add_edge((0, 0), (3, 5))
        with pytest.raises(nx.NetworkXError):
            road.graph.remove_node((0, 0))
        with pytest.raises(ValueError):
            road.centerline[0, 1] = 1.0


class TestLanes:
    def test_lane_offsets_symmetric(self, road):
        offsets = [road.lane_offset(i) for i in range(road.n_lanes)]
        assert offsets == sorted(offsets)
        assert sum(offsets) == pytest.approx(0.0)

    def test_lane_offset_spacing(self, road):
        assert road.lane_offset(1) - road.lane_offset(0) == pytest.approx(
            road.config.lane_width
        )

    def test_invalid_lane_raises(self, road):
        with pytest.raises(ValueError):
            road.lane_offset(-1)
        with pytest.raises(ValueError):
            road.lane_offset(road.n_lanes)

    def test_lane_at_centers(self, road):
        for lane in range(road.n_lanes):
            assert road.lane_at(road.lane_offset(lane)) == lane

    def test_lane_at_off_road(self, road):
        assert road.lane_at(road.half_width + 1.0) is None
        assert road.lane_at(-road.half_width - 1.0) is None

    def test_off_road_boundaries(self, road):
        assert not road.off_road(0.0)
        assert not road.off_road(road.half_width + road.config.shoulder * 0.5)
        assert road.off_road(road.barrier_offset + 0.01)

    def test_lateral_deviation(self, road):
        assert road.lateral_deviation(road.lane_offset(2), 2) == pytest.approx(0.0)
        assert road.lateral_deviation(road.lane_offset(2) + 0.5, 2) == (
            pytest.approx(0.5)
        )


class TestFrenet:
    def test_roundtrip_straight(self, road):
        position, yaw = road.to_world(100.0, 2.0)
        s, d, tangent = road.to_frenet(position)
        assert s == pytest.approx(100.0, abs=1e-6)
        assert d == pytest.approx(2.0, abs=1e-9)
        assert tangent == pytest.approx(yaw, abs=1e-9)

    @given(st.floats(5.0, 440.0), st.floats(-6.0, 6.0))
    @settings(max_examples=40)
    def test_roundtrip_property(self, s, d):
        road = default_road()
        position, _ = road.to_world(s, d)
        s2, d2, _ = road.to_frenet(position)
        assert s2 == pytest.approx(s, abs=1e-6)
        assert d2 == pytest.approx(d, abs=1e-6)

    def test_roundtrip_curved(self):
        road = Road.curved(RoadConfig(length=200.0))
        position, _ = road.to_world(80.0, -3.0)
        s, d, _ = road.to_frenet(position)
        assert s == pytest.approx(80.0, abs=0.3)
        assert d == pytest.approx(-3.0, abs=0.05)

    def test_lane_center_positions(self, road):
        position, yaw = road.lane_center(0, 50.0)
        assert position[0] == pytest.approx(50.0)
        assert position[1] == pytest.approx(road.lane_offset(0))
        assert yaw == pytest.approx(0.0)


def _bits(array) -> bytes:
    return np.asarray(array, dtype=float).tobytes()


class TestBatchShortcuts:
    """The axis-aligned shortcuts of the batch conversions move no bit."""

    #: Arc-lengths and offsets at the ends, on vertices and signed zeros.
    S = [-5.0, -0.0, 0.0, 5e-324, 1.0, 2.0, 3.0, 100.25, 449.0, 450.0, 451.0]
    D = [-0.0, 0.0, 5e-324, -5e-324, 1.75, -1.75, 5.25, -7.0, 12.0]

    @staticmethod
    def generic(road: Road) -> Road:
        """The same road, forced onto the polyline formulas."""
        twin = Road(road.config, np.array(road.centerline))
        twin._axis_aligned = False
        return twin

    def test_to_world_batch_matches_scalar(self):
        road = default_road()
        s, d = (a.ravel() for a in np.meshgrid(self.S, self.D))
        positions, yaw = road.to_world_batch(s, d)
        for i in range(len(s)):
            position, heading = road.to_world(float(s[i]), float(d[i]))
            assert _bits(positions[:, i]) == _bits(position), (s[i], d[i])
            assert _bits(yaw[i]) == _bits(heading)

    @given(
        st.lists(
            st.tuples(st.floats(-10.0, 460.0), st.floats(-12.0, 12.0)),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_to_world_batch_matches_generic_path(self, pairs):
        # Also a line off the x axis, starting left of the origin, at a y
        # whose lerp with itself is not always exact.
        xs = np.linspace(-50.0, 400.0, 226)
        line = np.stack([xs, np.full_like(xs, -2.9)], axis=1)
        s, d = np.array(pairs).T
        for road in (default_road(), Road(RoadConfig(), line)):
            positions, yaw = road.to_world_batch(s, d)
            expected, expected_yaw = self.generic(road).to_world_batch(s, d)
            assert _bits(positions) == _bits(expected)
            assert _bits(yaw) == _bits(expected_yaw)

    def test_lateral_batch_matches_frenet_batch(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-5.0, 455.0, (3, 40))
        y = rng.uniform(-12.0, 12.0, (3, 40))
        for road in (default_road(), Road.curved(RoadConfig(length=200.0))):
            _, d, _ = road.frenet_batch(np.stack([x.ravel(), y.ravel()], 1))
            lateral = road.lateral_batch(y, lambda: x)
            assert lateral.shape == y.shape
            assert _bits(lateral) == _bits(d.reshape(y.shape))

    def test_lateral_batch_skips_x_on_an_axis_aligned_road(self):
        def no_x():
            raise AssertionError("x worked out on an axis-aligned road")

        y = np.array([[-0.0, 0.0, 3.5, np.nan]])
        # On a line at y = +0.0 the offset is y itself (y - 0.0 has y's
        # bits); at -0.0 it is not (-0.0 - -0.0 is +0.0), nor off the axis.
        assert default_road().lateral_batch(y, no_x) is y
        for base in (-0.0, -2.9):
            xs = np.linspace(0.0, 400.0, 201)
            line = np.stack([xs, np.full_like(xs, base)], axis=1)
            lateral = Road(RoadConfig(), line).lateral_batch(y, no_x)
            assert _bits(lateral) == _bits(y - base)


class TestWaypoints:
    def test_waypoints_ordered(self, road):
        points = road.waypoints(0)
        ss = [w.s for w in points]
        assert ss == sorted(ss)
        assert points[0].s == 0.0

    def test_waypoint_spacing(self, road):
        points = road.waypoints(1)
        assert points[1].s - points[0].s == pytest.approx(
            road.config.waypoint_spacing
        )

    def test_nearest_waypoint(self, road):
        wp = road.nearest_waypoint(2, 33.0)
        assert wp.lane == 2
        assert abs(wp.s - 33.0) <= road.config.waypoint_spacing / 2.0 + 1e-9

    def test_nearest_waypoint_clamped(self, road):
        assert road.nearest_waypoint(0, -10.0).index == 0
        last = road.nearest_waypoint(0, 1e9)
        assert last.index == len(road.waypoints(0)) - 1


class TestRoutingGraph:
    def test_graph_is_dag_along_road(self, road):
        assert nx.is_directed_acyclic_graph(road.graph)

    def test_same_lane_route(self, road):
        route = road.shortest_route((0, 0), (0, 10))
        assert [w.lane for w in route] == [0] * 11

    def test_lane_change_route(self, road):
        route = road.shortest_route((0, 0), (2, 40))
        lanes = {w.lane for w in route}
        assert lanes >= {0, 1, 2}
        # Monotone progress along the road.
        ss = [w.s for w in route]
        assert ss == sorted(ss)

    def test_no_backward_route(self, road):
        with pytest.raises(nx.NetworkXNoPath):
            road.shortest_route((0, 10), (0, 0))


class TestLazyRouting:
    """Only route planning reads the waypoints and the lane graph, so
    they are built, and networkx imported, on first use."""

    def test_evaluation_leaves_networkx_unloaded(self):
        code = (
            "import sys, numpy, repro.eval\n"
            "from repro.sim import make_world\n"
            "world = make_world(rng=numpy.random.default_rng(0))\n"
            "world.tick(world.ego.pending_control)\n"
            "print('networkx' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "False"

    def test_first_use_builds_the_same_graph(self):
        fresh = Road.straight(RoadConfig())
        assert "graph" not in vars(fresh)
        assert set(fresh.graph.edges) == set(default_road().graph.edges)
        assert fresh.graph is fresh.graph
