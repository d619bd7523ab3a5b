"""The SoA batch world against the scalar reference simulator."""

import numpy as np
import pytest

from repro.sim import ScenarioConfig, make_batch_world
from repro.sim.batch import KIND_NONE, BatchWorld
from repro.sim.config import RoadConfig
from repro.sim.road import Road
from repro.sim.scenario import make_world
from repro.sim.vehicle import Control

pytestmark = pytest.mark.batch

SEEDS = [0, 11, 29, 47]


def _scripted_controls(seed: int, ticks: int):
    rng = np.random.default_rng(1000 + seed)
    return rng.uniform(-1.0, 1.0, size=(ticks, 3))  # steer, thrust, delta


#: A short road and wide jitter: the last NPCs' spawns run past the
#: road-end clamp (road length - 10 m) on some seeds and not on others.
CLAMPED = ScenarioConfig(road=RoadConfig(length=180.0), spawn_jitter=12.0)


def assert_spawns_match_scalar(cfg, road=None, seeds=range(200)):
    """Every row of a batch spawn equals ``make_world`` of its seed, bit
    for bit: poses, NPC lanes and NPC target speeds."""
    seeds = list(seeds)
    batch = make_batch_world(cfg, seeds=seeds, road=road)
    for i, seed in enumerate(seeds):
        world = make_world(cfg, rng=np.random.default_rng(seed), road=road)
        vehicles = [world.ego] + [npc.vehicle for npc in world.npcs]
        for col, vehicle in enumerate(vehicles):
            s = vehicle.state
            assert batch.x[i, col] == s.x
            assert batch.y[i, col] == s.y
            assert batch.yaw[i, col] == s.yaw
            assert batch.speed[i, col] == s.speed
        for j, npc in enumerate(world.npcs):
            assert batch.npc_lane[i, j] == npc.driver.lane
            assert batch.npc_target_speed[i, j] == npc.driver.target_speed
    return batch


class TestSpawnParity:
    def test_spawns_match_scalar_bitwise(self):
        assert_spawns_match_scalar(ScenarioConfig())

    def test_road_end_clamp_matches_scalar(self):
        batch = assert_spawns_match_scalar(CLAMPED)
        clamped = batch.x[:, 1:] == CLAMPED.road.length - 10.0
        assert clamped.any() and not clamped.all()

    def test_curved_road_matches_scalar(self):
        assert_spawns_match_scalar(
            ScenarioConfig(), road=Road.curved(RoadConfig())
        )

    def test_unjittered_spawn_matches_rng_none(self):
        batch = make_batch_world(CLAMPED, n=3)
        world = make_world(CLAMPED)
        vehicles = [world.ego] + [npc.vehicle for npc in world.npcs]
        for col, vehicle in enumerate(vehicles):
            assert (batch.x[:, col] == vehicle.state.x).all()
            assert (batch.speed[:, col] == vehicle.state.speed).all()

    def test_n_and_m_shapes(self):
        cfg = ScenarioConfig()
        batch = make_batch_world(cfg, seeds=SEEDS)
        assert batch.n == len(SEEDS)
        assert batch.m == cfg.n_npcs
        assert batch.x.shape == (len(SEEDS), 1 + cfg.n_npcs)


class TestTickParity:
    def test_scripted_rollout_matches_scalar(self):
        """Full trajectory, collisions and bookkeeping match per row."""
        cfg = ScenarioConfig()
        batch = make_batch_world(cfg, seeds=SEEDS)
        worlds = [
            make_world(cfg, rng=np.random.default_rng(s)) for s in SEEDS
        ]
        scripts = [_scripted_controls(s, 200) for s in SEEDS]

        for t in range(200):
            if batch.all_done:
                break
            for i, world in enumerate(worlds):
                if world.done:
                    continue
                steer, thrust, delta = scripts[i][t]
                world.tick(Control(steer, thrust), steer_delta=delta)
            controls = np.array(
                [scripts[i][t] for i in range(len(SEEDS))]
            )
            batch.tick(
                controls[:, 0], controls[:, 1], steer_delta=controls[:, 2]
            )

        for i, world in enumerate(worlds):
            state = world.ego.state
            assert batch.x[i, 0] == state.x
            assert batch.y[i, 0] == state.y
            assert batch.yaw[i, 0] == state.yaw
            assert batch.speed[i, 0] == state.speed
            assert batch.step_count[i] == world.step_count
            assert batch.done[i] == world.done
            assert batch.passed_npcs[i] == world.passed_npcs
            collision = batch.collision(i)
            if world.collisions:
                assert collision is not None
                assert collision.kind is world.collisions[0].kind
                assert collision.other == world.collisions[0].other
                assert collision.step == world.collisions[0].step
            else:
                assert collision is None

    def test_done_rows_freeze(self):
        cfg = ScenarioConfig(max_steps=5)
        batch = make_batch_world(cfg, seeds=[1, 2])
        for _ in range(5):
            batch.tick(np.zeros(2), np.zeros(2))
        assert batch.all_done
        frozen = batch.x.copy()
        with pytest.raises(RuntimeError):
            batch.tick(np.ones(2), np.ones(2))
        assert np.array_equal(batch.x, frozen)

    def test_tick_result_reports_this_tick_only(self):
        cfg = ScenarioConfig(max_steps=30)
        batch = make_batch_world(cfg, seeds=SEEDS)
        saw_collision = np.zeros(batch.n, dtype=bool)
        while not batch.all_done:
            result = batch.tick(
                np.full(batch.n, 0.3), np.full(batch.n, 1.0)
            )
            new = result.collision_kind != KIND_NONE
            # A collision is reported exactly once, on its tick.
            assert not np.any(new & saw_collision)
            saw_collision |= new


class TestFrozenContact:
    """Rows that collided stay frozen in contact while the others run on:
    the collision test skips them, and no row's record moves."""

    def test_collided_rows_match_scalar(self):
        cfg = ScenarioConfig()
        seeds = list(range(16))
        batch = make_batch_world(cfg, seeds=seeds)
        worlds = [
            make_world(cfg, rng=np.random.default_rng(s)) for s in seeds
        ]
        # Even rows run at full throttle into the NPC ahead; odd rows
        # brake, never reach it and drive to the horizon.
        steer = np.zeros(len(seeds))
        thrust = np.where(np.arange(len(seeds)) % 2 == 0, 1.0, -0.5)
        reported = np.zeros(len(seeds), dtype=int)
        while not batch.all_done:
            for i, world in enumerate(worlds):
                if not world.done:
                    world.tick(Control(steer[i], thrust[i]))
            result = batch.tick(steer, thrust)
            reported += result.collision_kind != KIND_NONE

        for i, world in enumerate(worlds):
            assert batch.step_count[i] == world.step_count
            assert batch.passed_npcs[i] == world.passed_npcs
            # A collision is reported on its tick only, not while the
            # frozen row stays in contact.
            assert reported[i] == len(world.collisions)
            collision = batch.collision(i)
            if world.collisions:
                expected = world.collisions[0]
                assert collision.kind is expected.kind
                assert collision.other == expected.other
                assert collision.step == expected.step
                assert collision.time == expected.time
            else:
                assert collision is None

        reach2 = batch._contact_reach * batch._contact_reach
        distance2 = batch.geometry().npc_distance2
        in_contact = [
            i
            for i in range(batch.n)
            if batch.collision_kind[i] != KIND_NONE
            and distance2[batch.collision_other[i], i] <= reach2
        ]
        assert len(in_contact) >= 4
        # Long after those rows froze, the batch was still ticking.
        first = min(batch.collision_step[i] for i in in_contact)
        assert batch.step_count.max() - first >= 100


class TestQueries:
    def test_frenet_and_gap_match_scalar(self):
        cfg = ScenarioConfig()
        batch = make_batch_world(cfg, seeds=SEEDS)
        worlds = [
            make_world(cfg, rng=np.random.default_rng(s)) for s in SEEDS
        ]
        s_arr, d_arr, _ = batch.ego_frenet()
        gaps = batch.geometry().nearest.distance
        for i, world in enumerate(worlds):
            s, d, _ = world.road.to_frenet(world.ego.state.position)
            assert s_arr[i] == pytest.approx(s, abs=1e-12)
            assert d_arr[i] == pytest.approx(d, abs=1e-12)
            nearest = world.npcs[world.geometry().nearest.index]
            gap = float(
                np.linalg.norm(
                    nearest.vehicle.state.position - world.ego.state.position
                )
            )
            assert gaps[i] == pytest.approx(gap, abs=1e-9)

    def test_explicit_state_constructor(self):
        cfg = ScenarioConfig()
        road = make_world(cfg).road
        n, m = 2, 1
        batch = BatchWorld(
            road,
            cfg,
            x=np.full((n, 1 + m), 30.0),
            y=np.zeros((n, 1 + m)),
            yaw=np.zeros((n, 1 + m)),
            speed=np.full((n, 1 + m), 5.0),
            npc_lane=np.zeros((n, m), dtype=np.int64),
            npc_target_speed=np.full((n, m), 6.0),
        )
        assert batch.n == n and batch.m == m
        assert not batch.all_done
        # The [N, 1 + M] and [N, M] attributes are views of the
        # actor-major buffers: a write through one shows in the other.
        assert batch.pose.shape == (4, 1 + m, n)
        assert batch.actuation.shape == (2, 1 + m, n)
        batch.x[1, 1] = 31.0
        assert batch.pose[0, 1, 1] == 31.0
        for view in (batch.x, batch.steer_act, batch.npc_lane, batch.passed):
            assert view.base is not None
        # The four pose arrays share one buffer, so each must have x's
        # shape; a narrower one would broadcast into it unnoticed.
        with pytest.raises(ValueError, match="shape"):
            BatchWorld(
                road,
                cfg,
                x=np.full((n, 1 + m), 30.0),
                y=np.zeros((n, 1)),
                yaw=np.zeros((n, 1 + m)),
                speed=np.full((n, 1 + m), 5.0),
                npc_lane=np.zeros((n, m), dtype=np.int64),
                npc_target_speed=np.full((n, m), 6.0),
            )
        # So must the NPC arrays be (n, m): a wider one used to fail only
        # at the first tick, a 1-D one to broadcast over the rows.
        for name, bad in [
            ("npc_lane", np.zeros((n, m + 1), dtype=np.int64)),
            ("npc_lane", np.zeros(m, dtype=np.int64)),
            ("npc_target_speed", np.full((n, m + 1), 6.0)),
            ("npc_target_speed", np.full(m, 6.0)),
            ("npc_target_speed", np.full((m, n), 6.0)),
        ]:
            arrays = {
                "npc_lane": np.zeros((n, m), dtype=np.int64),
                "npc_target_speed": np.full((n, m), 6.0),
                name: bad,
            }
            with pytest.raises(ValueError, match=name):
                BatchWorld(
                    road,
                    cfg,
                    x=np.full((n, 1 + m), 30.0),
                    y=np.zeros((n, 1 + m)),
                    yaw=np.zeros((n, 1 + m)),
                    speed=np.full((n, 1 + m), 5.0),
                    **arrays,
                )
