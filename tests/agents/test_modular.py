"""Tests for the modular pipeline: PID, behaviour layer, and full agent."""

import math

import numpy as np
import pytest

from repro.agents.modular.behavior import BatchPlan
from repro.agents.modular.pid import BatchPid
from repro.agents.modular import (
    BehaviorConfig,
    BehaviorPlanner,
    GlobalRoutePlanner,
    LaneTransition,
    ModularAgent,
    Pid,
    PidGains,
)
from repro.sim import Control, make_world


class TestBatchPid:
    def test_rows_match_scalar_loops(self):
        """Row (k, i) of a stacked BatchPid is a scalar Pid with gains k
        fed episode i's errors, bit for bit."""
        gains = (
            PidGains(kp=1.9, ki=0.05, kd=0.25), PidGains(kp=0.55, ki=0.08)
        )
        rng = np.random.default_rng(2)
        batch = BatchPid(gains, dt=0.1, n=5)
        scalar = [[Pid(g, dt=0.1) for _ in range(5)] for g in gains]
        for _ in range(30):
            error = rng.uniform(-3.0, 3.0, (2, 5))
            out = batch.step(error)
            expected = [
                [pid.step(float(e)) for pid, e in zip(loops, row)]
                for loops, row in zip(scalar, error)
            ]
            assert out.tobytes() == np.array(expected).tobytes()


class TestPid:
    def test_proportional_only(self):
        pid = Pid(PidGains(kp=2.0), dt=0.1)
        assert pid.step(0.3) == pytest.approx(0.6)

    def test_output_saturates(self):
        pid = Pid(PidGains(kp=10.0), dt=0.1, output_limit=1.0)
        assert pid.step(5.0) == 1.0
        assert pid.step(-5.0) == -1.0

    def test_integral_accumulates(self):
        pid = Pid(PidGains(kp=0.0, ki=1.0), dt=0.1)
        first = pid.step(1.0)
        second = pid.step(1.0)
        assert second > first

    def test_integral_clamped(self):
        pid = Pid(PidGains(kp=0.0, ki=1.0), dt=0.1, integral_limit=0.2)
        for _ in range(100):
            out = pid.step(10.0)
        assert out == pytest.approx(0.2)

    def test_derivative_on_change(self):
        pid = Pid(PidGains(kp=0.0, kd=1.0), dt=0.1)
        assert pid.step(0.0) == 0.0  # no previous error yet
        assert pid.step(0.1) == pytest.approx(1.0)

    def test_reset(self):
        pid = Pid(PidGains(kp=1.0, ki=1.0, kd=1.0), dt=0.1)
        pid.step(1.0)
        pid.reset()
        assert pid.step(0.5) == pytest.approx(0.5 + 0.05)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            Pid(PidGains(kp=1.0), dt=0.0)


class TestLaneTransition:
    def test_endpoints(self):
        tr = LaneTransition(s0=10.0, d0=0.0, s1=30.0, d1=3.5)
        assert tr.offset(5.0) == 0.0
        assert tr.offset(10.0) == 0.0
        assert tr.offset(30.0) == 3.5
        assert tr.offset(40.0) == 3.5

    def test_midpoint_halfway(self):
        tr = LaneTransition(s0=0.0, d0=0.0, s1=20.0, d1=3.5)
        assert tr.offset(10.0) == pytest.approx(1.75)

    def test_monotone(self):
        tr = LaneTransition(s0=0.0, d0=-1.75, s1=20.0, d1=1.75)
        ss = np.linspace(0.0, 20.0, 50)
        ds = [tr.offset(s) for s in ss]
        assert all(b >= a - 1e-12 for a, b in zip(ds, ds[1:]))


class TestBehaviorPlanner:
    def test_reset_adopts_ego_lane(self, quiet_world):
        planner = BehaviorPlanner(quiet_world.road)
        planner.reset(quiet_world)
        assert planner.target_lane == 1

    def test_triggers_lane_change_near_leader(self, quiet_world):
        planner = BehaviorPlanner(quiet_world.road)
        planner.reset(quiet_world)
        changed = False
        for _ in range(60):
            if quiet_world.done:
                break
            plan = planner.update(quiet_world)
            changed = changed or plan.changing
            quiet_world.tick(Control(thrust=0.0))
        assert changed

    def test_cruises_at_target_speed_when_clear(self, quiet_world):
        # Remove all NPCs: plan should hold cruise speed with no transition.
        quiet_world.npcs.clear()
        planner = BehaviorPlanner(quiet_world.road)
        planner.reset(quiet_world)
        plan = planner.update(quiet_world)
        assert plan.target_speed == planner.config.target_speed
        assert not plan.changing

    def test_acc_slows_when_boxed_in(self, quiet_world):
        # Occupy every lane just ahead of the ego so no change is legal.
        road = quiet_world.road
        for lane, npc in enumerate(quiet_world.npcs[:4]):
            position, yaw = road.lane_center(lane, 50.0 + 2.0 * lane)
            npc.vehicle.teleport(
                position[0], position[1], yaw, quiet_world.config.npc_speed
            )
            npc.driver.lane = lane
        # A huge required front gap makes every occupied lane illegal.
        planner = BehaviorPlanner(road, BehaviorConfig(change_front_gap=1e9))
        planner.reset(quiet_world)
        plan = None
        for _ in range(40):
            if quiet_world.done:
                break
            plan = planner.update(quiet_world)
            quiet_world.tick(Control())
        assert plan.target_speed < planner.config.target_speed
        assert not plan.changing

    def test_reference_offset_continuous_across_change(self, quiet_world):
        planner = BehaviorPlanner(quiet_world.road)
        planner.reset(quiet_world)
        previous = None
        for _ in range(80):
            if quiet_world.done:
                break
            plan = planner.update(quiet_world)
            s, _, _ = quiet_world.road.to_frenet(quiet_world.ego.state.position)
            value = plan.reference_offset(s)
            if previous is not None:
                assert abs(value - previous) < 0.6
            previous = value
            quiet_world.tick(Control())


def where_reference_offset(plan: BatchPlan, s: np.ndarray) -> np.ndarray:
    """``BatchPlan.reference_offset`` as three ``np.where`` selections,
    the reference the buffered evaluation must equal bit for bit."""
    span = np.where(plan.changing, plan.s1 - plan.s0, 1.0)
    half_rise = (plan.d1 - plan.d0) * 0.5
    phase = np.clip((s - plan.s0) / span, 0.0, 1.0)
    blend = plan.d0 + half_rise * (1.0 - np.cos(math.pi * phase))
    offset = np.where(s <= plan.s0, plan.d0, blend)
    offset = np.where(s >= plan.s1, plan.d1, offset)
    return np.where(plan.changing, offset, plan.lane_offset)


class TestBatchPlanReference:
    @pytest.mark.parametrize("changing", ["none", "some", "all"])
    @pytest.mark.parametrize("points", [1, 3])
    def test_matches_the_where_reference(self, changing, points):
        rng = np.random.default_rng(points)
        n = 9
        s0 = rng.uniform(0.0, 300.0, n)
        plan = BatchPlan(
            target_lane=rng.integers(0, 3, n),
            target_speed=np.full(n, 16.0),
            lane_offset=rng.choice([-3.5, 0.0, 3.5], n),
            changing={
                "none": np.zeros(n, bool),
                "some": np.arange(n) % 2 == 0,
                "all": np.ones(n, bool),
            }[changing],
            s0=s0, d0=rng.uniform(-5.0, 5.0, n),
            s1=s0 + rng.uniform(16.0, 30.0, n), d1=rng.uniform(-5.0, 5.0, n),
        )
        # Before, on, inside and past each row's blend interval.
        s = s0 + rng.uniform(-10.0, 40.0, (points, n))
        s[0, 0], s[0, 1], s[0, 2] = plan.s0[0], plan.s1[1], -0.0
        s = s[0] if points == 1 else s
        got = plan.reference_offset(s)
        assert got.shape == s.shape
        assert got.tobytes() == where_reference_offset(plan, s).tobytes()


class TestGlobalRoutePlanner:
    def test_route_reaches_road_end(self, quiet_world):
        planner = GlobalRoutePlanner(quiet_world.road)
        route = planner.plan(quiet_world)
        assert route[-1].index == len(quiet_world.road.waypoints(1)) - 1

    def test_route_to_other_lane(self, quiet_world):
        planner = GlobalRoutePlanner(quiet_world.road)
        route = planner.plan(quiet_world, goal_lane=3)
        assert route[-1].lane == 3


class TestModularAgent:
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_clean_overtaking_episode(self, seed):
        """Paper Section III-B: passes all NPCs, no collisions, 180 steps."""
        world = make_world(rng=np.random.default_rng(seed))
        agent = ModularAgent(world.road)
        agent.reset(world)
        result = None
        while not world.done:
            result = world.tick(agent.act(world))
        assert result.collision is None
        assert world.passed_npcs == 6
        assert result.step == world.config.max_steps

    def test_tracking_error_small(self):
        world = make_world(rng=np.random.default_rng(3))
        agent = ModularAgent(world.road)
        agent.reset(world)
        deviations = []
        while not world.done:
            world.tick(agent.act(world))
            s, d, _ = world.road.to_frenet(world.ego.state.position)
            deviations.append(abs(d - agent.current_plan.reference_offset(s)))
        rmse = float(np.sqrt(np.mean(np.square(deviations))))
        assert rmse < 0.15  # meters; centimeter-level tracking

    def test_controls_within_mechanical_limits(self, quiet_world):
        agent = ModularAgent(quiet_world.road)
        agent.reset(quiet_world)
        for _ in range(60):
            if quiet_world.done:
                break
            control = agent.act(quiet_world)
            assert -1.0 <= control.steer <= 1.0
            assert -1.0 <= control.thrust <= 1.0
            quiet_world.tick(control)

    def test_reset_clears_plan(self, quiet_world):
        agent = ModularAgent(quiet_world.road)
        agent.reset(quiet_world)
        agent.act(quiet_world)
        assert agent.current_plan is not None
        agent.reset(quiet_world)
        assert agent.current_plan is None

    def test_recovers_from_injected_deviation(self, quiet_world):
        """PID feedback pulls the ego back after a transient perturbation
        (the mechanism behind the modular agent's resilience, Sec. V-B)."""
        agent = ModularAgent(quiet_world.road)
        agent.reset(quiet_world)
        quiet_world.npcs.clear()
        for _ in range(10):
            quiet_world.tick(agent.act(quiet_world))
        for _ in range(4):  # adversarial nudge to the left
            quiet_world.tick(agent.act(quiet_world), steer_delta=-1.0)
        deviations = []
        for _ in range(60):
            if quiet_world.done:
                break
            quiet_world.tick(agent.act(quiet_world))
            s, d, _ = quiet_world.road.to_frenet(quiet_world.ego.state.position)
            deviations.append(abs(d - agent.current_plan.reference_offset(s)))
        assert deviations[-1] < 0.3
