"""Tests for aggregate metrics: box stats, success rates, effort windows."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.eval.episodes import EpisodeResult
from repro.eval.metrics import (
    HUMAN_REACTION_TIME,
    BoxStats,
    adversarial_reward_stats,
    collision_rate,
    effort_windows,
    mean_deviation_rmse,
    nominal_reward_stats,
    reward_reduction,
    success_rate,
    time_to_collision_stats,
)
from repro.sim.collision import Collision, CollisionKind


def make_result(
    nominal=100.0,
    adversarial=0.0,
    side=False,
    collided=False,
    effort=0.0,
    ttc=None,
    deviation=0.02,
):
    collision = None
    if collided or side:
        collision = Collision(
            kind=CollisionKind.SIDE if side else CollisionKind.FRONT,
            ego="ego",
            other="npc_0",
            step=40,
            time=4.0,
        )
    return EpisodeResult(
        steps=40 if collision else 180,
        duration=4.0 if collision else 18.0,
        collision=collision,
        passed_npcs=6,
        nominal_return=nominal,
        adversarial_return=adversarial,
        mean_effort=effort,
        deviation_rmse=deviation,
        deviation_max=deviation * 3.0,
        time_to_collision=ttc,
    )


class TestBoxStats:
    def test_from_values(self):
        stats = BoxStats.from_values([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.mean == 3.0
        assert stats.median == 3.0
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0
        assert stats.q1 == 2.0
        assert stats.q3 == 4.0

    def test_empty_yields_nan_stats(self):
        stats = BoxStats.from_values([])
        for value in (stats.mean, stats.median, stats.q1, stats.q3,
                      stats.minimum, stats.maximum):
            assert np.isnan(value)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    @example([43.42425751888423] * 3)  # arr.mean() lands one ulp below
    @settings(max_examples=30)
    def test_invariants(self, values):
        stats = BoxStats.from_values(values)
        assert stats.minimum <= stats.q1 <= stats.median <= stats.q3
        assert stats.q3 <= stats.maximum
        assert stats.minimum <= stats.mean <= stats.maximum


class TestRates:
    def test_success_rate(self):
        results = [make_result(side=True), make_result(), make_result()]
        assert success_rate(results) == pytest.approx(1.0 / 3.0)

    def test_collision_rate_counts_all_kinds(self):
        results = [make_result(side=True), make_result(collided=True), make_result()]
        assert collision_rate(results) == pytest.approx(2.0 / 3.0)

    def test_empty_is_zero(self):
        assert success_rate([]) == 0.0
        assert collision_rate([]) == 0.0


class TestRewardAggregates:
    def test_nominal_and_adversarial_stats(self):
        results = [make_result(nominal=10.0, adversarial=-1.0),
                   make_result(nominal=20.0, adversarial=3.0)]
        assert nominal_reward_stats(results).mean == 15.0
        assert adversarial_reward_stats(results).mean == 1.0

    def test_reward_reduction(self):
        nominal = [make_result(nominal=100.0)]
        attacked = [make_result(nominal=16.0)]
        assert reward_reduction(nominal, attacked) == pytest.approx(0.84)

    def test_reward_reduction_zero_baseline(self):
        with pytest.raises(ValueError):
            reward_reduction([make_result(nominal=0.0)], [make_result()])

    def test_mean_deviation(self):
        results = [make_result(deviation=0.02), make_result(deviation=0.04)]
        assert mean_deviation_rmse(results) == pytest.approx(0.03)

    def test_mean_deviation_empty_is_nan(self):
        assert np.isnan(mean_deviation_rmse([]))


class TestTimeToCollision:
    def test_only_successful_counted(self):
        results = [
            make_result(side=True, ttc=0.8),
            make_result(side=True, ttc=1.2),
            make_result(collided=True, ttc=0.1),  # not a side collision
            make_result(),
        ]
        stats = time_to_collision_stats(results)
        assert stats.count == 2
        assert stats.mean == pytest.approx(1.0)
        assert stats.minimum == pytest.approx(0.8)

    def test_none_when_no_successes(self):
        assert time_to_collision_stats([make_result()]) is None

    def test_beats_human_reaction(self):
        fast = time_to_collision_stats([make_result(side=True, ttc=0.9)])
        slow = time_to_collision_stats([make_result(side=True, ttc=2.0)])
        assert fast.beats_human_reaction
        assert not slow.beats_human_reaction
        assert HUMAN_REACTION_TIME == 1.25


class TestEffortWindows:
    def test_window_labels(self):
        rows = effort_windows([make_result(effort=0.1)])
        labels = [label for label, _, _ in rows]
        assert labels == [
            "[0.0,0.2)", "[0.2,0.4)", "[0.4,0.6)", "[0.6,0.8)", "0.8+",
        ]

    def test_rates_per_window(self):
        results = [
            make_result(effort=0.1, side=True),
            make_result(effort=0.15),
            make_result(effort=0.5, side=True),
            make_result(effort=0.95, side=True),
        ]
        rows = dict(
            (label, (rate, n)) for label, rate, n in effort_windows(results)
        )
        assert rows["[0.0,0.2)"] == (0.5, 2)
        assert rows["[0.4,0.6)"] == (1.0, 1)
        assert rows["0.8+"] == (1.0, 1)
        assert rows["[0.2,0.4)"] == (0.0, 0)

    def test_last_window_open_ended(self):
        results = [make_result(effort=5.0, side=True)]
        rows = dict(
            (label, n) for label, _, n in effort_windows(results)
        )
        assert rows["0.8+"] == 1

    def test_empty_results_give_all_zero_windows(self):
        rows = effort_windows([])
        assert len(rows) == 5
        assert all(rate == 0.0 and n == 0 for _, rate, n in rows)

    def test_custom_window_and_upper(self):
        results = [
            make_result(effort=0.3, side=True),
            make_result(effort=0.6),
        ]
        rows = effort_windows(results, window=0.5, upper=0.5)
        assert [label for label, _, _ in rows] == ["[0.0,0.5)", "0.5+"]
        assert rows[0][1:] == (1.0, 1)
        assert rows[1][1:] == (0.0, 1)

    def test_boundary_effort_lands_in_upper_window(self):
        # Exactly on a window edge: half-open intervals put it above.
        rows = dict(
            (label, n) for label, _, n in
            effort_windows([make_result(effort=0.4)])
        )
        assert rows["[0.4,0.6)"] == 1
        assert rows["[0.2,0.4)"] == 0

    def test_window_rates_weighted_by_membership_not_order(self):
        results = [
            make_result(effort=0.45, side=True),
            make_result(effort=0.55),
            make_result(effort=0.50, side=True),
        ]
        rows = dict(
            (label, (rate, n)) for label, rate, n in effort_windows(results)
        )
        assert rows["[0.4,0.6)"] == (pytest.approx(2.0 / 3.0), 3)


class TestTimeToCollisionDirect:
    """Direct coverage of time_to_collision_stats edge cases."""

    def test_missing_ttc_on_success_is_skipped(self):
        # A successful attack whose ttc was never dated (no strike seen)
        # must not poison the aggregate.
        results = [
            make_result(side=True, ttc=None),
            make_result(side=True, ttc=0.5),
        ]
        stats = time_to_collision_stats(results)
        assert stats.count == 1
        assert stats.mean == pytest.approx(0.5)

    def test_empty_results_give_none(self):
        assert time_to_collision_stats([]) is None

    def test_minimum_not_greater_than_mean(self):
        stats = time_to_collision_stats(
            [make_result(side=True, ttc=t) for t in (0.4, 0.9, 1.6)]
        )
        assert stats.minimum <= stats.mean
        assert stats.count == 3
