"""Aggregate metrics over evaluation episodes.

These are the quantities the paper's evaluation section reports: attack
success rate, reward distributions (box-plot statistics), windowed success
rates over attack effort (Fig. 8), and time-to-collision summaries compared
against the human-driver reaction-time floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.episodes import EpisodeResult

#: Minimum reaction time of the best human driver in complex real-world
#: conditions, seconds (paper Section V-B, citing [28]).
HUMAN_REACTION_TIME = 1.25


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary (plus mean) matching the paper's box plots."""

    mean: float
    median: float
    q1: float
    q3: float
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, values) -> "BoxStats":
        """Summarize a sample; an empty sample yields all-NaN stats
        (experiment cells can legitimately be empty, e.g. an effort
        window no episode landed in)."""
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            nan = float("nan")
            return cls(nan, nan, nan, nan, nan, nan)
        minimum, maximum = float(arr.min()), float(arr.max())
        return cls(
            # Floating-point summation can land the mean an ulp outside
            # the sample's range (e.g. three equal values); clamp it.
            mean=min(max(float(arr.mean()), minimum), maximum),
            median=float(np.median(arr)),
            q1=float(np.percentile(arr, 25)),
            q3=float(np.percentile(arr, 75)),
            minimum=minimum,
            maximum=maximum,
        )


def success_rate(results: list[EpisodeResult]) -> float:
    """Fraction of episodes ending in the desired side collision.

    An empty result list reports 0.0 (no episodes, no successes) — the
    same convention :func:`effort_windows` uses for empty windows.
    """
    if not results:
        return 0.0
    return sum(r.attack_successful for r in results) / len(results)


def collision_rate(results: list[EpisodeResult]) -> float:
    """Fraction of episodes ending in any collision (0.0 when empty)."""
    if not results:
        return 0.0
    return sum(r.collision is not None for r in results) / len(results)


def nominal_reward_stats(results: list[EpisodeResult]) -> BoxStats:
    return BoxStats.from_values(r.nominal_return for r in results)


def adversarial_reward_stats(results: list[EpisodeResult]) -> BoxStats:
    return BoxStats.from_values(r.adversarial_return for r in results)


def mean_deviation_rmse(results: list[EpisodeResult]) -> float:
    """Average trajectory tracking error (Fig. 7 headline numbers).

    NaN when there are no episodes — unlike a rate, there is no neutral
    value for an average error, and NaN propagates visibly.
    """
    if not results:
        return float("nan")
    return float(np.mean([r.deviation_rmse for r in results]))


def reward_reduction(
    nominal: list[EpisodeResult], attacked: list[EpisodeResult]
) -> float:
    """Relative drop of the mean nominal driving reward under attack
    (the paper's 'approximately 84%' headline for the camera attack)."""
    base = float(np.mean([r.nominal_return for r in nominal]))
    under = float(np.mean([r.nominal_return for r in attacked]))
    if base == 0.0:
        raise ValueError("nominal baseline reward is zero")
    return (base - under) / abs(base)


@dataclass(frozen=True)
class TimeToCollisionStats:
    """Summary of attack-initiation-to-collision times (Section V-B)."""

    mean: float
    minimum: float
    count: int

    @property
    def beats_human_reaction(self) -> bool:
        """Whether the mean collision time undercuts the best human
        driver's 1.25 s reaction-time floor."""
        return self.mean < HUMAN_REACTION_TIME


def time_to_collision_stats(
    results: list[EpisodeResult],
) -> TimeToCollisionStats | None:
    """Statistics over successful attacks only; None when there are none."""
    times = [
        r.time_to_collision
        for r in results
        if r.attack_successful and r.time_to_collision is not None
    ]
    if not times:
        return None
    return TimeToCollisionStats(
        mean=float(np.mean(times)), minimum=float(np.min(times)), count=len(times)
    )


def effort_windows(
    results: list[EpisodeResult],
    window: float = 0.2,
    upper: float = 0.8,
) -> list[tuple[str, float, int]]:
    """Attack success rate per attack-effort window (Fig. 8).

    Windows the episodes along the mean-effort axis with the given width
    from 0 up to ``upper``; the final window is open-ended (``0.8+``).

    Returns:
        A list of ``(label, success_rate, n_episodes)`` per window; windows
        with no episodes report a rate of 0.0.
    """
    edges = np.arange(0.0, upper + 1e-9, window)
    rows: list[tuple[str, float, int]] = []
    for low in edges:
        high = low + window
        is_last = low >= upper - 1e-9
        if is_last:
            bucket = [r for r in results if r.mean_effort >= low]
            label = f"{low:.1f}+"
        else:
            bucket = [r for r in results if low <= r.mean_effort < high]
            label = f"[{low:.1f},{high:.1f})"
        rows.append((label, success_rate(bucket), len(bucket)))
    return rows
