"""Evaluation: the canonical episode runner and the paper's metrics."""

from repro.eval.batch import run_episode_batch
from repro.eval.episodes import (
    EpisodeResult, run_episode, run_episodes, run_seeds,
)
from repro.eval.recorder import Trajectory, record_episode
from repro.eval.metrics import (
    HUMAN_REACTION_TIME,
    BoxStats,
    TimeToCollisionStats,
    adversarial_reward_stats,
    collision_rate,
    effort_windows,
    mean_deviation_rmse,
    nominal_reward_stats,
    reward_reduction,
    success_rate,
    time_to_collision_stats,
)

__all__ = [
    "BoxStats",
    "EpisodeResult",
    "Trajectory",
    "record_episode",
    "HUMAN_REACTION_TIME",
    "TimeToCollisionStats",
    "adversarial_reward_stats",
    "collision_rate",
    "effort_windows",
    "mean_deviation_rmse",
    "nominal_reward_stats",
    "reward_reduction",
    "run_episode",
    "run_episode_batch",
    "run_episodes",
    "run_seeds",
    "success_rate",
    "time_to_collision_stats",
]
