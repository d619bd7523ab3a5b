"""Shaped driving reward for the end-to-end agent (Section III-C).

Following the paper, the reward aggregates multiple driving goals:

* **trajectory following** — the dot product of the ego velocity with the
  unit vector toward a lookahead point on the privileged planner's
  reference path (the "waypoints vector" of [16]), normalized by the
  reference speed;
* **speed requirement** — a penalty on deviation from the planner's target
  speed;
* **path precision** — a penalty on lateral offset from the reference path;
* **safety** — a terminal collision penalty.

The same function is the "nominal driving reward" reported in Figs. 4(a)
and 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.agents.modular.behavior import Plan
from repro.sim.collision import Collision
from repro.sim.world import World
from repro.utils.geometry import unit, unit_rows


@dataclass(frozen=True)
class DrivingRewardConfig:
    """Weights of the shaped reward terms."""

    reference_speed: float = 16.0
    lookahead: float = 8.0
    speed_weight: float = 0.3
    deviation_weight: float = 0.4
    #: Terminal penalty for any collision (vehicle or barrier).
    collision_penalty: float = 10.0
    #: Extra per-step bonus for progress past NPC vehicles is implicit in
    #: the velocity dot product; no separate term is needed.


@dataclass(frozen=True)
class RewardBreakdown:
    """Per-term diagnostics, summed into ``total``."""

    progress: float
    speed: float
    deviation: float
    collision: float

    @property
    def total(self) -> float:
        return self.progress + self.speed + self.deviation + self.collision


class DrivingReward:
    """Computes the shaped per-step reward given the privileged plan."""

    def __init__(self, config: DrivingRewardConfig | None = None) -> None:
        self.config = config or DrivingRewardConfig()

    def step(
        self,
        world: World,
        plan: Plan,
        collision: Collision | None,
    ) -> RewardBreakdown:
        """Reward for the transition that just happened.

        Args:
            world: the world *after* ticking.
            plan: the privileged planner's current plan.
            collision: collision reported by the tick, if any.
        """
        cfg = self.config
        state = world.ego.state
        ego_s, ego_d, _ = world.geometry().ego

        target_s = ego_s + cfg.lookahead
        target_d = plan.reference_offset(target_s)
        target_xy, _ = world.road.to_world(target_s, target_d)
        waypoint_vector = unit(np.asarray(target_xy) - state.position)
        # Saturate at the reference speed: the speed *requirement* rewards
        # reaching 16 m/s along the path, not exceeding it (otherwise SAC
        # exploits the term by speeding, as the paper itself cautions).
        progress = min(
            float(state.velocity @ waypoint_vector) / cfg.reference_speed, 1.0
        )

        speed_error = abs(state.speed - plan.target_speed) / cfg.reference_speed
        speed = -cfg.speed_weight * speed_error

        deviation_m = abs(ego_d - plan.reference_offset(ego_s))
        deviation = -cfg.deviation_weight * (
            deviation_m / world.road.config.lane_width
        )

        collision_term = -cfg.collision_penalty if collision is not None else 0.0
        return RewardBreakdown(
            progress=progress,
            speed=speed,
            deviation=deviation,
            collision=collision_term,
        )

    def step_batch(
        self,
        batch,
        plan,
        collided: np.ndarray,
        deviation: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-episode reward totals for a batch tick, shape ``[N]``.

        Args:
            batch: the :class:`~repro.sim.batch.BatchWorld` after ticking.
            plan: the privileged :class:`BatchPlan` computed pre-tick.
            collided: boolean mask of episodes that collided this tick.
            deviation: each ego's distance from the reference path in lane
                widths, ``|d - plan.reference_offset(s)| / lane_width``,
                when the caller has worked it out already.
        """
        cfg = self.config
        geometry = batch.geometry()
        ego_s, ego_d, _ = geometry.ego

        target_s = ego_s + cfg.lookahead
        target_d = plan.reference_offset(target_s)
        target_xy, _ = batch.road.to_world_batch(target_s, target_d)
        unit_wp, _ = unit_rows(target_xy - geometry.ego_position)
        progress = np.minimum(
            np.einsum("nj,nj->n", geometry.ego_velocity, unit_wp)
            / cfg.reference_speed,
            1.0,
        )

        speed_error = (
            np.abs(batch.speed[:, 0] - plan.target_speed)
            / cfg.reference_speed
        )
        speed = -cfg.speed_weight * speed_error

        if deviation is None:
            deviation = (
                np.abs(ego_d - plan.reference_offset(ego_s))
                / batch.road.config.lane_width
            )
        precision = -cfg.deviation_weight * deviation
        collision = np.where(collided, -cfg.collision_penalty, 0.0)
        return progress + speed + precision + collision
