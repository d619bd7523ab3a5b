"""Adversarial reward shaping (Section IV-D and IV-E).

The attacker's per-step reward is

    R_adv = C(lambda) + I(omega) * r_e2n + (1 - I(omega)) * p_m

* ``C(lambda)`` — terminal collision reward: ``+a`` for the desired side
  collision with an NPC, ``-a`` for any undesired collision (front,
  rear-end, or barrier), ``0`` otherwise.
* ``r_e2n`` — collision potential: the dot product of the unit vector from
  the ego to the closest NPC with the ego's velocity direction; maximized
  when the ego drives straight at the target.
* ``p_m`` — maneuver penalty: proportional to the injected perturbation,
  teaching the attacker to lurk outside safety-critical moments.
* ``I(omega)`` — the critical-moment indicator: 1 iff
  ``|omega| <= beta`` where ``omega`` is the dot product of the ego-to-NPC
  unit vector with the NPC's velocity direction and ``beta = cos(pi/6)``.

The IMU variant (Section IV-E) adds the learning-from-teacher term
``p_se``: the negative squared discrepancy between the student's and the
camera teacher's perturbations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.batch import KIND_BARRIER, KIND_NONE, KIND_SIDE
from repro.sim.collision import Collision, CollisionKind
from repro.sim.world import Nearest, World
from repro.utils.geometry import dot_planes, unit, unit_planes

#: The paper's critical-moment threshold, cos(pi/6).
BETA = math.cos(math.pi / 6.0)

#: ``lambda`` by the batch engine's collision code: 0 none, 1 side,
#: -1 undesired (front, rear, barrier).
_LAMBDA_BY_KIND = np.full(KIND_BARRIER + 1, -1.0)
_LAMBDA_BY_KIND[KIND_NONE] = 0.0
_LAMBDA_BY_KIND[KIND_SIDE] = 1.0


@dataclass(frozen=True)
class AdversarialRewardConfig:
    """Weights of the adversarial reward terms."""

    #: Magnitude ``a`` of the terminal collision reward.
    collision_reward: float = 10.0
    #: Critical-moment threshold on ``|omega|``.
    beta: float = BETA
    #: Weight of the maneuver penalty ``p_m`` (applied to ``|delta|``).
    maneuver_weight: float = 0.2
    #: Weight of the teacher-discrepancy penalty ``p_se`` (IMU training).
    teacher_weight: float = 1.0


@dataclass(frozen=True)
class AdversarialBreakdown:
    """Per-term diagnostics for one step."""

    collision: float
    potential: float
    maneuver: float
    teacher: float
    critical: bool

    @property
    def total(self) -> float:
        return self.collision + self.potential + self.maneuver + self.teacher


def collision_label(collision: Collision | None) -> int:
    """The paper's ``lambda``: 1 side collision, -1 undesired, 0 none."""
    if collision is None:
        return 0
    return 1 if collision.kind is CollisionKind.SIDE else -1


def critical_moment(world: World, beta: float = BETA) -> bool:
    """Whether the ego/nearest-NPC geometry is inside the attack window."""
    return _critical(world.geometry().nearest, beta)


def _critical(nearest: Nearest | None, beta: float) -> bool:
    return (
        nearest is not None
        and nearest.omega is not None
        and abs(nearest.omega) <= beta
    )


class AdversarialReward:
    """Computes ``R_adv`` (camera) or ``R_adv^IMU`` (with teacher term)."""

    def __init__(self, config: AdversarialRewardConfig | None = None) -> None:
        self.config = config or AdversarialRewardConfig()
        #: ``C(lambda)`` by the batch engine's collision code.
        self._collision_terms = self.config.collision_reward * _LAMBDA_BY_KIND

    def step(
        self,
        world: World,
        delta: float,
        collision: Collision | None,
        teacher_delta: float | None = None,
    ) -> AdversarialBreakdown:
        """Reward for the tick that just happened.

        Args:
            world: the world after ticking.
            delta: the perturbation the attacker injected this tick.
            collision: the tick's collision event, if any.
            teacher_delta: the camera teacher's action for the same state
                (only during IMU 'learning-from-teacher' training).
        """
        cfg = self.config
        label = collision_label(collision)
        collision_term = cfg.collision_reward * label

        nearest = world.geometry().nearest
        critical = _critical(nearest, cfg.beta)

        potential = 0.0
        maneuver = 0.0
        if critical:
            ego_dir = unit(world.ego.state.velocity)
            potential = float(nearest.direction @ ego_dir)
        else:
            maneuver = -cfg.maneuver_weight * abs(delta)

        teacher = 0.0
        if teacher_delta is not None:
            teacher = -cfg.teacher_weight * (delta - teacher_delta) ** 2

        return AdversarialBreakdown(
            collision=collision_term,
            potential=potential,
            maneuver=maneuver,
            teacher=teacher,
            critical=critical,
        )

    def step_batch(
        self,
        batch,
        delta: np.ndarray,
        collision_kind: np.ndarray,
    ) -> np.ndarray:
        """Per-episode ``R_adv`` totals for a batch tick, shape ``[N]``.

        Args:
            batch: the :class:`~repro.sim.batch.BatchWorld` after ticking.
            delta: perturbations injected this tick, ``[N]``.
            collision_kind: this tick's collision codes
                (:data:`repro.sim.batch.KIND_SIDE` etc., 0 = none).
        """
        cfg = self.config
        total = self._collision_terms.take(collision_kind)

        geometry = batch.geometry()
        nearest = geometry.nearest
        critical = np.abs(nearest.omega) <= cfg.beta
        critical &= nearest.moving

        # Potential inside the window, maneuver penalty outside, else 0.0.
        ego_dir, _ = unit_planes(geometry.ego_velocity)
        potential = dot_planes(nearest.direction, ego_dir)
        np.copyto(potential, 0.0, where=~critical)
        maneuver = np.abs(delta)
        maneuver *= -cfg.maneuver_weight
        np.copyto(maneuver, 0.0, where=critical)
        total += potential
        total += maneuver
        return total
