"""Training pipelines for the attack policies (Sections IV-D and IV-E).

* **Camera attacker** — behaviour-cloned from the scripted oracle (the
  model-based baseline), then refined with SAC on the adversarial reward
  ``R_adv`` in the black-box adversarial MDP. The refined policy is kept
  only if it improves the mean cumulative adversarial reward.
* **IMU attacker** — 'learning-from-teacher' (Section IV-E): the camera
  policy drives the attack while the student records IMU traces and the
  teacher's actions; the student is distilled supervised, then optionally
  refined with SAC on ``R_adv^IMU`` (which adds the ``p_se`` discrepancy
  term against the teacher).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.attack_env import AttackEnv, VictimFactory
from repro.core.attackers import (
    ATTACKER_HIDDEN,
    LearnedAttacker,
    OracleAttacker,
)
from repro.core.injection import InjectionChannel, InjectionChannelConfig
from repro.core.observations import CameraAttackObservation, ImuAttackObservation
from repro.eval.episodes import run_episodes
from repro.eval.metrics import success_rate
from repro.rl.bc import BcConfig, BehaviorCloner
from repro.rl.checkpoint import run_sac_loop
from repro.rl.policy import SquashedGaussianPolicy
from repro.rl.sac import Sac, SacConfig
from repro.sensors.base import Sensor
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import make_world
from repro.telemetry.log import get_logger

log = get_logger("core.training")


@dataclass
class AttackTrainConfig:
    """Budgets and hyper-parameters for attacker training."""

    bc_episodes: int = 30
    bc: BcConfig = field(default_factory=lambda: BcConfig(epochs=30))
    sac_steps: int = 6_000
    sac: SacConfig = field(
        default_factory=lambda: SacConfig(
            hidden=ATTACKER_HIDDEN,
            batch_size=128,
            buffer_capacity=40_000,
            actor_lr=2e-5,
            critic_lr=3e-4,
            alpha=0.005,
            autotune_alpha=False,
            update_every=2,
            actor_delay=1_500,
        )
    )
    #: Attack budget used during training (evaluation sweeps re-scale it).
    budget: float = 1.0
    #: Independent BC fits (different init seeds); the best by evaluated
    #: adversarial return is kept. Behaviour cloning of the bang-bang
    #: oracle is cheap but init-sensitive, so restarts buy robustness.
    bc_restarts: int = 3
    eval_episodes: int = 8
    seed: int = 0


def collect_demonstrations(
    teacher: OracleAttacker | LearnedAttacker,
    sensor: Sensor,
    victim_factory: VictimFactory,
    n_episodes: int,
    rng: np.random.Generator,
    scenario: ScenarioConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Attack rollouts driven by ``teacher`` and recorded through ``sensor``.

    The teacher (the scripted oracle, or the camera attacker for
    learning-from-teacher) exposes ``normalized_action`` and ``channel``
    and *executes* its attack, so the recorded observations carry the
    attack-induced motion the student must learn to recognize.

    Returns ``(observations, normalized_actions)`` where actions are the
    teacher's decisions in ``[-1, 1]``.
    """
    scenario = scenario or ScenarioConfig()
    observations: list[np.ndarray] = []
    actions: list[float] = []
    for _ in range(n_episodes):
        world = make_world(scenario, rng=rng)
        victim = victim_factory(world)
        victim.reset(world)
        teacher.reset(world)
        sensor.reset()
        while not world.done:
            observations.append(sensor.observe(world))
            action = teacher.normalized_action(world)
            actions.append(action)
            control = victim.act(world)
            world.tick(control, steer_delta=teacher.channel.inject(action))
    return np.asarray(observations), np.asarray(actions)[:, None]


def evaluate_attacker(
    attacker: LearnedAttacker,
    victim_factory: VictimFactory,
    n_episodes: int = 8,
    seed: int = 5_000,
) -> dict[str, float]:
    """Success rate and mean adversarial return over fresh episodes."""
    results = run_episodes(
        victim_factory,
        attacker_factory=lambda: attacker,
        n_episodes=n_episodes,
        seed=seed,
    )
    return {
        "success_rate": success_rate(results),
        "mean_adversarial_return": float(
            np.mean([r.adversarial_return for r in results])
        ),
        "mean_nominal_return": float(
            np.mean([r.nominal_return for r in results])
        ),
    }


def _make_attacker(
    policy: SquashedGaussianPolicy, sensor, budget: float, name: str
) -> LearnedAttacker:
    return LearnedAttacker(
        policy,
        sensor,
        channel=InjectionChannel(InjectionChannelConfig(budget=budget)),
        name=name,
    )


def _train_attacker(
    victim_factory: VictimFactory,
    config: AttackTrainConfig,
    rng: np.random.Generator,
    demonstrator: OracleAttacker | LearnedAttacker,
    sensor_type: type[Sensor],
    name: str,
    bc_label: str,
    loop_label: str,
    teacher: LearnedAttacker | None = None,
    progress: bool = False,
) -> tuple[LearnedAttacker, dict[str, float]]:
    """Clone ``demonstrator`` seen through ``sensor_type``, then refine.

    Fits ``bc_restarts`` policies on the demonstrations and keeps the
    best by evaluated mean adversarial return (ties broken by success
    rate). SAC then refines it in the adversarial MDP (``teacher`` adds
    the ``p_se`` term), and the refined weights are kept only if they
    do not lower the mean adversarial return.
    """
    observations, actions = collect_demonstrations(
        demonstrator, sensor_type(), victim_factory, config.bc_episodes, rng
    )
    sensor = sensor_type()
    policy: SquashedGaussianPolicy | None = None
    metrics: dict[str, float] | None = None
    for restart in range(max(config.bc_restarts, 1)):
        candidate = SquashedGaussianPolicy(
            sensor.observation_dim, 1, ATTACKER_HIDDEN, rng=rng
        )
        losses = BehaviorCloner(candidate, config.bc, rng=rng).fit(
            observations, actions
        )
        candidate_metrics = evaluate_attacker(
            _make_attacker(candidate, sensor, config.budget, bc_label),
            victim_factory,
            config.eval_episodes,
        )
        (log.info if progress else log.debug)(
            "bc.restart", label=bc_label, restart=restart,
            loss=float(losses[-1]), **candidate_metrics,
        )
        if metrics is None or (
            candidate_metrics["mean_adversarial_return"],
            candidate_metrics["success_rate"],
        ) > (metrics["mean_adversarial_return"], metrics["success_rate"]):
            policy, metrics = candidate, candidate_metrics
    attacker = _make_attacker(policy, sensor, config.budget, name)

    if config.sac_steps > 0:
        before = {k: v.copy() for k, v in policy.state_dict().items()}
        env = AttackEnv(
            victim_factory,
            sensor_type(),
            budget=config.budget,
            rng=rng,
            teacher=teacher,
        )
        sac = Sac(env.observation_dim, env.action_dim, config.sac, rng=rng,
                  actor=policy)
        run_sac_loop(sac, env, config.sac_steps, rng, loop_label,
                     progress=progress)
        refined_metrics = evaluate_attacker(
            attacker, victim_factory, config.eval_episodes
        )
        (log.info if progress else log.debug)(
            "sac.eval", loop=loop_label, **refined_metrics
        )
        if (
            refined_metrics["mean_adversarial_return"]
            >= metrics["mean_adversarial_return"]
        ):
            metrics = refined_metrics
        else:
            policy.load_state_dict(before)
    return attacker, metrics


def train_camera_attacker(
    victim_factory: VictimFactory,
    config: AttackTrainConfig | None = None,
    progress: bool = False,
) -> tuple[LearnedAttacker, dict[str, float]]:
    """Full camera-attacker pipeline; returns (attacker, eval metrics)."""
    config = config or AttackTrainConfig()
    return _train_attacker(
        victim_factory,
        config,
        np.random.default_rng(config.seed),
        demonstrator=OracleAttacker(budget=1.0),
        sensor_type=CameraAttackObservation,
        name="camera",
        bc_label="bc-attack",
        loop_label="sac-attack",
        progress=progress,
    )


def train_imu_attacker(
    teacher: LearnedAttacker,
    victim_factory: VictimFactory,
    config: AttackTrainConfig | None = None,
    progress: bool = False,
) -> tuple[LearnedAttacker, dict[str, float]]:
    """Learning-from-teacher pipeline for the covert IMU attacker."""
    config = config or AttackTrainConfig()
    return _train_attacker(
        victim_factory,
        config,
        np.random.default_rng(config.seed + 1),
        demonstrator=teacher,
        sensor_type=ImuAttackObservation,
        name="imu",
        bc_label="distill-imu",
        loop_label="sac-imu",
        teacher=teacher,
        progress=progress,
    )
