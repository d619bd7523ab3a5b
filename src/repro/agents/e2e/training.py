"""Training pipeline for the end-to-end driving agent.

The paper trains the driver with SAC against a reward shaped by a
privileged planner. On this repository's CPU-only numpy substrate the same
recipe is staged for tractability:

1. **Behaviour cloning** of the modular pipeline (the privileged agent)
   with exploration noise injected during collection, which supplies a
   driving-competent initialization in seconds.
2. **SAC refinement** on the shaped reward of Section III-C, which is the
   paper's actual objective; the refined checkpoint is kept only when its
   evaluation return improves on the warm start.

Both stages are exercised end-to-end in tests with tiny budgets; the
shipped checkpoints in ``artifacts/`` use the defaults below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.agents.e2e.agent import DRIVER_HIDDEN, EndToEndAgent
from repro.agents.e2e.env import DrivingEnv, SteerInjector
from repro.agents.e2e.observation import DrivingObservation
from repro.agents.modular.agent import ModularAgent
from repro.rl.bc import BcConfig, BehaviorCloner
from repro.rl.checkpoint import run_sac_loop
from repro.rl.policy import SquashedGaussianPolicy
from repro.rl.sac import Sac, SacConfig
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import make_world
from repro.sim.vehicle import Control
from repro.telemetry.log import get_logger
from repro.telemetry.trace import TraceWriter

log = get_logger("agents.e2e.training")


@dataclass
class DriverTrainConfig:
    """Budget and hyper-parameters for the two-stage driver training."""

    bc_episodes: int = 40
    #: Std of the exploration noise added to the *executed* action during
    #: collection (labels remain the expert's clean action).
    bc_action_noise: float = 0.15
    bc: BcConfig = field(default_factory=lambda: BcConfig(epochs=25))
    sac_steps: int = 8_000
    sac: SacConfig = field(
        default_factory=lambda: SacConfig(
            hidden=DRIVER_HIDDEN,
            batch_size=128,
            buffer_capacity=60_000,
            actor_lr=1e-4,
            critic_lr=3e-4,
            alpha=0.02,
            autotune_alpha=False,
            update_every=2,
        )
    )
    eval_episodes: int = 5
    seed: int = 0


def collect_expert_dataset(
    n_episodes: int,
    rng: np.random.Generator,
    action_noise: float = 0.0,
    scenario: ScenarioConfig | None = None,
    attacker: SteerInjector | None = None,
    expert_factory=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Roll out episodes, recording (observation, expert action) pairs.

    The expert (``expert_factory(road)``, default the modular pipeline)
    drives and labels every state, and ``attacker`` injects its steering
    perturbation into every tick (the adversarial-training datasets of
    Section VI). A nonzero
    ``action_noise`` perturbs the executed action (labels stay clean) so
    the dataset covers slightly off-nominal states; the noise is drawn
    from ``rng`` only when nonzero.
    """
    scenario = scenario or ScenarioConfig()
    expert_factory = expert_factory or ModularAgent
    encoder = DrivingObservation(reference_speed=scenario.ego_speed)
    observations: list[np.ndarray] = []
    actions: list[np.ndarray] = []
    for _ in range(n_episodes):
        world = make_world(scenario, rng=rng)
        expert = expert_factory(world.road)
        expert.reset(world)
        encoder.reset()
        if attacker is not None:
            attacker.reset(world)
        while not world.done:
            observations.append(encoder.observe(world))
            executed = expert.act(world)
            actions.append(np.array([executed.steer, executed.thrust]))
            if action_noise:
                noisy = np.clip(
                    np.array([executed.steer, executed.thrust])
                    + rng.normal(0.0, action_noise, size=2),
                    -1.0, 1.0,
                )
                executed = Control(steer=float(noisy[0]), thrust=float(noisy[1]))
            delta = 0.0 if attacker is None else attacker.delta(world, executed)
            world.tick(executed, steer_delta=delta)
    return np.asarray(observations), np.asarray(actions)


def evaluate_driver(
    agent: EndToEndAgent,
    n_episodes: int = 5,
    seed: int = 1_000,
    scenario: ScenarioConfig | None = None,
    injector: SteerInjector | None = None,
) -> dict[str, float]:
    """Mean shaped return / passes / collision rate over fresh episodes."""
    env = DrivingEnv(
        scenario=scenario,
        observation=agent.observation,
        rng=np.random.default_rng(seed),
        injector=injector,
    )
    returns, passes, collisions = [], [], 0
    for _ in range(n_episodes):
        obs = env.reset()
        agent.reset(env.world)
        total = 0.0
        done = False
        while not done:
            control = agent.act(env.world)
            obs, reward, done, info = env.step(
                np.array([control.steer, control.thrust])
            )
            total += reward
        returns.append(total)
        passes.append(info["passed_npcs"])
        collisions += int(info["collision"] is not None)
    return {
        "mean_return": float(np.mean(returns)),
        "mean_passed": float(np.mean(passes)),
        "collision_rate": collisions / n_episodes,
    }


def train_driver(
    config: DriverTrainConfig | None = None,
    progress: bool = False,
) -> tuple[EndToEndAgent, dict[str, float]]:
    """Run the full two-stage pipeline and return (agent, eval metrics)."""
    config = config or DriverTrainConfig()
    rng = np.random.default_rng(config.seed)

    observations, actions = collect_expert_dataset(
        config.bc_episodes, rng, config.bc_action_noise
    )
    encoder = DrivingObservation()
    policy = SquashedGaussianPolicy(
        encoder.observation_dim, 2, DRIVER_HIDDEN, rng=rng
    )
    cloner = BehaviorCloner(policy, config.bc, rng=rng)
    losses = cloner.fit(observations, actions)
    (log.info if progress else log.debug)(
        "bc.fit", dataset=len(observations), final_loss=float(losses[-1])
    )

    agent = EndToEndAgent(policy, observation=encoder)
    metrics = evaluate_driver(agent, config.eval_episodes, seed=10_000)
    (log.info if progress else log.debug)("bc.eval", **metrics)

    if config.sac_steps > 0:
        refined, refined_metrics = refine_driver_sac(
            policy, config, rng, progress=progress
        )
        if refined_metrics["mean_return"] >= metrics["mean_return"]:
            agent = EndToEndAgent(refined, observation=encoder)
            metrics = refined_metrics
    return agent, metrics


def refine_driver_sac(
    policy: SquashedGaussianPolicy,
    config: DriverTrainConfig,
    rng: np.random.Generator,
    injector: SteerInjector | None = None,
    progress: bool = False,
    trace: TraceWriter | None = None,
    loop_label: str = "sac-driver",
    scenario: ScenarioConfig | None = None,
) -> tuple[SquashedGaussianPolicy, dict[str, float]]:
    """SAC refinement of a warm-started policy on the shaped reward.

    Returns the refined policy and its evaluation metrics; the caller
    decides whether to keep it. The ``injector`` hook makes this the same
    primitive adversarial fine-tuning (Section VI-A) builds on. Training
    runs :func:`~repro.rl.checkpoint.run_sac_loop` under ``loop_label``,
    which emits ``train_step``/``update_health`` records into ``trace``
    and snapshots and resumes per ``config.sac``.
    """
    env = DrivingEnv(scenario=scenario, rng=rng, injector=injector)
    sac = Sac(
        env.observation_dim, env.action_dim, config.sac, rng=rng, actor=policy
    )
    run_sac_loop(
        sac, env, config.sac_steps, rng, loop_label, trace=trace,
        progress=progress,
    )

    agent = EndToEndAgent(policy, observation=DrivingObservation())
    metrics = evaluate_driver(
        agent, config.eval_episodes, seed=10_000, scenario=scenario
    )
    (log.info if progress else log.debug)(
        "sac.eval", loop=loop_label, **metrics
    )
    return policy, metrics
