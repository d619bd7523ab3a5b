"""Adversarial training via fine-tuning (Section VI-A).

Produces the enhanced agents ``pi_adv,rho``: the end-to-end driver
re-trained in the presence of the camera attacker, with episode budgets
randomized over the 0..1 grid and the nominal-episode ratio ``rho``
controlling overfit to adversarial cases (the paper evaluates
``rho = 1/11`` and ``rho = 1/2``).

Two mechanisms are provided:

* :func:`adversarial_finetune` — fine-tuning by behaviour cloning: the
  privileged modular expert demonstrates recovery while the attacker is
  live; the policy is fine-tuned on the mixed nominal/adversarial dataset.
  Deterministic and CPU-cheap; used for the shipped checkpoints. The
  expert drives its own demonstrations: states reached by the student
  would diverge from the expert's own plan, which makes the labels
  mutually inconsistent.
* :func:`adversarial_finetune_sac` — the paper's literal recipe: SAC
  continues on the shaped driving reward with the attacker injected into
  the environment. Exercised in tests; needs a larger step budget to beat
  the imitation variant on this substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.agents.e2e.agent import EndToEndAgent
from repro.agents.e2e.observation import DrivingObservation
from repro.agents.e2e.training import (
    DriverTrainConfig,
    collect_expert_dataset,
    refine_driver_sac,
)
from repro.core.attackers import LearnedAttacker
from repro.defense.budget import BUDGET_GRID, BudgetRandomizedAttacker
from repro.rl.bc import BcConfig, BehaviorCloner
from repro.rl.policy import SquashedGaussianPolicy
from repro.sim.config import ScenarioConfig
from repro.telemetry.log import get_logger

log = get_logger("defense.finetune")


@dataclass
class FinetuneConfig:
    """Adversarial fine-tuning budget and hyper-parameters."""

    #: Ratio of nominal (zero-budget) episodes, the paper's rho.
    rho: float = 1.0 / 11.0
    #: Episodes of expert demonstrations collected.
    episodes: int = 44
    bc: BcConfig = field(
        default_factory=lambda: BcConfig(epochs=15, lr=3e-4)
    )
    budget_grid: tuple[float, ...] = BUDGET_GRID
    seed: int = 0


def adversarial_finetune(
    base: EndToEndAgent,
    attacker: LearnedAttacker,
    config: FinetuneConfig | None = None,
    progress: bool = False,
) -> EndToEndAgent:
    """Fine-tune a copy of ``base`` against ``attacker``; returns pi_adv,rho."""
    config = config or FinetuneConfig()
    rng = np.random.default_rng(config.seed)

    randomized = BudgetRandomizedAttacker(
        attacker, rho=config.rho, rng=rng, grid=config.budget_grid
    )
    policy = SquashedGaussianPolicy(
        base.policy.obs_dim, base.policy.action_dim, base.policy.hidden
    )
    policy.load_state_dict(base.policy.state_dict())
    agent = EndToEndAgent(policy, observation=DrivingObservation())
    cloner = BehaviorCloner(policy, config.bc, rng=rng)

    observations, actions = collect_expert_dataset(
        config.episodes, rng, attacker=randomized
    )
    losses = cloner.fit(observations, actions)
    (log.info if progress else log.debug)(
        "finetune.fit", rho=config.rho, dataset=len(observations),
        loss=float(losses[-1]),
    )
    agent.name = f"adv-finetuned(rho={config.rho:.2f})"
    return agent


def adversarial_finetune_sac(
    base: EndToEndAgent,
    attacker: LearnedAttacker,
    config: FinetuneConfig | None = None,
    sac_config: DriverTrainConfig | None = None,
    progress: bool = False,
    scenario: ScenarioConfig | None = None,
) -> EndToEndAgent:
    """The paper's literal method: SAC fine-tuning with attacks injected."""
    config = config or FinetuneConfig()
    sac_config = sac_config or DriverTrainConfig(sac_steps=6_000)
    rng = np.random.default_rng(config.seed)
    randomized = BudgetRandomizedAttacker(
        attacker, rho=config.rho, rng=rng, grid=config.budget_grid
    )
    policy = SquashedGaussianPolicy(
        base.policy.obs_dim, base.policy.action_dim, base.policy.hidden
    )
    policy.load_state_dict(base.policy.state_dict())
    refined, _metrics = refine_driver_sac(
        policy, sac_config, rng, injector=randomized, progress=progress,
        loop_label="sac-finetune", scenario=scenario,
    )
    agent = EndToEndAgent(refined, observation=DrivingObservation())
    agent.name = f"adv-finetuned-sac(rho={config.rho:.2f})"
    return agent
