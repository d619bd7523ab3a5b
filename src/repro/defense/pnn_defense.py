"""Model enhancement with progressive neural networks (Section VI-B).

The original driving policy becomes the frozen first column; a second
column with lateral connections is trained on adversarial episodes only.
At run time a Simplex-style *switcher* selects the original policy when
the (estimated) attack budget is at most ``sigma`` and the adversarially
trained column otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.agents.base import DrivingAgent
from repro.agents.e2e.agent import EndToEndAgent
from repro.agents.e2e.observation import DrivingObservation
from repro.agents.e2e.training import collect_expert_dataset
from repro.core.attackers import LearnedAttacker
from repro.defense.budget import BudgetRandomizedAttacker
from repro.defense.rescue import RescueConfig, RescueExpert
from repro.rl.bc import BcConfig, BehaviorCloner
from repro.rl.pnn import ProgressivePolicy
from repro.rl.policy import SquashedGaussianPolicy
from repro.sim.vehicle import Control
from repro.sim.world import World
from repro.telemetry.log import get_logger

log = get_logger("defense.pnn")


@dataclass
class PnnTrainConfig:
    """Training budget for the adversarial (second) PNN column."""

    #: Adversarial episodes to collect per round (all with non-zero attack
    #: budgets: the second column specializes in adversarial scenarios).
    #: The from-scratch column must learn both driving and recovery, so it
    #: gets a larger dataset than the fine-tuned agents.
    episodes: int = 120
    #: DAgger rounds after the initial expert-driven round (disabled by
    #: default; see FinetuneConfig.dagger_rounds).
    dagger_rounds: int = 0
    #: Labelling expert factory. ``None`` selects the mildly
    #: rescue-augmented expert (brake + boosted counter-steer once the
    #: hijack deviation exceeds ~a quarter lane): the adversarial column is
    #: a dedicated recovery policy, unlike the fine-tuned agents which stay
    #: close to nominal behaviour.
    expert_factory: object = None
    bc: BcConfig = field(default_factory=lambda: BcConfig(epochs=30, lr=5e-4))
    seed: int = 0


def train_pnn_column(
    base: EndToEndAgent,
    attacker: LearnedAttacker,
    config: PnnTrainConfig | None = None,
    progress: bool = False,
) -> ProgressivePolicy:
    """Train the adversarial column on top of the frozen base policy."""
    config = config or PnnTrainConfig()
    rng = np.random.default_rng(config.seed)
    expert_factory = config.expert_factory
    if expert_factory is None:
        expert_factory = lambda road: RescueExpert(
            road,
            RescueConfig(
                deviation_threshold=0.9,
                brake_command=-0.5,
                counter_steer_gain=1.5,
            ),
        )

    # Freeze a copy of the base policy as column 1.
    column1 = SquashedGaussianPolicy(
        base.policy.obs_dim, base.policy.action_dim, base.policy.hidden
    )
    column1.load_state_dict(base.policy.state_dict())
    progressive = ProgressivePolicy(column1, rng=rng)

    # Adversarial episodes only (rho = 0: every episode carries an attack).
    randomized = BudgetRandomizedAttacker(attacker, rho=0.0, rng=rng)
    cloner = BehaviorCloner(progressive, config.bc, rng=rng)
    observations, actions = collect_expert_dataset(
        config.episodes, rng, attacker=randomized, expert_factory=expert_factory
    )
    losses = cloner.fit(observations, actions)
    student = EndToEndAgent(progressive, observation=DrivingObservation())
    for _ in range(config.dagger_rounds):
        new_obs, new_actions = collect_expert_dataset(
            config.episodes, rng, attacker=randomized, student=student,
            expert_factory=expert_factory,
        )
        observations = np.concatenate([observations, new_obs])
        actions = np.concatenate([actions, new_actions])
        losses = cloner.fit(observations, actions)
    (log.info if progress else log.debug)(
        "pnn.fit", dataset=len(observations), loss=float(losses[-1])
    )
    return progressive


class SimplexSwitchedAgent(DrivingAgent):
    """Simplex-architecture driving agent (Section VI-B, [30], [31]).

    Switches between the original policy (column 1) and the adversarially
    trained PNN column based on the attack budget: the original is used
    when ``budget <= sigma``. Per the paper this makes the idealized
    assumption that the switcher knows the attack budget; in practice a
    detector's perturbation-magnitude estimate would stand in for it —
    which :meth:`estimate_budget_from` models by reading the observed
    budget from an attacker's channel.
    """

    def __init__(
        self,
        original: EndToEndAgent,
        hardened_policy: ProgressivePolicy,
        sigma: float = 0.2,
    ) -> None:
        if sigma < 0.0:
            raise ValueError("sigma must be non-negative")
        self.original = original
        self.hardened = EndToEndAgent(
            hardened_policy, observation=DrivingObservation()
        )
        self.sigma = float(sigma)
        #: The switcher's current attack-budget estimate.
        self.believed_budget = 0.0
        self.name = f"pnn(sigma={sigma:.1f})"

    def inform_budget(self, budget: float) -> None:
        """Feed the switcher its (idealized) attack-budget knowledge."""
        self.believed_budget = float(budget)

    def estimate_budget_from(self, attacker) -> None:
        """Estimate the budget from an attacker's channel (proxy detector)."""
        self.inform_budget(float(getattr(attacker, "budget", 0.0)))

    @property
    def active(self) -> EndToEndAgent:
        """The sub-agent the switcher currently routes to."""
        if self.believed_budget <= self.sigma:
            return self.original
        return self.hardened

    def reset(self, world: World) -> None:
        self.original.reset(world)
        self.hardened.reset(world)

    def act(self, world: World) -> Control:
        # Both encoders observe every tick so a mid-episode switch would
        # see warm frame stacks; routing itself is by believed budget.
        chosen = self.active
        other = self.hardened if chosen is self.original else self.original
        control = chosen.act(world)
        other.observation.observe(world)
        return control
