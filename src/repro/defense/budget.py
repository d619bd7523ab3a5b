"""Per-episode attack-budget randomization for adversarial training.

Section VI-A: "we randomly initiate the training episode with different
attack budgets ranging from 0 to 1 with a granularity of 0.1. Moreover, we
control the ratio of selecting zero attack budget (i.e., no attack) to
prevent overfitting to adversarial cases." ``rho`` is that ratio.
"""

from __future__ import annotations

import numpy as np

from repro.core.attackers import LearnedAttacker
from repro.sim.vehicle import Control
from repro.sim.world import World

#: The paper's budget grid: 0.0, 0.1, ..., 1.0.
BUDGET_GRID = tuple(round(0.1 * i, 1) for i in range(11))


class BudgetRandomizedAttacker:
    """Wraps an attacker, re-sampling its budget at each episode reset.

    With probability ``rho`` the episode is nominal (budget 0); otherwise
    the budget is drawn uniformly from the non-zero grid values.
    Implements the ``SteerInjector`` protocol.
    """

    def __init__(
        self,
        attacker: LearnedAttacker,
        rho: float,
        rng: np.random.Generator | None = None,
        grid: tuple[float, ...] = BUDGET_GRID,
    ) -> None:
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {rho}")
        self.base = attacker
        self.rho = float(rho)
        self.rng = rng or np.random.default_rng(0)
        self.grid = tuple(grid)
        self._nonzero = tuple(b for b in self.grid if b > 0.0)
        self._active: LearnedAttacker | None = None
        self.current_budget = 0.0

    def reset(self, world: World) -> None:
        if self.rng.random() < self.rho:
            self.current_budget = 0.0
            self._active = None
            return
        self.current_budget = float(self.rng.choice(self._nonzero))
        self._active = self.base.with_budget(self.current_budget)
        self._active.reset(world)

    def delta(self, world: World, control: Control) -> float:
        if self._active is None:
            return 0.0
        return self._active.delta(world, control)
