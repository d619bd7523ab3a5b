"""Fig. 4 — attack effects under various attack configurations.

Sweeps the attack budget over {0, 0.25, 0.5, 0.75, 1.0} for the camera-
and IMU-based attackers against the end-to-end driving agent, reporting
the distributions of (a) the cumulative nominal driving reward and (b) the
cumulative adversarial reward, plus the attack success rate.

Paper shapes to verify: the camera attack at epsilon = 1 cuts the nominal
reward by roughly 84%; camera beats IMU in mean adversarial reward and has
smaller variance; both rewards transition sharply between epsilon = 0.25
and 0.75.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.eval.episodes import EpisodeResult, run_episodes
from repro.eval.metrics import (
    BoxStats,
    adversarial_reward_stats,
    nominal_reward_stats,
    reward_reduction,
    success_rate,
)
from repro.experiments import registry
from repro.experiments.common import Table, fmt

#: The paper's budget grid for Fig. 4.
BUDGETS = (0.0, 0.25, 0.5, 0.75, 1.0)
ATTACKERS = ("camera", "imu")


@dataclass(frozen=True)
class Fig4Cell:
    """One (attacker, budget) sweep point."""

    attacker: str
    budget: float
    nominal: BoxStats
    adversarial: BoxStats
    success: float
    episodes: list[EpisodeResult]


@dataclass
class Fig4Result:
    cells: list[Fig4Cell]

    def cell(self, attacker: str, budget: float) -> Fig4Cell:
        for candidate in self.cells:
            if candidate.attacker == attacker and candidate.budget == budget:
                return candidate
        raise KeyError((attacker, budget))

    def reward_reduction(self, attacker: str, budget: float = 1.0) -> float:
        """Relative nominal-reward drop vs. the epsilon = 0 baseline."""
        baseline = self.cell("camera", 0.0).episodes
        attacked = self.cell(attacker, budget).episodes
        return reward_reduction(baseline, attacked)

    def table(self) -> Table:
        table = Table(
            "Fig. 4 — attack budget sweep (end-to-end victim)",
            [
                "attacker", "budget", "nominal mean", "nominal med",
                "adv mean", "adv med", "adv IQR", "success",
            ],
        )
        for cell in self.cells:
            table.add(
                cell.attacker,
                fmt(cell.budget),
                fmt(cell.nominal.mean, 1),
                fmt(cell.nominal.median, 1),
                fmt(cell.adversarial.mean, 1),
                fmt(cell.adversarial.median, 1),
                fmt(cell.adversarial.q3 - cell.adversarial.q1, 1),
                fmt(cell.success),
            )
        return table


def run(
    n_episodes: int = 30,
    seed: int = 42,
    budgets: tuple[float, ...] = BUDGETS,
) -> Fig4Result:
    """Run the Fig. 4 sweep with ``n_episodes`` per (attacker, budget).

    At budget 0 no attacker runs, so the camera and IMU rows share one
    run of the nominal episodes.
    """
    attackers = {
        "camera": registry.camera_attacker, "imu": registry.imu_attacker,
    }
    nominal = None
    cells: list[Fig4Cell] = []
    for attacker_kind in ATTACKERS:
        for budget in budgets:
            if budget == 0.0 and nominal is not None:
                episodes = nominal
            else:
                episodes = run_episodes(
                    registry.e2e_victim,
                    None if budget == 0.0
                    else partial(attackers[attacker_kind], budget),
                    n_episodes=n_episodes,
                    seed=seed,
                )
                if budget == 0.0:
                    nominal = episodes
            cells.append(
                Fig4Cell(
                    attacker=attacker_kind,
                    budget=budget,
                    nominal=nominal_reward_stats(episodes),
                    adversarial=adversarial_reward_stats(episodes),
                    success=success_rate(episodes),
                    episodes=episodes,
                )
            )
    return Fig4Result(cells)
