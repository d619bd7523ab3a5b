"""Fig. 8 — attack success rate per attack-effort window.

Windows the Fig. 5 (nominal agent) and Fig. 7 (enhanced agents) episodes
along the attack-effort axis with width 0.2 from 0.0 to 0.8+, and reports
the attack success rate per window for all five agents.

Paper shape to verify: the fine-tuned agents show higher success rates
than the PNN agents across windows, and the nominal agent is worst.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.episodes import EpisodeResult, run_episodes
from repro.eval.metrics import effort_windows
from repro.experiments import registry
from repro.experiments.common import Table, fmt
from repro.experiments.fig5 import BUDGETS
from repro.experiments.fig6 import victim_factory_for
from repro.experiments.fig7 import AGENTS as ENHANCED_AGENTS
from repro.experiments.fig7 import Fig7Result, run as run_fig7

AGENTS = ("original", *ENHANCED_AGENTS)


@dataclass
class Fig8Result:
    episodes: dict[str, list[EpisodeResult]]
    window: float = 0.2

    def windows(self, agent: str) -> list[tuple[str, float, int]]:
        return effort_windows(
            [e for e in self.episodes[agent] if e.mean_effort > 0.0],
            window=self.window,
        )

    def overall_success(self, agent: str) -> float:
        attacked = [e for e in self.episodes[agent] if e.mean_effort > 0.0]
        if not attacked:
            return 0.0
        return sum(e.attack_successful for e in attacked) / len(attacked)

    def table(self) -> Table:
        labels = [label for label, _, _ in self.windows(AGENTS[0])]
        table = Table(
            "Fig. 8 — attack success rate per attack-effort window",
            ["agent", *labels, "overall"],
        )
        for agent in self.episodes:
            rows = self.windows(agent)
            table.add(
                agent,
                # "–" marks a window with no episode, not a 0.00 rate.
                *[fmt(rate) if n else "–" for _, rate, n in rows],
                fmt(self.overall_success(agent)),
            )
        return table


def run(
    rounds: int = 10,
    seed: int = 300,
    budgets: tuple[float, ...] = BUDGETS,
    fig7: Fig7Result | None = None,
) -> Fig8Result:
    """Run (or reuse) the enhanced-agent sweep and add the nominal agent."""
    episodes: dict[str, list[EpisodeResult]] = {}
    original: list[EpisodeResult] = []
    for budget in budgets:
        if budget == 0.0:
            continue
        original.extend(
            run_episodes(
                victim_factory_for("original", budget),
                lambda b=budget: registry.camera_attacker(b),
                n_episodes=rounds,
                seed=seed,
            )
        )
    episodes["original"] = original
    if fig7 is None:
        fig7 = run_fig7(rounds=rounds, seed=seed, budgets=budgets)
    for agent in ENHANCED_AGENTS:
        episodes[agent] = fig7.episodes[agent]
    return Fig8Result(episodes=episodes)
