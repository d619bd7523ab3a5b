"""Tests for the EXPERIMENTS.md report generator and the claims registry."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import claims, registry
from repro.obsv.compare import StatConfig, permutation_test

REQUIRED = [
    registry.E2E_DRIVER,
    registry.CAMERA_ATTACKER_E2E,
    registry.CAMERA_ATTACKER_MODULAR,
    registry.IMU_ATTACKER,
    registry.FINETUNED_RHO_11,
    registry.FINETUNED_RHO_2,
    registry.PNN_COLUMN,
]

needs_artifacts = pytest.mark.skipif(
    not all(registry.has_artifact(name) for name in REQUIRED),
    reason="shipped artifacts missing; run examples/train_all.py",
)

STATUSES = ("reproduced", "NOT reproduced")


@needs_artifacts
def test_report_generation_tiny(tmp_path):
    from repro.experiments.report import generate

    path = generate(tmp_path / "EXPERIMENTS.md", episodes=2, rounds=1)
    text = path.read_text()
    assert "# EXPERIMENTS" in text
    assert "Fig. 4" in text
    assert "Fig. 8" in text
    assert "| paper claim | paper | measured | status |" in text
    # Every section rendered a table.
    assert text.count("```") >= 12
    # The claim rows are the registry's claims, in order, and every rule
    # evaluated on the tiny results.
    rows = [
        line.strip("| ").split(" | ")
        for line in text.splitlines()
        if line.endswith(tuple(f"| {status} |" for status in STATUSES))
    ]
    assert [row[0] for row in rows] == [c.statement for c in claims.CLAIMS]
    assert [row[1] for row in rows] == [c.paper for c in claims.CLAIMS]
    assert all(row[-1] in STATUSES for row in rows)
    assert "(episodes per cell: headline 2, Fig. 4 2, Fig. 6 6;" in text


def test_sizes_are_the_paper_protocol():
    assert claims.SIZES == {
        "headline": 30, "fig4": 30, "fig5": 10, "fig6": 15, "fig7": 10,
        "fig8": 10,
    }
    assert claims.sizes(2, 1) == {
        "headline": 2, "fig4": 2, "fig5": 1, "fig6": 6, "fig7": 1, "fig8": 1,
    }


def test_every_claim_belongs_to_a_figure():
    figures = {"headline", "fig4", "fig5", "fig6", "fig7", "fig8"}
    assert {claim.figure for claim in claims.CLAIMS} == figures
    statements = [claim.statement for claim in claims.CLAIMS]
    assert len(set(statements)) == len(statements)


@pytest.mark.parametrize(
    "cut, ttc, expected",
    [
        (0.86, (0.6, 0.9), [True] * 6),
        (0.86, (None, None), [True] * 4 + [False, False]),
        (0.86, (1.3, 1.4), [True] * 4 + [False, True]),
        (0.6, (0.6, 0.9), [True] * 3 + [False] + [True] * 2),
        (1.2, (0.6, 0.9), [True] * 3 + [False] + [True] * 2),
    ],
)
def test_headline_rules(cut, ttc, expected):
    """Each headline rule holds both old codings: the report's
    reduction > 0.6 and the bench's <= 1.0, and a missing time-to-collision
    fails its rows."""
    from repro.experiments.headline import HeadlineResult

    result = HeadlineResult(6.0, 180.0, 0.0, cut, *ttc)
    verdicts = claims.verdicts("headline", result)
    assert [holds for _, _, holds in verdicts] == expected


def episodes(returns):
    return [SimpleNamespace(nominal_return=float(r)) for r in returns]


class TestNominalRewardPValue:
    """The Fig. 4 row's p-value: paired, seeded, bit-reproducible."""

    def test_paired_and_seeded(self):
        # Widely spread rewards, each attacked seed exactly 1.0 lower: only
        # a paired test sees the shift, and no sign flip reaches it.
        base = np.arange(30) * 10.0
        p = claims.nominal_reward_p_value(episodes(base), episodes(base - 1))
        config = StatConfig()
        assert p == 1 / (config.resamples + 1)
        assert p == claims.nominal_reward_p_value(
            episodes(base), episodes(base - 1)
        )
        unpaired = permutation_test(
            base, base - 1, config.rng("nominal_return"), config.resamples,
            paired=False,
        )
        assert unpaired > 0.5

    def test_identical_rewards_are_not_separated(self):
        same = episodes([3, 5, 8])
        assert claims.nominal_reward_p_value(same, same) == 1.0

    def test_nominal_vs_attacked_episodes(self):
        from repro.agents.modular import ModularAgent
        from repro.core import OracleAttacker
        from repro.eval import run_episodes

        def victim(world):
            return ModularAgent(world.road)

        nominal = run_episodes(victim, None, n_episodes=3, seed=0)
        attacked = run_episodes(
            victim, lambda: OracleAttacker(budget=1.0), n_episodes=3, seed=0
        )
        a = np.array([e.nominal_return for e in nominal])
        b = np.array([e.nominal_return for e in attacked])
        assert a.mean() > b.mean()
        config = StatConfig()
        assert claims.nominal_reward_p_value(nominal, attacked) == (
            permutation_test(
                a, b, config.rng("nominal_return"), config.resamples,
                paired=True,
            )
        )
