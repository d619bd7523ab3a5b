"""Fig. 4 bench — attack effects under various attack configurations.

Reproduces both panels, (a) nominal driving reward and (b) adversarial
reward distributions across attack budgets {0, 0.25, 0.5, 0.75, 1.0} for
the camera- and IMU-based attacks on the end-to-end agent, at the claims
registry's size (30 episodes per cell, as in the paper), and asserts
that none of Fig. 4's claims (``repro.experiments.claims``) fails.
"""

import pytest

from repro.experiments import claims, fig4


@pytest.mark.experiment
def test_fig4_attack_budget_sweep(benchmark, artifacts_ready):
    result = benchmark.pedantic(
        lambda: fig4.run(n_episodes=claims.SIZES["fig4"]),
        rounds=1,
        iterations=1,
    )
    result.table().show()
    assert claims.failures("fig4", result) == []
