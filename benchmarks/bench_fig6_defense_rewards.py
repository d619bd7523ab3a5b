"""Fig. 6 bench — nominal driving rewards of original and enhanced agents.

Evaluates pi_ori, pi_adv,rho=1/11, pi_adv,rho=1/2, pi_pnn,sigma=0.2 and
pi_pnn,sigma=0.4 under camera attacks with budgets {0, 0.25, 0.5, 0.75, 1}
at the claims registry's size (15 episodes per cell), and asserts that
none of Fig. 6's claims (``repro.experiments.claims``) fails.
"""

import pytest

from repro.experiments import claims, fig6


@pytest.mark.experiment
def test_fig6_defense_reward_distributions(benchmark, artifacts_ready):
    result = benchmark.pedantic(
        lambda: fig6.run(n_episodes=claims.SIZES["fig6"]),
        rounds=1,
        iterations=1,
    )
    result.table().show()
    assert claims.failures("fig6", result) == []
