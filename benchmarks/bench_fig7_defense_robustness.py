"""Fig. 7 bench — robustness of enhanced agents (deviation vs. effort).

Budgets 0 to 1.2 step 0.1 for the four enhanced agents, at the claims
registry's size (10 rounds). Paper headline: average tracking errors
0.038 / 0.027 / 0.02 / 0.017 for rho=1/11, rho=1/2, sigma=0.4,
sigma=0.2; PNN agents admit no successful attacks at low effort.
Asserts that none of Fig. 7's claims (``repro.experiments.claims``)
fails.
"""

import pytest

from repro.experiments import claims, fig7


@pytest.mark.experiment
def test_fig7_enhanced_agent_robustness(benchmark, artifacts_ready):
    result = benchmark.pedantic(
        lambda: fig7.run(rounds=claims.SIZES["fig7"]), rounds=1, iterations=1
    )
    result.table().show()
    assert claims.failures("fig7", result) == []
