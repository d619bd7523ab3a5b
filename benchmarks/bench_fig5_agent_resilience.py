"""Fig. 5 bench — modular vs. end-to-end resilience to camera attacks.

Budgets 0 to 1.2 in steps of 0.1, at the claims registry's size (10
rounds each, the paper's protocol), for both victim agents, with the
Section V-B time-to-collision scalars (paper: e2e 0.87 s / modular
1.14 s, vs. the 1.25 s human floor). Asserts that none of Fig. 5's
claims (``repro.experiments.claims``) fails.
"""

import pytest

from repro.experiments import claims, fig5


@pytest.mark.experiment
def test_fig5_resilience_scatter(benchmark, artifacts_ready):
    result = benchmark.pedantic(
        lambda: fig5.run(rounds=claims.SIZES["fig5"]), rounds=1, iterations=1
    )
    result.table().show()
    assert claims.failures("fig5", result) == []
