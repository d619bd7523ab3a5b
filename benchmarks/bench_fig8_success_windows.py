"""Fig. 8 bench — attack success rate per attack-effort window.

Windows the deviation-vs-effort episodes (width 0.2, 0.0 to 0.8+) for the
nominal agent and the four enhanced agents, at the claims registry's
size (10 rounds). Paper shape: fine-tuned agents show higher success
rates than PNN agents; the nominal agent is worst. Asserts that none of
Fig. 8's claims (``repro.experiments.claims``) fails.
"""

import pytest

from repro.experiments import claims, fig8


@pytest.mark.experiment
def test_fig8_success_rate_windows(benchmark, artifacts_ready):
    result = benchmark.pedantic(
        lambda: fig8.run(rounds=claims.SIZES["fig8"]), rounds=1, iterations=1
    )
    result.table().show()
    assert claims.failures("fig8", result) == []
