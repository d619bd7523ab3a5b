"""Headline scalars bench (paper Sections III-C, V-A, V-B).

Reproduces, at the claims registry's size, the nominal driving quality
of the end-to-end agent (5.96/6 NPCs, 180/180 steps, no collisions), the
~84% nominal-reward reduction under the full-budget camera attack, and
the time-to-collision against the 1.25 s human reaction floor. Fails if
any headline claim (``repro.experiments.claims``) fails.
"""

import pytest

from repro.experiments import claims, headline


@pytest.mark.experiment
def test_headline_scalars(benchmark, artifacts_ready):
    result = benchmark.pedantic(
        lambda: headline.run(n_episodes=claims.SIZES["headline"]),
        rounds=1,
        iterations=1,
    )
    result.table().show()
    assert claims.failures("headline", result) == []
