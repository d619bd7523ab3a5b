"""Statistical comparisons between agents and attack configurations.

The paper reports distributions (box plots) without significance testing;
this module adds the nonparametric two-sample test behind the
Mann-Whitney p-values in ``EXPERIMENTS.md``. Confidence intervals come
from ``obsv compare`` (:mod:`repro.obsv.compare`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.episodes import EpisodeResult


@dataclass(frozen=True)
class Comparison:
    """Outcome of a two-sample comparison."""

    statistic: float
    p_value: float
    mean_a: float
    mean_b: float

    @property
    def significant(self) -> bool:
        """Conventional 5% level."""
        return self.p_value < 0.05


def mann_whitney(
    a: "list[float] | np.ndarray", b: "list[float] | np.ndarray"
) -> Comparison:
    """Two-sided Mann-Whitney U test (no normality assumption)."""
    a = np.asarray(list(a), dtype=float)
    b = np.asarray(list(b), dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    if np.all(a == a[0]) and np.all(b == b[0]) and a[0] == b[0]:
        # Identical constant samples: no evidence of difference.
        return Comparison(0.0, 1.0, float(a.mean()), float(b.mean()))
    # Imported here: scipy.stats costs about a second and 60 MiB to
    # import, and only this test needs it.
    from scipy import stats

    statistic, p_value = stats.mannwhitneyu(a, b, alternative="two-sided")
    return Comparison(
        float(statistic), float(p_value), float(a.mean()), float(b.mean())
    )


def compare_nominal_rewards(
    a: list[EpisodeResult], b: list[EpisodeResult]
) -> Comparison:
    """Mann-Whitney test on nominal driving rewards of two agents."""
    return mann_whitney(
        [r.nominal_return for r in a], [r.nominal_return for r in b]
    )
