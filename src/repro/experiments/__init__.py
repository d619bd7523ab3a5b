"""Experiment drivers regenerating every figure of the evaluation.

One module per paper artifact: :mod:`~repro.experiments.fig4` through
:mod:`~repro.experiments.fig8` plus :mod:`~repro.experiments.headline`
(the in-text scalars). Each exposes ``run(...) -> Result`` with a
``table()`` that prints the rows the paper reports.
:mod:`~repro.experiments.claims` decides every paper claim on those
results, and :mod:`~repro.experiments.report` writes EXPERIMENTS.md.
Neither is imported here.
"""

from repro.experiments import registry

__all__ = ["registry"]
