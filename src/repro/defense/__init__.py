"""Driving-agent enhancement: adversarial fine-tuning and PNN + switcher."""

from repro.defense.budget import BUDGET_GRID, BudgetRandomizedAttacker
from repro.defense.detector import (
    DetectorConfig,
    DetectorSwitchedAgent,
    ResidualAttackDetector,
)
from repro.defense.finetune import (
    FinetuneConfig,
    adversarial_finetune,
    adversarial_finetune_sac,
)
from repro.defense.rescue import RescueConfig, RescueExpert
from repro.defense.pnn_defense import (
    PnnTrainConfig,
    SimplexSwitchedAgent,
    train_pnn_column,
)

__all__ = [
    "BUDGET_GRID",
    "BudgetRandomizedAttacker",
    "DetectorConfig",
    "DetectorSwitchedAgent",
    "ResidualAttackDetector",
    "FinetuneConfig",
    "PnnTrainConfig",
    "SimplexSwitchedAgent",
    "RescueConfig",
    "RescueExpert",
    "adversarial_finetune",
    "adversarial_finetune_sac",
    "train_pnn_column",
]
