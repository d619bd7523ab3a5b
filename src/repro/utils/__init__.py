"""Shared utilities: geometry, configuration, checkpoints."""

from repro.utils.geometry import (
    OrientedBox,
    normalize_angle,
    rotate,
    unit,
)
from repro.utils.serialization import load_checkpoint, save_checkpoint

__all__ = [
    "OrientedBox",
    "normalize_angle",
    "rotate",
    "unit",
    "load_checkpoint",
    "save_checkpoint",
]
