"""Numpy neural-network core: parameters, layers, Adam, FLOP accounting."""

from repro.rl.nn.flops import FlopCounter, get_flop_counter
from repro.rl.nn.layers import (
    InferencePlan,
    Linear,
    Mlp,
    Module,
    Parameter,
    relu,
    tanh,
)
from repro.rl.nn.optim import Adam

__all__ = [
    "Adam",
    "FlopCounter",
    "InferencePlan",
    "Linear",
    "Mlp",
    "Module",
    "Parameter",
    "get_flop_counter",
    "relu",
    "tanh",
]
