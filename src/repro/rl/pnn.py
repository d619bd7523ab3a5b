"""Progressive neural networks (Rusu et al., 2016) for defense training.

Section VI-B: the original driving policy becomes a frozen *column 1*; a
new *column 2* is trained on adversarial episodes while receiving lateral
connections from column 1's hidden activations, so adversarial competence
is added without touching (or forgetting) nominal driving weights.
"""

from __future__ import annotations

import numpy as np

from repro.rl.nn.autograd import Tensor, concat
from repro.rl.nn.layers import Linear, Module
from repro.rl.policy import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    SquashedGaussianPolicy,
)


class ProgressivePolicy(Module):
    """A two-column progressive extension of a squashed-Gaussian policy.

    Column 1 is the frozen base policy's trunk. Column 2 mirrors its
    architecture; each hidden layer past the first receives the previous
    layer of *both* columns (lateral connections), as do the output heads.
    Only column-2 weights (including laterals) are trainable.

    The object implements the acting and autodiff interface of
    :class:`SquashedGaussianPolicy`, so behaviour cloning and DAgger train
    column 2 through :meth:`distribution`.
    """

    def __init__(
        self,
        base: SquashedGaussianPolicy,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.obs_dim = base.obs_dim
        self.action_dim = base.action_dim
        self.hidden = base.hidden
        self.column1 = base
        self.column1.freeze()

        widths = list(base.hidden)
        self.column2_layers: list[Linear] = []
        for index, width in enumerate(widths):
            if index == 0:
                in_dim = base.obs_dim
            else:
                in_dim = widths[index - 1] * 2  # own + lateral features
            self.column2_layers.append(Linear(in_dim, width, rng=rng))
        head_in = widths[-1] * 2
        self.mean_head = Linear(head_in, base.action_dim, rng=rng, scale=1e-2)
        self.log_std_head = Linear(head_in, base.action_dim, rng=rng, scale=1e-2)

    # -- autodiff path -----------------------------------------------------------

    def _features(self, obs: Tensor) -> Tensor:
        """Column-2 top features concatenated with column-1 laterals."""
        lateral = []
        h1 = obs
        for layer in self.column1.trunk.layers:
            h1 = layer(h1).relu()
            lateral.append(h1)
        h = obs
        for index, layer in enumerate(self.column2_layers):
            if index > 0:
                h = concat([h, lateral[index - 1]], axis=-1)
            h = layer(h).relu()
        return concat([h, lateral[-1]], axis=-1)

    def distribution(self, obs: Tensor) -> tuple[Tensor, Tensor]:
        features = self._features(obs)
        mean = self.mean_head(features)
        raw = self.log_std_head(features)
        log_std = LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (
            raw.tanh() + 1.0
        )
        return mean, log_std

    # -- numpy inference path --------------------------------------------------------

    def _features_np(self, obs: np.ndarray) -> np.ndarray:
        lateral = []
        h1 = obs
        for layer in self.column1.trunk.layers[:-1]:
            h1 = np.maximum(h1 @ layer.weight.data + layer.bias.data, 0.0)
            lateral.append(h1)
        last = self.column1.trunk.layers[-1]
        lateral.append(np.maximum(h1 @ last.weight.data + last.bias.data, 0.0))
        h = obs
        for index, layer in enumerate(self.column2_layers):
            if index > 0:
                h = np.concatenate([h, lateral[index - 1]], axis=-1)
            h = np.maximum(h @ layer.weight.data + layer.bias.data, 0.0)
        return np.concatenate([h, lateral[-1]], axis=-1)

    def forward_np(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        features = self._features_np(obs)
        mean = features @ self.mean_head.weight.data + self.mean_head.bias.data
        raw = (
            features @ self.log_std_head.weight.data
            + self.log_std_head.bias.data
        )
        log_std = LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (
            np.tanh(raw) + 1.0
        )
        return mean, log_std

    def act(
        self,
        obs: np.ndarray,
        deterministic: bool = False,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        return SquashedGaussianPolicy.act(self, obs, deterministic, rng)
