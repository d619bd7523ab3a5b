"""Progressive neural networks (Rusu et al., 2016) for defense training.

Section VI-B: the original driving policy becomes a frozen *column 1*; a
new *column 2* is trained on adversarial episodes while receiving lateral
connections from column 1's hidden activations, so adversarial competence
is added without touching (or forgetting) nominal driving weights.
Column 2 trains by behaviour cloning through a closed-form backward pass
that reaches only column 2 and the output heads.
"""

from __future__ import annotations

import numpy as np

from repro.rl.nn import flops
from repro.rl.nn.layers import Linear, Module
from repro.rl.policy import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    SquashedGaussianPolicy,
    gaussian_heads,
    gaussian_heads_backward,
    gaussian_heads_flops,
)


class ProgressiveTrainingPlan:
    """Buffers for column 2's training step.

    Holds the gradient buffers of column 2 and the heads, and what
    :meth:`ProgressivePolicy.backward_gaussian` reads of the last
    :meth:`~ProgressivePolicy.forward_gaussian`.
    """

    def __init__(self, policy: "ProgressivePolicy", batch: int) -> None:
        layers = policy.column2_layers
        self.grads = [layer.grad_buffers() for layer in layers]
        self.head_grads = [
            head.grad_buffers() for head in (policy.mean_head, policy.log_std_head)
        ]
        #: d loss / d each column-2 layer's output; the last is the
        #: column-2 half of the heads' input gradient.
        self.output_grads = [np.empty((batch, layer.out_dim)) for layer in layers]
        self.features_grad = self.output_grads[-1]
        #: Each column-2 layer's input and output, the heads' input and
        #: the tanh of the raw log-std, from the last forward.
        self.inputs: list[np.ndarray] = []
        self.outputs: list[np.ndarray] = []
        self.features: np.ndarray | None = None
        self.squashed_log_std: np.ndarray | None = None


class ProgressivePolicy(Module):
    """A two-column progressive extension of a squashed-Gaussian policy.

    Column 1 is the frozen base policy's trunk. Column 2 mirrors its
    architecture; each hidden layer past the first receives the previous
    layer of *both* columns (lateral connections), as do the output heads.
    Only column-2 weights (including laterals) are trainable.

    The object implements the acting and behaviour-cloning interface of
    :class:`SquashedGaussianPolicy`, so behaviour cloning trains column 2
    through :meth:`forward_gaussian` and :meth:`backward_gaussian`.
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

    # -- training path ----------------------------------------------------------

    def training_plan(self, batch: int) -> ProgressiveTrainingPlan:
        """Buffers for :meth:`forward_gaussian` and :meth:`backward_gaussian`."""
        return ProgressiveTrainingPlan(self, batch)

    def forward_gaussian(
        self, obs: np.ndarray, plan: ProgressiveTrainingPlan
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean and log-std of the pre-squash Gaussian, bit for bit as
        :meth:`forward_np` gives them, keeping what
        :meth:`backward_gaussian` reads; ``obs`` has the plan's batch."""
        batch = obs.shape[0]
        lateral = h = obs
        plan.inputs, plan.outputs = [], []
        for index, (frozen, layer) in enumerate(
            zip(self.column1.trunk.layers, self.column2_layers)
        ):
            if index > 0:
                h = np.concatenate([h, lateral], axis=-1)
            lateral = np.maximum(
                lateral @ frozen.weight.data + frozen.bias.data, 0.0
            )
            plan.inputs.append(h)
            h = np.maximum(h @ layer.weight.data + layer.bias.data, 0.0)
            plan.outputs.append(h)
        hook = flops.FLOP_HOOK
        if hook is not None:
            self._trunk_flops(hook, batch)
        return gaussian_heads(
            self, np.concatenate([h, lateral], axis=-1), plan
        )

    def backward_gaussian(
        self,
        mean_grad: np.ndarray,
        log_std_grad: np.ndarray,
        plan: ProgressiveTrainingPlan,
    ) -> None:
        """Gradients of column 2 and the heads for the last
        :meth:`forward_gaussian` on ``plan``.

        Column 1 is frozen, so the lateral half of every input gradient
        (the column-1 rows of each weight) is never formed.
        """
        layers = self.column2_layers
        grad = gaussian_heads_backward(
            self, mean_grad, log_std_grad, plan, rows=slice(layers[-1].out_dim)
        )
        hook = flops.FLOP_HOOK
        for index in range(len(layers) - 1, -1, -1):
            layer = layers[index]
            grad *= plan.outputs[index] > 0.0
            if hook is not None:
                hook.elementwise("relu_bwd", grad.size)
            layer.write_grads(plan.inputs[index], grad, *plan.grads[index])
            if index > 0:
                own = layer.weight.data[:layers[index - 1].out_dim]
                grad = np.matmul(grad, own.T, out=plan.output_grads[index - 1])
                if hook is not None:
                    hook.matmul_grad(grad.shape[0], layer.out_dim, own.shape[0])

    def _trunk_flops(self, hook, batch: int) -> None:
        """Report both columns' products, bias adds and ReLUs on ``batch``
        rows to the FLOP ``hook``."""
        for layer in (*self.column1.trunk.layers, *self.column2_layers):
            hook.matmul(batch, layer.in_dim, layer.out_dim)
            hook.elementwise("add_fwd", batch * layer.out_dim)
            hook.elementwise("relu_fwd", batch * layer.out_dim)

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
        hook = flops.FLOP_HOOK
        if hook is not None:
            batch = 1 if obs.ndim == 1 else obs.shape[0]
            self._trunk_flops(hook, batch)
            gaussian_heads_flops(hook, self, batch)
        return mean, log_std

    def act(
        self,
        obs: np.ndarray,
        deterministic: bool = False,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        return SquashedGaussianPolicy.act(self, obs, deterministic, rng)
