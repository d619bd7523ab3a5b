"""Neural-network modules: parameters, layers and ReLU/tanh stacks.

Networks run forward in plain numpy (:meth:`Mlp.forward_np`) and train
through closed-form backward passes (:meth:`Mlp.forward_train` and
:meth:`Mlp.backward`) that write each parameter's gradient into buffers
allocated once.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.rl.nn import flops


class Parameter:
    """A trainable array: its value, its gradient and whether it trains.

    ``grad`` is ``None`` until a backward pass points it at a buffer;
    :meth:`Module.freeze` clears ``requires_grad``.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = True) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)


class Module:
    """Base class: parameter registration and checkpoint (de)serialization."""

    def parameters(self) -> list[Parameter]:
        """All parameters, discovered recursively, in checkpoint order."""
        return list(self.named_parameters().values())

    def named_parameters(self) -> dict[str, Parameter]:
        """Stable ``name -> parameter`` mapping for checkpoints."""
        named: dict[str, Parameter] = {}
        for key, value in self.__dict__.items():
            for suffix, param in _collect_named(value):
                named[f"{key}{suffix}"] = param
        return named

    def state_dict(self) -> dict[str, np.ndarray]:
        return {
            name: param.data.copy()
            for name, param in self.named_parameters().items()
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        named = self.named_parameters()
        missing = set(named) - set(state)
        extra = set(state) - set(named)
        if missing or extra:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"extra={sorted(extra)}"
            )
        for name, param in named.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()

    def freeze(self) -> None:
        """Mark all parameters non-trainable (used for PNN column 1)."""
        for param in self.parameters():
            param.requires_grad = False

    def trainable_parameters(self) -> list[Parameter]:
        return [p for p in self.parameters() if p.requires_grad]


def _collect_named(value, prefix: str = "") -> list[tuple[str, Parameter]]:
    if isinstance(value, Parameter):
        return [(prefix, value)]
    if isinstance(value, Module):
        return [
            (f"{prefix}.{name}", param)
            for name, param in value.named_parameters().items()
        ]
    if isinstance(value, (list, tuple)):
        out: list[tuple[str, Parameter]] = []
        for index, item in enumerate(value):
            out.extend(_collect_named(item, f"{prefix}.{index}"))
        return out
    return []


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with orthogonal-ish init."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator | None = None,
        scale: float | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        limit = scale if scale is not None else math.sqrt(2.0 / in_dim)
        self.weight = Parameter(rng.normal(0.0, limit, size=(in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim))

    def grad_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """Buffers for :meth:`write_grads`, shaped like the weight and bias."""
        return np.empty_like(self.weight.data), np.empty_like(self.bias.data)

    def write_grads(
        self,
        x: np.ndarray,
        grad: np.ndarray,
        weight_grad: np.ndarray,
        bias_grad: np.ndarray,
    ) -> None:
        """Weight and bias gradients of ``y = x @ W + b``.

        Writes them for ``grad`` (d loss / d y) into the two buffers (see
        :meth:`grad_buffers`) and points the parameters' ``grad`` at them.
        """
        self.weight.grad = np.matmul(x.T, grad, out=weight_grad)
        self.bias.grad = np.sum(grad, axis=0, out=bias_grad)
        hook = flops.FLOP_HOOK
        if hook is not None:
            hook.matmul_grad(self.in_dim, grad.shape[0], self.out_dim)

    @property
    def in_dim(self) -> int:
        return self.weight.data.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.data.shape[1]


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.tanh(x, out=out)


#: :func:`relu` or :func:`tanh`, the activations with a closed-form
#: derivative in :meth:`Mlp.backward`.
Activation = Callable[..., np.ndarray]


class InferencePlan:
    """Preallocated activation buffers for batched inference.

    One plan pins a ``[max_batch, width]`` output buffer per layer so a
    steady-state inference loop (policy rollouts, batched evaluation)
    performs zero allocations per forward: each layer's matmul writes into
    its buffer (``np.matmul(..., out=)``), the bias add and activation run
    in place, and the buffer is reused on the next call. Plans are
    per-network and not thread-safe; results are valid until the next
    forward that uses the same plan.
    """

    def __init__(self, widths: Sequence[int], max_batch: int) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = int(max_batch)
        self._buffers = [
            np.empty((self.max_batch, int(width))) for width in widths
        ]

    def out(self, index: int, batch: int) -> np.ndarray:
        """The ``[batch, width]`` output view for layer ``index``."""
        return self._buffers[index][:batch]

    def fits(self, batch: int) -> bool:
        return batch <= self.max_batch


class TrainingPlan:
    """Buffers for one :class:`Mlp`'s training step.

    The training twin of :class:`InferencePlan`: :meth:`Mlp.forward_train`
    runs the fused forward through the ``forward`` inference plan, whose
    per-layer outputs :meth:`Mlp.backward` then reads, and the backward
    writes each layer's weight and bias gradients into buffers allocated
    once and points the parameters' ``grad`` at them. A plan holds one
    batch size and serves one network; its contents are valid until the
    next forward that uses it.
    """

    def __init__(self, mlp: "Mlp", batch: int) -> None:
        self.batch = int(batch)
        self.forward = mlp.inference_plan(self.batch)
        #: The input of the last forward (not copied; see forward_train).
        self.input: np.ndarray | None = None
        #: Input gradients of every layer but the first.
        self.input_grads = [
            np.empty((self.batch, layer.in_dim)) for layer in mlp.layers[1:]
        ]
        self.grads = [layer.grad_buffers() for layer in mlp.layers]


class Mlp(Module):
    """A feed-forward stack of :class:`Linear` layers.

    Args:
        sizes: layer widths including input and output,
            e.g. ``(obs_dim, 128, 128, act_dim)``.
        activation: hidden-layer nonlinearity, :func:`relu` or :func:`tanh`.
        output_activation: applied to the final layer (``None`` = linear).

    Raises:
        TypeError: an activation other than those.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        activation: Activation = relu,
        output_activation: Activation | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if activation not in (relu, tanh) or output_activation not in (
            relu, tanh, None
        ):
            raise TypeError(
                f"no closed-form derivative for activations {activation!r}, "
                f"{output_activation!r}"
            )
        rng = rng or np.random.default_rng(0)
        self.layers = [
            Linear(a, b, rng=rng) for a, b in zip(sizes[:-1], sizes[1:])
        ]
        self.activation = activation
        self.output_activation = output_activation
        self.sizes = tuple(sizes)

    def inference_plan(self, max_batch: int) -> InferencePlan:
        """Buffers for the fused :meth:`forward_np` path on this stack."""
        return InferencePlan(
            [layer.out_dim for layer in self.layers], max_batch
        )

    def forward_np(
        self, x: np.ndarray, plan: InferencePlan | None = None
    ) -> np.ndarray:
        """The network's output, in plain numpy.

        With ``plan`` (from :meth:`inference_plan`) and a 2-D input that
        fits, every Linear+activation pair runs fused into the plan's
        preallocated buffers — no per-call allocations, identical results
        (``np.matmul(out=)`` + in-place bias/activation compute the same
        ops as the allocating expressions). The returned array aliases the
        plan's last buffer and is only valid until the next planned call.
        """
        hook = flops.FLOP_HOOK
        if hook is not None:
            # One batched sweep over the whole stack: matmul + bias +
            # activation per layer (shared by the allocating and the
            # fused plan path).
            batch = 1 if x.ndim == 1 else x.shape[0]
            for layer in self.layers:
                hook.matmul(batch, layer.in_dim, layer.out_dim)
                hook.elementwise("add_fwd", batch * layer.out_dim)
            for layer in self.layers[:-1]:
                hook.elementwise(
                    _activation_op(self.activation), batch * layer.out_dim
                )
            if self.output_activation is not None:
                hook.elementwise(
                    _activation_op(self.output_activation),
                    batch * self.layers[-1].out_dim,
                )
        if plan is not None and x.ndim == 2 and plan.fits(x.shape[0]):
            batch = x.shape[0]
            for index, layer in enumerate(self.layers):
                out = plan.out(index, batch)
                np.matmul(x, layer.weight.data, out=out)
                out += layer.bias.data
                activation = (
                    self.activation
                    if index < len(self.layers) - 1
                    else self.output_activation
                )
                if activation is not None:
                    activation(out, out=out)
                x = out
            return x
        for layer in self.layers[:-1]:
            x = x @ layer.weight.data + layer.bias.data
            x = self.activation(x)
        x = x @ self.layers[-1].weight.data + self.layers[-1].bias.data
        if self.output_activation is not None:
            x = self.output_activation(x)
        return x

    def training_plan(self, batch: int) -> TrainingPlan:
        """Buffers for :meth:`forward_train` and :meth:`backward`."""
        return TrainingPlan(self, batch)

    def _activation_at(self, index: int) -> Activation | None:
        if index < len(self.layers) - 1:
            return self.activation
        return self.output_activation

    def forward_train(self, x: np.ndarray, plan: TrainingPlan) -> np.ndarray:
        """:meth:`forward_np` through ``plan``, keeping every activation.

        ``x`` must be a ``[plan batch, in_dim]`` matrix that stays
        unchanged until :meth:`backward` has run; the result aliases the
        plan's last output buffer.
        """
        if x.ndim != 2 or x.shape[0] != plan.batch:
            raise ValueError(
                f"training plan holds batch {plan.batch}, got shape {x.shape}"
            )
        plan.input = x
        return self.forward_np(x, plan=plan.forward)

    def backward(
        self,
        grad: np.ndarray,
        plan: TrainingPlan,
        weights: bool = True,
        input_columns: slice | None = None,
    ) -> np.ndarray | None:
        """Backpropagate through the last :meth:`forward_train` on ``plan``.

        Args:
            grad: d loss / d output, ``[batch, out_dim]``; overwritten.
            weights: write every layer's weight and bias gradient into the
                plan and point the parameters' ``grad`` at them. Without,
                the pass only propagates toward the input.
            input_columns: the input columns whose gradient to return;
                ``None`` computes no input gradient at all.

        Each parameter gets exactly one gradient contribution.
        """
        hook = flops.FLOP_HOOK
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            activation = self._activation_at(index)
            out = plan.forward.out(index, plan.batch)
            if activation is relu:
                grad *= out > 0.0
            elif activation is tanh:
                grad *= 1.0 - out * out
            batch, width = grad.shape
            if hook is not None and activation is not None:
                hook.elementwise(
                    "relu_bwd" if activation is relu else "tanh_bwd", grad.size
                )
            if weights:
                layer.write_grads(
                    plan.forward.out(index - 1, plan.batch)
                    if index
                    else plan.input,
                    grad,
                    *plan.grads[index],
                )
            if index:
                grad = np.matmul(
                    grad, layer.weight.data.T, out=plan.input_grads[index - 1]
                )
                if hook is not None:
                    hook.matmul_grad(batch, width, layer.in_dim)
            elif input_columns is not None:
                weight = layer.weight.data[input_columns]
                if hook is not None:
                    hook.matmul_grad(batch, width, weight.shape[0])
                return grad @ weight.T
        return None


def _activation_op(activation: Activation) -> str:
    return "relu_fwd" if activation is relu else "tanh_fwd"
