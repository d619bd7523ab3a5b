"""Adam, the one optimizer of the numpy NN substrate."""

from __future__ import annotations

import numpy as np

from repro.rl.nn.layers import Parameter


def _load_slots(
    slots: list[np.ndarray], state: dict[str, np.ndarray], key: str
) -> None:
    for i, slot in enumerate(slots):
        value = state[f"{key}_{i}"]
        if value.shape != slot.shape:
            raise ValueError(
                f"Adam state {key}_{i} has shape {value.shape}, "
                f"expected {slot.shape}"
            )
        slot[...] = value


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction.

    The step runs in place: the moments, the clipping scale and the update
    are computed with the same numpy ops in the same order as the textbook
    expressions, but into two scratch buffers allocated once, so a step
    allocates no parameter-sized arrays and gives the same bits. Only
    parameters with ``requires_grad`` are stepped; a parameter whose
    ``grad`` is ``None`` is skipped.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 3e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        max_grad_norm: float | None = None,
    ) -> None:
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        self.params = [p for p in params if p.requires_grad]
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.max_grad_norm = max_grad_norm
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0
        # Two scratch arrays per parameter, as views of two shared flat
        # buffers sized for the largest parameter.
        size = max((p.data.size for p in self.params), default=0)
        flat = np.empty((2, size))
        self._scratch = [
            (flat[0, :p.data.size].reshape(p.data.shape),
             flat[1, :p.data.size].reshape(p.data.shape))
            for p in self.params
        ]

    def step(self) -> float:
        """Apply one update; returns the global gradient norm before
        clipping (the norm ``max_grad_norm`` is checked against)."""
        self._t += 1
        norm = self._clip_grads()
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for param, m, v, (a, b) in zip(
            self.params, self._m, self._v, self._scratch
        ):
            if param.grad is None:
                continue
            grad = param.grad
            # m = beta1 * m + (1 - beta1) * grad
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=a)
            m += a
            # v = beta2 * v + (1 - beta2) * grad * grad
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=a)
            a *= grad
            v += a
            # data -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(v, bias2, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, bias1, out=b)
            b *= self.lr
            b /= a
            param.data -= b
        return norm

    def state_dict(self) -> dict[str, np.ndarray]:
        """Moment estimates and step count, keyed by parameter index."""
        state = {f"m_{i}": m.copy() for i, m in enumerate(self._m)}
        state.update({f"v_{i}": v.copy() for i, v in enumerate(self._v)})
        state["t"] = np.asarray(self._t, dtype=np.int64)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        _load_slots(self._m, state, "m")
        _load_slots(self._v, state, "v")
        self._t = int(state["t"])

    def _clip_grads(self) -> float:
        """Scale the gradients to ``max_grad_norm`` if their global L2 norm
        exceeds it; returns the norm before scaling."""
        total = 0.0
        for param, (a, _) in zip(self.params, self._scratch):
            if param.grad is not None:
                np.multiply(param.grad, param.grad, out=a)
                total += float(np.sum(a))
        norm = np.sqrt(total)
        if (
            self.max_grad_norm is not None
            and norm > self.max_grad_norm
            and norm > 0.0
        ):
            scale = self.max_grad_norm / norm
            for param in self.params:
                if param.grad is not None:
                    param.grad *= scale
        return float(norm)
