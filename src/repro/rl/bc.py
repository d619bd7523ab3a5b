"""Behaviour cloning (and DAgger-style dataset aggregation).

Used to warm-start SAC policies: the end-to-end driver clones the modular
pipeline (the paper's privileged agent), and the camera attacker clones the
scripted oracle attacker before SAC refinement. Cloning trains the squashed
mean toward expert actions and regularizes the log-std toward a fixed
exploration level so the subsequent SAC phase starts with sensible entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rl.nn import flops
from repro.rl.nn.optim import Adam
from repro.rl.policy import SquashedGaussianPolicy


@dataclass
class BcConfig:
    """Behaviour-cloning hyper-parameters."""

    lr: float = 1e-3
    batch_size: int = 128
    epochs: int = 20
    #: Target pre-squash log standard deviation after cloning.
    target_log_std: float = -1.5
    #: Weight of the log-std regularizer.
    std_weight: float = 0.1
    max_grad_norm: float = 10.0


class BehaviorCloner:
    """Supervised trainer for a :class:`SquashedGaussianPolicy`.

    Also trains a :class:`~repro.rl.pnn.ProgressivePolicy`'s column 2:
    the cloner needs only the policy's ``training_plan``,
    ``forward_gaussian``, ``backward_gaussian`` and ``forward_np``.
    """

    def __init__(
        self,
        policy: SquashedGaussianPolicy,
        config: BcConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.policy = policy
        self.config = config or BcConfig()
        self.rng = rng or np.random.default_rng(0)
        self.optimizer = Adam(
            policy.parameters(),
            self.config.lr,
            max_grad_norm=self.config.max_grad_norm,
        )

    def _dataset(
        self, observations: np.ndarray, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both arrays as float64, or ``ValueError`` unless they are
        ``[n, obs_dim]`` and ``[n, action_dim]``."""
        observations = np.asarray(observations, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.float64)
        obs_dim, action_dim = self.policy.obs_dim, self.policy.action_dim
        if (
            observations.ndim != 2
            or observations.shape[1] != obs_dim
            or actions.shape != (len(observations), action_dim)
        ):
            raise ValueError(
                f"expected observations [n, {obs_dim}] and actions "
                f"[n, {action_dim}], got {observations.shape} and "
                f"{actions.shape}"
            )
        return observations, actions

    def fit(
        self, observations: np.ndarray, actions: np.ndarray
    ) -> list[float]:
        """Train on an expert dataset; returns per-epoch mean losses."""
        observations, actions = self._dataset(observations, actions)
        n = len(observations)
        if n == 0:
            raise ValueError("empty dataset")
        cfg = self.config
        # One plan per minibatch size: the full one and each epoch's last.
        plans = {
            rows: self.policy.training_plan(rows)
            for rows in {min(cfg.batch_size, n), (n - 1) % cfg.batch_size + 1}
        }
        losses = []
        for _ in range(cfg.epochs):
            order = self.rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                epoch_losses.append(
                    self._step(observations[idx], actions[idx], plans[len(idx)])
                )
            losses.append(float(np.mean(epoch_losses)))
        return losses

    def _step(self, obs: np.ndarray, actions: np.ndarray, plan) -> float:
        """One Adam step on ``mean((tanh(mean) - a)^2) + w * mean((log_std
        - target)^2)``, each mean over all ``c`` = rows x action_dim
        entries; returns the loss."""
        cfg = self.config
        mean, log_std = self.policy.forward_gaussian(obs, plan)
        predicted = np.tanh(mean)
        error = predicted - actions
        gap = log_std - cfg.target_log_std
        scale = 1.0 / error.size
        loss = (
            np.sum(error ** 2.0) * scale
            + np.sum(gap ** 2.0) * scale * cfg.std_weight
        )
        # d/d mean of the imitation term through tanh and d/d log_std of
        # the regularizer, each factor in the order a reverse-mode pass
        # multiplies them (the order the shipped checkpoints trained with).
        mean_grad = scale * 2.0 * error * (1.0 - predicted * predicted)
        log_std_grad = cfg.std_weight * scale * 2.0 * gap
        hook = flops.FLOP_HOOK
        if hook is not None:
            hook.elementwise("tanh_fwd", predicted.size)
        self.policy.backward_gaussian(mean_grad, log_std_grad, plan)
        self.optimizer.step()
        return float(loss)

    def evaluate(self, observations: np.ndarray, actions: np.ndarray) -> float:
        """Mean squared imitation error without updating the policy."""
        observations, actions = self._dataset(observations, actions)
        mean, _ = self.policy.forward_np(observations)
        predicted = np.tanh(mean)
        return float(np.mean((predicted - actions) ** 2))
