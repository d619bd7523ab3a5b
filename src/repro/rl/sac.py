"""Soft actor-critic (Haarnoja et al., 2018).

The DRL algorithm used by the paper for the end-to-end driving agent, the
adversarial attack policies, and adversarial fine-tuning. Twin Q critics
with polyak-averaged targets, a tanh-Gaussian actor, and automatic
entropy-temperature tuning.

The update runs closed-form backward passes that write only the
gradients the update reads into buffers allocated once per learner, and
Adam and the polyak average run in place. ``tests/rl/test_sac_gradients.py``
keeps a reference that evaluates the update expression by expression, as
an autodiff tape would: the critic step matches it bit for bit, and the
actor step differs from it in the last bits (at most 1e-12 relative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import faults
from repro.rl.nn.layers import Parameter
from repro.rl.nn.optim import Adam
from repro.rl.policy import QNetwork, SquashedGaussianPolicy
from repro.rl.replay import ReplayBuffer
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import span


@dataclass
class SacConfig:
    """Hyper-parameters of the SAC learner."""

    hidden: tuple[int, ...] = (128, 128)
    gamma: float = 0.99
    tau: float = 0.005
    actor_lr: float = 3e-4
    critic_lr: float = 3e-4
    alpha_lr: float = 3e-4
    #: Initial entropy temperature.
    alpha: float = 0.1
    #: Automatically tune alpha toward ``target_entropy``.
    autotune_alpha: bool = True
    #: Defaults to ``-action_dim`` when None.
    target_entropy: float | None = None
    batch_size: int = 128
    buffer_capacity: int = 100_000
    #: Steps between gradient updates (1 = every step).
    update_every: int = 1
    #: Number of initial updates that train the critics only. Warm-started
    #: (behaviour-cloned) actors would otherwise be dragged toward the
    #: randomly initialized critics' argmax and forget the warm start.
    actor_delay: int = 0
    max_grad_norm: float = 10.0
    #: Emit one ``update_health`` trace record every this many gradient
    #: updates (0 = disabled; ``REPRO_HEALTH_EVERY`` overrides 0).
    health_every: int = 0
    #: Snapshot resumable training state every this many environment
    #: steps (0 = disabled; ``REPRO_CHECKPOINT_EVERY`` overrides 0).
    #: Snapshots land at the first episode boundary at or after the
    #: due step, where the loop state is fully serializable.
    checkpoint_every: int = 0
    #: Directory for training snapshots (``REPRO_CHECKPOINT_DIR``
    #: overrides None); the loop label is appended as a subdirectory.
    checkpoint_dir: str | None = None
    #: Keep the newest K periodic snapshots (0 = ``REPRO_CHECKPOINT_KEEP``,
    #: else 3).
    checkpoint_keep: int = 0
    #: Resume from the latest snapshot in the checkpoint directory
    #: (``REPRO_RESUME``). With no snapshot present, train from scratch.
    resume: bool = False
    #: On a critical watchdog alert (``nan_loss``/``q_divergence``),
    #: snapshot and raise ``TrainingHalted`` instead of training on
    #: (``REPRO_HALT_ON_ALERT``).
    halt_on_alert: bool = False


class Sac:
    """The SAC learner: actor, twin critics, targets, and replay."""

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        config: SacConfig | None = None,
        rng: np.random.Generator | None = None,
        actor: SquashedGaussianPolicy | None = None,
    ) -> None:
        """Build the learner.

        Args:
            actor: optional pre-built policy (e.g. a behaviour-cloned warm
                start); defaults to a fresh :class:`SquashedGaussianPolicy`.

        Raises:
            TypeError: ``actor`` is not a :class:`SquashedGaussianPolicy`
                (the closed-form update is written for that policy).
        """
        if actor is not None and not isinstance(actor, SquashedGaussianPolicy):
            raise TypeError(
                f"Sac trains a SquashedGaussianPolicy actor, "
                f"got {type(actor).__name__}"
            )
        self.config = config or SacConfig()
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.rng = rng or np.random.default_rng(0)
        cfg = self.config

        self.actor = actor or SquashedGaussianPolicy(
            obs_dim, action_dim, cfg.hidden, rng=self.rng
        )
        self.q1 = QNetwork(obs_dim, action_dim, cfg.hidden, rng=self.rng)
        self.q2 = QNetwork(obs_dim, action_dim, cfg.hidden, rng=self.rng)
        self.q1_target = QNetwork(obs_dim, action_dim, cfg.hidden, rng=self.rng)
        self.q2_target = QNetwork(obs_dim, action_dim, cfg.hidden, rng=self.rng)
        self.q1_target.load_state_dict(self.q1.state_dict())
        self.q2_target.load_state_dict(self.q2.state_dict())

        self.log_alpha = Parameter(np.log(cfg.alpha), cfg.autotune_alpha)
        self.target_entropy = (
            cfg.target_entropy
            if cfg.target_entropy is not None
            else -float(action_dim)
        )

        self.actor_opt = Adam(
            self.actor.parameters(), cfg.actor_lr, max_grad_norm=cfg.max_grad_norm
        )
        self.critic_opt = Adam(
            self.q1.parameters() + self.q2.parameters(),
            cfg.critic_lr,
            max_grad_norm=cfg.max_grad_norm,
        )
        self.alpha_opt = Adam([self.log_alpha], cfg.alpha_lr)

        self.replay = ReplayBuffer(cfg.buffer_capacity, obs_dim, action_dim)
        self.total_updates = 0

        # Update buffers, allocated once. The joint [obs, action] critic
        # input is shared by all four critics.
        n = cfg.batch_size
        self._joint = np.empty((n, obs_dim + action_dim))
        self._q_plans = [q.net.training_plan(n) for q in (self.q1, self.q2)]
        self._actor_plan = self.actor.training_plan(n)
        self._target_q_plans = [
            q.net.inference_plan(n) for q in (self.q1_target, self.q2_target)
        ]
        self._target_actor_plan = self.actor.inference_plan(n)
        self._polyak_pairs = [
            pair
            for q, q_target in (
                (self.q1, self.q1_target), (self.q2, self.q2_target)
            )
            for pair in zip(q.parameters(), q_target.parameters())
        ]
        self._polyak_scratch = np.empty(
            max(source.data.size for source, _ in self._polyak_pairs)
        )

        # Cached telemetry handles; the gauges track the *latest* SAC
        # instance to update (one learner is live at a time in practice).
        registry = get_registry()
        self._gauge_critic = registry.gauge("sac_critic_loss")
        self._gauge_actor = registry.gauge("sac_actor_loss")
        self._gauge_alpha = registry.gauge("sac_alpha")
        self._gauge_replay = registry.gauge("sac_replay_occupancy")
        self._gauge_entropy = registry.gauge("sac_policy_entropy")
        self._gauge_q_max = registry.gauge("sac_q_max")
        self._counter_updates = registry.counter("sac_updates_total")

    # -- acting -------------------------------------------------------------------

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha.data))

    def act(self, obs: np.ndarray, deterministic: bool = False) -> np.ndarray:
        """Policy action in ``[-1, 1]^action_dim``."""
        return self.actor.act(obs, deterministic=deterministic, rng=self.rng)

    # -- learning ------------------------------------------------------------------

    def observe(
        self,
        obs: np.ndarray,
        action: np.ndarray,
        reward: float,
        next_obs: np.ndarray,
        done: bool,
    ) -> None:
        """Store one transition in the replay buffer."""
        self.replay.add(obs, action, reward, next_obs, done)

    def update(self) -> dict[str, float]:
        """One SAC gradient update from a replay minibatch."""
        with span("sac.update"):
            stats = self._update()
        self._gauge_critic.set(stats["critic_loss"])
        self._gauge_actor.set(stats["actor_loss"])
        self._gauge_alpha.set(stats["alpha"])
        self._gauge_replay.set(len(self.replay))
        self._gauge_entropy.set(stats["entropy"])
        self._gauge_q_max.set(stats["q_max"])
        self._counter_updates.inc()
        return stats

    def health(self) -> dict[str, int]:
        """Learner-level health fields (merged into ``update_health``)."""
        return {
            "buffer_size": len(self.replay),
            "buffer_capacity": self.replay.capacity,
        }

    def _update(self) -> dict[str, float]:
        cfg = self.config
        n = cfg.batch_size
        batch = self.replay.sample(n, self.rng)
        obs = batch["obs"]
        actions = batch["actions"]
        rewards = batch["rewards"]
        next_obs = batch["next_obs"]
        dones = batch["dones"]

        # Bellman targets (no gradients needed -> fused inference plans).
        next_actions, next_log_prob = self.actor.sample_np(
            next_obs, self.rng, plan=self._target_actor_plan
        )
        joint = self._joint
        joint[:, :self.obs_dim] = next_obs
        joint[:, self.obs_dim:] = next_actions
        q1_next, q2_next = (
            q.net.forward_np(joint, plan=plan)[:, 0]
            for q, plan in zip(
                (self.q1_target, self.q2_target), self._target_q_plans
            )
        )
        q_next = np.minimum(q1_next, q2_next)
        alpha = self.alpha
        targets = rewards + cfg.gamma * (1.0 - dones) * (
            q_next - alpha * next_log_prob
        )

        # Critic step: mean squared Bellman error of each critic, whose
        # gradient d/dq is 2 * error / n.
        joint[:, :self.obs_dim] = obs
        joint[:, self.obs_dim:] = actions
        critic_loss = 0.0
        q_preds = []
        for q, plan in zip((self.q1, self.q2), self._q_plans):
            q_pred = q.net.forward_train(joint, plan)
            error = q_pred - targets[:, None]
            critic_loss = critic_loss + np.sum(error ** 2.0) * (1.0 / n)
            q.net.backward(error * (2.0 * (1.0 / n)), plan)
            q_preds.append(q_pred[:, 0])
        fault_plan = faults.active_plan()
        if fault_plan is not None:
            fault_plan.on_gradients(
                "critic", self.critic_opt.params, self.total_updates
            )
        critic_grad_norm = self.critic_opt.step()
        q1_pred, q2_pred = q_preds
        q_mean = float(q1_pred.mean())
        q_max = float(max(np.abs(q1_pred).max(), np.abs(q2_pred).max()))

        # Actor step: mean of alpha * log_prob - min(q1, q2) at fresh
        # reparameterized actions. Only the action columns of dQ/d input
        # are computed, and no critic weight gradients.
        actor_loss_value = 0.0
        actor_grad_norm = 0.0
        log_prob = None
        if self.total_updates >= cfg.actor_delay:
            noise = self.rng.standard_normal((n, self.action_dim))
            new_actions, log_prob = self.actor.forward_train(
                obs, noise, self._actor_plan
            )
            joint[:, self.obs_dim:] = new_actions
            q1_new, q2_new = (
                q.net.forward_train(joint, plan)
                for q, plan in zip((self.q1, self.q2), self._q_plans)
            )
            q_new = np.minimum(q1_new, q2_new)[:, 0]
            actor_loss_value = float(
                np.sum(log_prob * alpha - q_new) * (1.0 / n)
            )
            # d loss / d q_k is -1/n, routed to the smaller critic (split
            # evenly on exact ties).
            ties = 0.5 * (q1_new == q2_new)
            dq1, dq2 = (
                q.net.backward(
                    -(1.0 / n) * (smaller + ties),
                    plan,
                    weights=False,
                    input_columns=slice(self.obs_dim, None),
                )
                for q, plan, smaller in zip(
                    (self.q1, self.q2),
                    self._q_plans,
                    (q1_new < q2_new, q2_new < q1_new),
                )
            )
            self.actor.backward(dq1 + dq2, alpha * (1.0 / n), self._actor_plan)
            actor_grad_norm = self.actor_opt.step()

        # Temperature step: loss -log_alpha * mean(log_prob + target).
        alpha_loss_value = 0.0
        if cfg.autotune_alpha and log_prob is not None:
            entropy_gap = log_prob + self.target_entropy
            self.log_alpha.grad = np.asarray(
                np.sum(entropy_gap * (-1.0 / n))
            )
            alpha_loss_value = float(
                -(np.sum(self.log_alpha.data * entropy_gap) * (1.0 / n))
            )
            self.alpha_opt.step()

        self._polyak()
        self.total_updates += 1
        # Entropy estimate from the freshest log-probs available: the
        # actor's reparameterized batch when the actor trained this round,
        # else the target-sampling batch (critic-only warmup).
        log_probs = log_prob if log_prob is not None else next_log_prob
        return {
            "critic_loss": float(critic_loss),
            "actor_loss": actor_loss_value,
            "alpha_loss": alpha_loss_value,
            "alpha": self.alpha,
            "q_mean": q_mean,
            "q_max": q_max,
            "entropy": float(-np.mean(log_probs)),
            "actor_grad_norm": actor_grad_norm,
            "critic_grad_norm": critic_grad_norm,
        }

    def _polyak(self) -> None:
        """``target = (1 - tau) * target + tau * source``, in place."""
        tau = self.config.tau
        for source, target in self._polyak_pairs:
            scratch = self._polyak_scratch[:source.data.size].reshape(
                source.data.shape
            )
            target.data *= 1.0 - tau
            np.multiply(source.data, tau, out=scratch)
            target.data += scratch

    # -- checkpoints ------------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {}
        for prefix, module in (
            ("actor", self.actor),
            ("q1", self.q1),
            ("q2", self.q2),
            ("q1_target", self.q1_target),
            ("q2_target", self.q2_target),
        ):
            for name, value in module.state_dict().items():
                state[f"{prefix}:{name}"] = value
        state["log_alpha"] = self.log_alpha.data.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for prefix, module in (
            ("actor", self.actor),
            ("q1", self.q1),
            ("q2", self.q2),
            ("q1_target", self.q1_target),
            ("q2_target", self.q2_target),
        ):
            module.load_state_dict(
                {
                    name[len(prefix) + 1:]: value
                    for name, value in state.items()
                    if name.startswith(f"{prefix}:")
                }
            )
        self.log_alpha.data = np.asarray(state["log_alpha"], dtype=np.float64)
