"""Actor and critic networks for soft actor-critic.

The actor is a tanh-squashed diagonal Gaussian (actions in ``[-1, 1]^n``),
the critic an action-value MLP. Both offer a fast numpy inference path for
rollouts and target computation, and trains through closed-form
backward passes into preallocated buffers: SAC through the actor's
reparameterized sample (:meth:`SquashedGaussianPolicy.forward_train` and
:meth:`~SquashedGaussianPolicy.backward`), behaviour cloning through the
Gaussian's mean and log-std (:meth:`~SquashedGaussianPolicy.forward_gaussian`
and :meth:`~SquashedGaussianPolicy.backward_gaussian`, which the SAC pair
is built on).
"""

from __future__ import annotations

import math

import numpy as np

from repro.rl.nn import flops
from repro.rl.nn.layers import Linear, Mlp, Module, relu

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
GAUSSIAN_LOG_NORM = 0.5 * math.log(2.0 * math.pi)
_LOG2 = math.log(2.0)


class PolicyInferencePlan:
    """Preallocated buffers for the policy's fused no-grad forward.

    Bundles the trunk's :class:`~repro.rl.nn.layers.InferencePlan` with
    pinned output buffers for the mean/log-std heads and the action, so a
    steady-state ``act_batch`` loop allocates nothing per call.
    """

    def __init__(self, policy: "SquashedGaussianPolicy", max_batch: int) -> None:
        self.max_batch = int(max_batch)
        self.trunk = policy.trunk.inference_plan(max_batch)
        self._mean = np.empty((self.max_batch, policy.action_dim))
        self._log_std = np.empty((self.max_batch, policy.action_dim))
        self._action = np.empty((self.max_batch, policy.action_dim))

    def fits(self, batch: int) -> bool:
        return batch <= self.max_batch

    def mean(self, batch: int) -> np.ndarray:
        return self._mean[:batch]

    def log_std(self, batch: int) -> np.ndarray:
        return self._log_std[:batch]

    def action(self, batch: int) -> np.ndarray:
        return self._action[:batch]


class PolicyTrainingPlan:
    """Buffers for the policy's training step (SAC or behaviour cloning).

    Holds the trunk's :class:`~repro.rl.nn.layers.TrainingPlan`, the
    heads' gradient buffers and what the backward passes read of the
    last training forward.
    """

    def __init__(self, policy: "SquashedGaussianPolicy", batch: int) -> None:
        self.trunk = policy.trunk.training_plan(batch)
        self.features_grad = np.empty((batch, policy.hidden[-1]))
        self.head_grads = [
            head.grad_buffers() for head in (policy.mean_head, policy.log_std_head)
        ]
        #: The heads' input, the tanh of the raw log-std head,
        #: ``std * noise`` and the action, from the last forward.
        self.features: np.ndarray | None = None
        self.squashed_log_std: np.ndarray | None = None
        self.std_noise: np.ndarray | None = None
        self.action: np.ndarray | None = None


class SquashedGaussianPolicy(Module):
    """Stochastic policy ``pi(a | s) = tanh(N(mu(s), sigma(s)))``."""

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        hidden: tuple[int, ...] = (128, 128),
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.hidden = tuple(hidden)
        self.trunk = Mlp(
            (obs_dim, *hidden), activation=relu, output_activation=relu, rng=rng
        )
        self.mean_head = Linear(hidden[-1], action_dim, rng=rng, scale=1e-2)
        self.log_std_head = Linear(hidden[-1], action_dim, rng=rng, scale=1e-2)

    # -- training path ----------------------------------------------------------

    def training_plan(self, batch: int) -> PolicyTrainingPlan:
        """Buffers for the training forwards and backward passes."""
        return PolicyTrainingPlan(self, batch)

    def forward_gaussian(
        self, obs: np.ndarray, plan: PolicyTrainingPlan
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean and log-std of the pre-squash Gaussian, bit for bit as
        :meth:`forward_np` gives them, keeping what
        :meth:`backward_gaussian` reads.

        ``obs`` is ``(plan batch, obs_dim)`` and must stay unchanged until
        the backward has run.
        """
        features = self.trunk.forward_train(obs, plan.trunk)
        return gaussian_heads(self, features, plan)

    def backward_gaussian(
        self,
        mean_grad: np.ndarray,
        log_std_grad: np.ndarray,
        plan: PolicyTrainingPlan,
    ) -> None:
        """Parameter gradients of the last :meth:`forward_gaussian` on
        ``plan``, for d loss / d mean and d loss / d log-std (both
        ``(batch, action_dim)``); writes them into the plan and points
        the parameters' ``grad`` at them."""
        self.trunk.backward(
            gaussian_heads_backward(self, mean_grad, log_std_grad, plan),
            plan.trunk,
        )

    def forward_train(
        self, obs: np.ndarray, noise: np.ndarray, plan: PolicyTrainingPlan
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reparameterized sample and its log-probability.

        Args:
            obs: batch of observations, shape ``(plan batch, obs_dim)``.
            noise: standard-normal draws, shape ``(plan batch, action_dim)``.

        Returns:
            ``(action, log_prob)``. The log-density carries the tanh
            change-of-variables correction in its stable softplus form
            and forms ``z`` times the reciprocal std, as the reference in
            ``tests/rl/test_sac_gradients.py`` does, so the log-probability
            and the temperature step match it bit for bit.
        """
        mean, log_std = self.forward_gaussian(obs, plan)
        std = np.exp(log_std)
        std_noise = std * noise
        pre_squash = mean + std_noise
        action = np.tanh(pre_squash)
        z = (pre_squash - mean) * (1.0 / std)
        log_prob = np.sum(
            -(z * z) * 0.5 - log_std - GAUSSIAN_LOG_NORM, axis=-1
        )
        # log(1 - tanh(x)^2) = 2 * (log 2 - x - softplus(-2x))
        correction = (
            (_LOG2 - pre_squash) - np.logaddexp(0.0, -2.0 * pre_squash)
        ) * 2.0
        log_prob = log_prob - correction.sum(axis=-1)
        plan.std_noise, plan.action = std_noise, action
        hook = flops.FLOP_HOOK
        if hook is not None:
            hook.elementwise("tanh_fwd", action.size)
        return action, log_prob

    def backward(
        self,
        action_grad: np.ndarray,
        log_prob_grad: float,
        plan: PolicyTrainingPlan,
    ) -> None:
        """Parameter gradients of the last :meth:`forward_train` on ``plan``.

        Args:
            action_grad: d loss / d action, ``(batch, action_dim)``.
            log_prob_grad: d loss / d log_prob, the same for every row.

        Writes every gradient into the plan and points the parameters'
        ``grad`` at it. Under the reparameterization ``z`` is the noise, so
        the log-density reaches the pre-squash sample ``u`` only through
        the tanh correction (d/du log(1 - tanh(u)^2) = -2 tanh(u)) and the
        log-std only through its ``-log_std`` term; ``u`` moves with the
        mean one for one.
        """
        action = plan.action
        pre_grad = (
            action_grad * (1.0 - action * action)
            + (2.0 * log_prob_grad) * action
        )
        log_std_grad = pre_grad * plan.std_noise - log_prob_grad
        self.backward_gaussian(pre_grad, log_std_grad, plan)

    # -- numpy inference path ------------------------------------------------------

    def inference_plan(self, max_batch: int) -> PolicyInferencePlan:
        """Buffers enabling the fused ``forward_np`` / ``act_batch`` path."""
        return PolicyInferencePlan(self, max_batch)

    def forward_np(
        self,
        obs: np.ndarray,
        plan: PolicyInferencePlan | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean and log-std of the pre-squash Gaussian.

        With ``plan``, the trunk and both heads write into preallocated
        buffers (same ops, fused in place); the returned arrays alias the
        plan and stay valid until its next use.
        """
        hook = flops.FLOP_HOOK
        if hook is not None:
            batch = 1 if obs.ndim == 1 else obs.shape[0]
            gaussian_heads_flops(hook, self, batch)
        if plan is not None and obs.ndim == 2 and plan.fits(obs.shape[0]):
            batch = obs.shape[0]
            features = self.trunk.forward_np(obs, plan=plan.trunk)
            mean = plan.mean(batch)
            np.matmul(features, self.mean_head.weight.data, out=mean)
            mean += self.mean_head.bias.data
            log_std = plan.log_std(batch)
            np.matmul(features, self.log_std_head.weight.data, out=log_std)
            log_std += self.log_std_head.bias.data
            # In place: LOG_STD_MIN + 0.5 * (MAX - MIN) * (tanh(raw) + 1).
            np.tanh(log_std, out=log_std)
            log_std += 1.0
            log_std *= 0.5 * (LOG_STD_MAX - LOG_STD_MIN)
            log_std += LOG_STD_MIN
            return mean, log_std
        features = self.trunk.forward_np(obs)
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
        """Action for a single observation (or batch), in ``[-1, 1]``."""
        squeeze = obs.ndim == 1
        batch = obs[None, :] if squeeze else obs
        mean, log_std = self.forward_np(batch)
        if deterministic:
            action = np.tanh(mean)
        else:
            rng = rng or np.random.default_rng()
            noise = rng.standard_normal(mean.shape)
            action = np.tanh(mean + np.exp(log_std) * noise)
        return action[0] if squeeze else action

    def act_batch(
        self,
        obs: np.ndarray,
        deterministic: bool = False,
        rngs: list[np.random.Generator] | None = None,
        plan: PolicyInferencePlan | None = None,
    ) -> np.ndarray:
        """Actions for a ``[batch, obs_dim]`` matrix, in ``[-1, 1]``.

        The batched twin of :meth:`act` for lockstep evaluation: one fused
        forward covers every episode. In sampling mode each row draws its
        noise from its own generator in ``rngs`` (one per episode), so a
        batched episode consumes exactly the stream its scalar counterpart
        would — batch composition never leaks across episodes.
        """
        if obs.ndim != 2:
            raise ValueError("act_batch expects a [batch, obs_dim] matrix")
        batch = obs.shape[0]
        mean, log_std = self.forward_np(obs, plan=plan)
        if deterministic:
            if plan is not None and plan.fits(batch):
                action = plan.action(batch)
                np.tanh(mean, out=action)
                return action
            return np.tanh(mean)
        if rngs is None:
            rngs = [np.random.default_rng() for _ in range(batch)]
        if len(rngs) != batch:
            raise ValueError(
                f"need one rng per row: got {len(rngs)} for batch {batch}"
            )
        noise = np.stack(
            [rng.standard_normal((1, self.action_dim))[0] for rng in rngs]
        )
        return np.tanh(mean + np.exp(log_std) * noise)

    def sample_np(
        self,
        obs: np.ndarray,
        rng: np.random.Generator,
        plan: PolicyInferencePlan | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Numpy-only sample + log-prob (for SAC target computation).

        ``plan`` runs the forward pass in its buffers (see
        :meth:`forward_np`); the results are fresh arrays either way.
        """
        mean, log_std = self.forward_np(obs, plan=plan)
        std = np.exp(log_std)
        noise = rng.standard_normal(mean.shape)
        pre_squash = mean + std * noise
        action = np.tanh(pre_squash)
        z = (pre_squash - mean) / std
        log_prob = np.sum(
            -0.5 * z * z - log_std - 0.5 * math.log(2.0 * math.pi), axis=-1
        )
        correction = 2.0 * (
            _LOG2 - pre_squash - np.logaddexp(0.0, -2.0 * pre_squash)
        )
        log_prob = log_prob - correction.sum(axis=-1)
        return action, log_prob


def gaussian_heads(
    policy, features: np.ndarray, plan
) -> tuple[np.ndarray, np.ndarray]:
    """The mean and bounded log-std heads of ``policy`` on ``features``.

    The training forward shared by :class:`SquashedGaussianPolicy` and
    the progressive policy, with the ops of ``forward_np``; keeps
    ``features`` and the tanh of the raw log-std in ``plan`` for
    :func:`gaussian_heads_backward`.
    """
    mean = features @ policy.mean_head.weight.data + policy.mean_head.bias.data
    squashed = np.tanh(
        features @ policy.log_std_head.weight.data
        + policy.log_std_head.bias.data
    )
    log_std = LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (
        squashed + 1.0
    )
    plan.features, plan.squashed_log_std = features, squashed
    hook = flops.FLOP_HOOK
    if hook is not None:
        gaussian_heads_flops(hook, policy, features.shape[0])
    return mean, log_std


def gaussian_heads_flops(hook, policy, batch: int) -> None:
    """Report both heads' products and bias adds and the log-std tanh of
    ``policy`` on ``batch`` rows to the FLOP ``hook``."""
    for head in (policy.mean_head, policy.log_std_head):
        hook.matmul(batch, head.in_dim, head.out_dim)
        hook.elementwise("add_fwd", batch * head.out_dim)
    hook.elementwise("tanh_fwd", batch * policy.action_dim)


def gaussian_heads_backward(
    policy,
    mean_grad: np.ndarray,
    log_std_grad: np.ndarray,
    plan,
    rows: slice = slice(None),
) -> np.ndarray:
    """Both heads' weight and bias gradients for d loss / d mean and
    d loss / d log-std of the last :func:`gaussian_heads` on ``plan``.

    Returns d loss / d ``features[:, rows]`` in ``plan.features_grad``;
    the other feature columns get no gradient.
    """
    features = plan.features
    squashed = plan.squashed_log_std
    raw_grad = (
        log_std_grad
        * (0.5 * (LOG_STD_MAX - LOG_STD_MIN))
        * (1.0 - squashed * squashed)
    )
    heads = (policy.mean_head, policy.log_std_head)
    for head, grad, (weight_grad, bias_grad) in zip(
        heads, (mean_grad, raw_grad), plan.head_grads
    ):
        head.write_grads(features, grad, weight_grad, bias_grad)
    features_grad = np.matmul(
        mean_grad, policy.mean_head.weight.data[rows].T, out=plan.features_grad
    )
    features_grad += raw_grad @ policy.log_std_head.weight.data[rows].T
    hook = flops.FLOP_HOOK
    if hook is not None:
        for head in heads:
            hook.matmul_grad(
                mean_grad.shape[0], head.out_dim, features_grad.shape[1]
            )
    return features_grad


class QNetwork(Module):
    """Action-value critic ``Q(s, a)``.

    ``net`` maps the joint ``[obs, action]`` row to Q. SAC trains it
    through :meth:`~repro.rl.nn.layers.Mlp.forward_train` and
    :meth:`~repro.rl.nn.layers.Mlp.backward` on that joint input.
    """

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        hidden: tuple[int, ...] = (128, 128),
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.net = Mlp((obs_dim + action_dim, *hidden, 1), rng=rng)

    def forward_np(self, obs: np.ndarray, action: np.ndarray) -> np.ndarray:
        joint = np.concatenate([obs, action], axis=-1)
        return self.net.forward_np(joint)[:, 0]
