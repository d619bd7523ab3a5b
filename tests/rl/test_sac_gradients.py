"""The tape-free SAC update against a reference and finite differences.

``taped_update`` below is the SAC update as a reverse-mode autodiff tape
evaluates it, written out in plain numpy: allocating expressions, full
input gradients, the log-density through ``z`` as a Gaussian log-prob op
forms it, each gradient's contributions summed in the order the tape
accumulates them, and the textbook (allocating) Adam and polyak steps.
It is the reference:

- the critic step computes the same ops, so its gradients and 50
  critic-only updates match bit for bit;
- the actor step computes only the action column of dQ/d input and a
  closed-form log-prob gradient, so it may differ in the last bits (at
  most 1e-12 relative);
- central finite differences at a tiny shape check the critic, actor and
  alpha gradients without the reference.
"""

import math

import numpy as np
import pytest

from repro.rl.nn.flops import FlopCounter
from repro.rl.policy import LOG_STD_MAX, LOG_STD_MIN
from repro.rl.sac import Sac, SacConfig

_LOG2 = math.log(2.0)
_LOG_NORM = 0.5 * math.log(2.0 * math.pi)


# -- the reference ----------------------------------------------------------------


def _relu_at(mlp, index):
    return index < len(mlp.layers) - 1 or mlp.output_activation is not None


def mlp_forward(mlp, x):
    """``mlp`` on ``x``; returns the output and, per layer, its input and
    pre-activation (the SAC networks are ReLU stacks)."""
    inputs, pres = [], []
    for index, layer in enumerate(mlp.layers):
        inputs.append(x)
        x = x @ layer.weight.data + layer.bias.data
        pres.append(x)
        if _relu_at(mlp, index):
            x = np.maximum(x, 0.0)
    return x, (inputs, pres)


def mlp_backward(mlp, cache, grad):
    """Every weight and bias gradient of :func:`mlp_forward` for ``grad``
    (d loss / d output); returns the full input gradient."""
    inputs, pres = cache
    for index in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[index]
        if _relu_at(mlp, index):
            grad = grad * (pres[index] > 0.0)
        layer.weight.grad = inputs[index].T @ grad
        layer.bias.grad = grad.sum(axis=0)
        grad = grad @ layer.weight.data.T
    return grad


def taped_q(q, obs, action):
    out, cache = mlp_forward(q.net, np.concatenate([obs, action], axis=-1))
    return out[:, 0], cache


def taped_actor_step(sac, obs, noise, alpha):
    """The actor loss ``mean(alpha * log_prob - min(q1, q2))`` at
    reparameterized actions; sets the actor's gradients and returns the
    loss and the log-probabilities."""
    actor, n = sac.actor, obs.shape[0]
    features, trunk = mlp_forward(actor.trunk, obs)
    mean = features @ actor.mean_head.weight.data + actor.mean_head.bias.data
    squashed = np.tanh(
        features @ actor.log_std_head.weight.data + actor.log_std_head.bias.data
    )
    log_std = LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (squashed + 1.0)
    std = np.exp(log_std)
    pre = mean + std * noise
    action = np.tanh(pre)
    # The Gaussian log-density of ``pre``, through z, with its own exp.
    density_std = np.exp(log_std)
    centred = pre - mean
    inverse = density_std ** -1.0
    z = centred * inverse
    log_prob = np.sum(-(z ** 2.0) * 0.5 - log_std - _LOG_NORM, axis=-1)
    doubled = pre * -2.0
    correction = ((-pre + _LOG2) - np.logaddexp(0.0, doubled)) * 2.0
    log_prob = log_prob - correction.sum(axis=-1)
    (q1, cache1), (q2, cache2) = (
        taped_q(q, obs, action) for q in (sac.q1, sac.q2)
    )
    loss = np.sum(log_prob * alpha - np.minimum(q1, q2)) * (1.0 / n)

    row_grad = np.full(n, 1.0 / n)
    log_prob_grad = row_grad * alpha
    # min(q1, q2) routes the gradient to the smaller critic, split evenly
    # on exact ties; the critics' input gradient is computed in full.
    ties = 0.5 * (q1 == q2)
    joint1, joint2 = (
        mlp_backward(q.net, cache, (-row_grad * (smaller + ties))[:, None])
        for q, cache, smaller in (
            (sac.q1, cache1, q1 < q2), (sac.q2, cache2, q2 < q1)
        )
    )
    action_grad = joint1[:, sac.obs_dim:] + joint2[:, sac.obs_dim:]
    # Contributions are summed in the tape's order: into ``pre`` the
    # density's (through z), the tanh correction's two (its ``-pre`` and
    # its softplus), then the action's; into ``log_std`` the density's
    # ``-log_std`` and exp terms, then the sample's exp.
    correction_grad = np.broadcast_to(
        -log_prob_grad[:, None], correction.shape
    ) * 2.0
    density_grad = np.broadcast_to(log_prob_grad[:, None], z.shape)
    z_grad = -(density_grad * 0.5) * 2.0 * z ** 1.0
    centred_grad = z_grad * inverse
    pre_grad = centred_grad + -correction_grad
    pre_grad += (-correction_grad / (1.0 + np.exp(-doubled))) * -2.0
    pre_grad += action_grad * (1.0 - action * action)
    mean_grad = pre_grad + -centred_grad
    log_std_grad = -density_grad + (
        z_grad * centred * -1.0 * density_std ** -2.0 * density_std
    )
    log_std_grad += pre_grad * noise * std
    raw_grad = (
        log_std_grad
        * (0.5 * (LOG_STD_MAX - LOG_STD_MIN))
        * (1.0 - squashed * squashed)
    )
    for head, grad in ((actor.mean_head, mean_grad), (actor.log_std_head, raw_grad)):
        head.weight.grad = features.T @ grad
        head.bias.grad = grad.sum(axis=0)
    features_grad = (
        mean_grad @ actor.mean_head.weight.data.T
        + raw_grad @ actor.log_std_head.weight.data.T
    )
    mlp_backward(actor.trunk, trunk, features_grad)
    return float(loss), log_prob


def textbook_adam_step(opt):
    """``Adam.step`` with allocating expressions; returns the pre-clip
    global norm, as ``Adam.step`` does."""
    opt._t += 1
    total = 0.0
    for param in opt.params:
        if param.grad is not None:
            total += float(np.sum(param.grad * param.grad))
    norm = np.sqrt(total)
    if opt.max_grad_norm is not None and norm > opt.max_grad_norm and norm > 0.0:
        scale = opt.max_grad_norm / norm
        for param in opt.params:
            if param.grad is not None:
                param.grad *= scale
    bias1 = 1.0 - opt.beta1 ** opt._t
    bias2 = 1.0 - opt.beta2 ** opt._t
    for param, m, v in zip(opt.params, opt._m, opt._v):
        if param.grad is None:
            continue
        grad = param.grad
        m *= opt.beta1
        m += (1.0 - opt.beta1) * grad
        v *= opt.beta2
        v += (1.0 - opt.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        param.data -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)
    return float(norm)


def taped_update(sac):
    """One SAC update as the tape ran it (see the module docstring)."""
    cfg = sac.config
    n = cfg.batch_size
    batch = sac.replay.sample(n, sac.rng)
    obs, actions = batch["obs"], batch["actions"]
    next_actions, next_log_prob = sac.actor.sample_np(batch["next_obs"], sac.rng)
    q_next = np.minimum(
        sac.q1_target.forward_np(batch["next_obs"], next_actions),
        sac.q2_target.forward_np(batch["next_obs"], next_actions),
    )
    alpha = sac.alpha
    targets = batch["rewards"] + cfg.gamma * (1.0 - batch["dones"]) * (
        q_next - alpha * next_log_prob
    )

    critic_loss = 0.0
    preds = []
    for q in (sac.q1, sac.q2):
        pred, cache = taped_q(q, obs, actions)
        error = pred - targets
        critic_loss = critic_loss + np.sum(error ** 2.0) * (1.0 / n)
        mlp_backward(q.net, cache, ((1.0 / n) * 2.0 * error)[:, None])
        preds.append(pred)
    critic_grad_norm = textbook_adam_step(sac.critic_opt)

    actor_loss_value = 0.0
    log_prob = None
    if sac.total_updates >= cfg.actor_delay:
        noise = sac.rng.standard_normal((n, sac.action_dim))
        actor_loss_value, log_prob = taped_actor_step(sac, obs, noise, alpha)
        textbook_adam_step(sac.actor_opt)

    if cfg.autotune_alpha and log_prob is not None:
        entropy_gap = log_prob + sac.target_entropy
        sac.log_alpha.grad = np.asarray(
            (np.full(n, -1.0 * (1.0 / n)) * entropy_gap).sum(axis=0)
        )
        textbook_adam_step(sac.alpha_opt)

    tau = cfg.tau
    for source, target in ((sac.q1, sac.q1_target), (sac.q2, sac.q2_target)):
        source_params = source.named_parameters()
        for name, param in target.named_parameters().items():
            param.data *= 1.0 - tau
            param.data += tau * source_params[name].data
    sac.total_updates += 1
    return {
        "critic_loss": float(critic_loss),
        "actor_loss": actor_loss_value,
        "q_mean": float(preds[0].mean()),
        "critic_grad_norm": critic_grad_norm,
    }


# -- fixtures ---------------------------------------------------------------------


def make_sac(actor_delay=0, autotune=True, obs_dim=7, action_dim=2,
             hidden=(16, 16), batch_size=32, transitions=200):
    config = SacConfig(
        hidden=hidden, batch_size=batch_size, buffer_capacity=1_000,
        actor_delay=actor_delay, autotune_alpha=autotune, alpha=0.2,
    )
    sac = Sac(obs_dim, action_dim, config, rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for _ in range(transitions):
        sac.observe(
            rng.normal(size=obs_dim), rng.uniform(-1, 1, action_dim),
            rng.normal(), rng.normal(size=obs_dim), bool(rng.random() < 0.1),
        )
    return sac


def relative_gap(grad, reference):
    return float(np.max(np.abs(grad - reference)) / np.max(np.abs(reference)))


def learner_state(sac):
    state = dict(sac.state_dict())
    for name in ("actor_opt", "critic_opt", "alpha_opt"):
        for key, value in getattr(sac, name).state_dict().items():
            state[f"{name}:{key}"] = value
    return state


# -- against the tape ---------------------------------------------------------------


class TestAgainstTape:
    def test_critic_gradients_bit_identical(self):
        taped, free = make_sac(actor_delay=10**9), make_sac(actor_delay=10**9)
        reference = taped_update(taped)
        stats = free.update()
        for ref, new in zip(taped.critic_opt.params, free.critic_opt.params):
            assert np.array_equal(ref.grad, new.grad)
        for key in ("critic_loss", "q_mean", "critic_grad_norm"):
            assert stats[key] == reference[key]

    def test_50_critic_only_updates_bit_identical(self):
        taped, free = make_sac(actor_delay=10**9), make_sac(actor_delay=10**9)
        for _ in range(50):
            taped_update(taped)
            free.update()
        reference = learner_state(taped)
        state = learner_state(free)
        assert state.keys() == reference.keys()
        for key, value in reference.items():
            assert np.array_equal(state[key], value), key

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_actor_and_alpha_gradients_within_1e12(self, seed):
        taped, free = make_sac(), make_sac()
        for sac in (taped, free):
            sac.rng = np.random.default_rng(seed)
        taped_update(taped)
        stats = free.update()
        pairs = list(zip(taped.actor_opt.params, free.actor_opt.params))
        pairs.append((taped.log_alpha, free.log_alpha))
        for ref, new in pairs:
            assert relative_gap(new.grad, ref.grad) <= 1e-12
        assert np.isfinite(stats["actor_loss"])

    def test_log_prob_and_alpha_step_bit_identical(self):
        """The training forward evaluates the log-density with the tape's
        ops, so the temperature gradient matches bit for bit."""
        taped, free = make_sac(), make_sac()
        taped_update(taped)
        free.update()
        assert np.array_equal(free.log_alpha.grad, taped.log_alpha.grad)
        assert np.array_equal(free.log_alpha.data, taped.log_alpha.data)


# -- against finite differences -----------------------------------------------------


def capture_gradients(sac):
    """Run one update with every optimizer step replaced by a recorder, so
    no parameter moves and each gradient is the one the step would read."""
    captured = {}
    for name in ("critic_opt", "actor_opt", "alpha_opt"):
        opt = getattr(sac, name)

        def record(opt=opt, name=name):
            captured[name] = [param.grad.copy() for param in opt.params]
            return 0.0

        opt.step = record
    sac.update()
    return captured


def central_differences(loss, params, h=1e-6):
    grads = []
    for param in params:
        grad = np.zeros_like(param.data)
        flat, out = param.data.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            up = loss()
            flat[i] = saved - h
            down = loss()
            flat[i] = saved
            out[i] = (up - down) / (2.0 * h)
        grads.append(grad)
    return grads


class TestFiniteDifferences:
    @pytest.fixture(scope="class")
    def setup(self):
        sac = make_sac(obs_dim=3, action_dim=2, hidden=(5, 4), batch_size=6,
                       transitions=20)
        # Replay the update's draws to rebuild its losses in plain numpy
        # (before the update moves the target critics).
        rng = np.random.default_rng()
        rng.bit_generator.state = sac.rng.bit_generator.state
        n = sac.config.batch_size
        batch = sac.replay.sample(n, rng)
        next_actions, next_log_prob = sac.actor.sample_np(batch["next_obs"], rng)
        q_next = np.minimum(
            sac.q1_target.forward_np(batch["next_obs"], next_actions),
            sac.q2_target.forward_np(batch["next_obs"], next_actions),
        )
        targets = batch["rewards"] + sac.config.gamma * (1.0 - batch["dones"]) * (
            q_next - sac.alpha * next_log_prob
        )
        noise = rng.standard_normal((n, sac.action_dim))
        grads = capture_gradients(sac)
        return sac, grads, batch, targets, noise

    @staticmethod
    def log_prob(sac, obs, noise):
        mean, log_std = sac.actor.forward_np(obs)
        pre = mean + np.exp(log_std) * noise
        log_prob = np.sum(
            -0.5 * noise * noise - log_std - 0.5 * math.log(2.0 * math.pi),
            axis=-1,
        )
        correction = 2.0 * (_LOG2 - pre - np.logaddexp(0.0, -2.0 * pre))
        return np.tanh(pre), log_prob - correction.sum(axis=-1)

    def test_critic(self, setup):
        sac, grads, batch, targets, _ = setup

        def loss():
            return sum(
                np.mean((q.forward_np(batch["obs"], batch["actions"]) - targets) ** 2)
                for q in (sac.q1, sac.q2)
            )

        numeric = central_differences(loss, sac.critic_opt.params)
        for grad, fd in zip(grads["critic_opt"], numeric):
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_actor(self, setup):
        sac, grads, batch, _, noise = setup
        obs = batch["obs"]

        def loss():
            action, log_prob = self.log_prob(sac, obs, noise)
            q = np.minimum(
                sac.q1.forward_np(obs, action), sac.q2.forward_np(obs, action)
            )
            return np.mean(sac.alpha * log_prob - q)

        numeric = central_differences(loss, sac.actor_opt.params)
        for grad, fd in zip(grads["actor_opt"], numeric):
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_alpha(self, setup):
        sac, grads, batch, _, noise = setup
        _, log_prob = self.log_prob(sac, batch["obs"], noise)

        def loss():
            return -float(sac.log_alpha.data) * np.mean(
                log_prob + sac.target_entropy
            )

        (numeric,) = central_differences(loss, [sac.log_alpha])
        np.testing.assert_allclose(
            grads["alpha_opt"][0], numeric, rtol=1e-6, atol=1e-9
        )


# -- FLOP accounting ----------------------------------------------------------------


def test_critic_only_update_flops():
    """Under ``REPRO_PROF`` accounting the critic-only update reports every
    product it computes: forwards of the target actor and critics and of
    both critics, each critic's weight gradients, and input gradients of
    all but the first layer."""
    obs_dim, action_dim, hidden, n = 7, 2, (16, 16), 32
    sac = make_sac(actor_delay=10**9, obs_dim=obs_dim, action_dim=action_dim,
                   hidden=hidden, batch_size=n)
    counter = FlopCounter()
    counter.enable()
    try:
        sac.update()
    finally:
        counter.disable()

    def product(m, k, p):
        return 2.0 * m * k * p

    q_sizes = [obs_dim + action_dim, *hidden, 1]
    q_layers = list(zip(q_sizes[:-1], q_sizes[1:]))
    q_forward = sum(product(n, a, b) for a, b in q_layers)
    actor_forward = sum(
        product(n, a, b) for a, b in zip([obs_dim, *hidden], hidden)
    ) + 2 * product(n, hidden[-1], action_dim)
    # Two target critics and the actor for the Bellman targets, two critics.
    assert counter.flops["matmul_fwd"] == actor_forward + 4 * q_forward
    weight_grads = sum(product(a, n, b) for a, b in q_layers)
    input_grads = sum(product(n, b, a) for a, b in q_layers[1:])
    assert counter.flops["matmul_bwd"] == 2 * (weight_grads + input_grads)
