"""Tests for the squashed-Gaussian policy, Q-network and replay buffer."""

import numpy as np
import pytest

from repro.rl.policy import QNetwork, SquashedGaussianPolicy
from repro.rl.replay import ReplayBuffer


@pytest.fixture()
def policy():
    return SquashedGaussianPolicy(6, 2, hidden=(16, 16), rng=np.random.default_rng(0))


class TestSquashedGaussianPolicy:
    def test_actions_bounded(self, policy):
        rng = np.random.default_rng(1)
        obs = rng.normal(size=(50, 6))
        actions = policy.act(obs, rng=rng)
        assert actions.shape == (50, 2)
        assert np.all(np.abs(actions) <= 1.0)

    def test_single_obs_squeezed(self, policy):
        action = policy.act(np.zeros(6), deterministic=True)
        assert action.shape == (2,)

    def test_deterministic_repeatable(self, policy):
        obs = np.ones(6)
        a = policy.act(obs, deterministic=True)
        b = policy.act(obs, deterministic=True)
        np.testing.assert_array_equal(a, b)

    def test_stochastic_varies(self, policy):
        obs = np.ones(6)
        rng = np.random.default_rng(2)
        a = policy.act(obs, rng=rng)
        b = policy.act(obs, rng=rng)
        assert not np.allclose(a, b)

    def test_forward_gaussian_matches_forward_np(self, policy):
        """Behaviour cloning's training forward gives the inference
        path's bits, with and without an inference plan."""
        obs = np.random.default_rng(3).normal(size=(4, 6))
        trained = policy.forward_gaussian(obs, policy.training_plan(4))
        planned = policy.forward_np(obs, plan=policy.inference_plan(4))
        for got, expected, fused in zip(trained, policy.forward_np(obs), planned):
            assert np.array_equal(got, expected)
            assert np.array_equal(fused, expected)

    def test_log_std_bounded(self, policy):
        obs = np.random.default_rng(4).normal(size=(10, 6)) * 100.0
        _, log_std = policy.forward_np(obs)
        assert np.all(log_std >= -5.0) and np.all(log_std <= 2.0)

    def test_forward_train_logprob_matches_numpy_formula(self, policy):
        """The training log-prob must agree with the numpy fast path."""
        obs = np.random.default_rng(5).normal(size=(8, 6))
        noise = np.random.default_rng(6).standard_normal((8, 2))
        action_t, logp_t = policy.forward_train(
            obs, noise, policy.training_plan(8)
        )

        mean, log_std = policy.forward_np(obs)
        std = np.exp(log_std)
        pre = mean + std * noise
        z = (pre - mean) / std
        logp = np.sum(-0.5 * z * z - log_std - 0.5 * np.log(2 * np.pi), axis=-1)
        logp -= np.sum(
            2.0 * (np.log(2.0) - pre - np.logaddexp(0.0, -2.0 * pre)), axis=-1
        )
        np.testing.assert_allclose(logp_t, logp, atol=1e-10)
        np.testing.assert_allclose(action_t, np.tanh(pre), atol=1e-12)

    def test_sample_np_logprob_reasonable(self, policy):
        obs = np.zeros((100, 6))
        actions, logp = policy.sample_np(obs, np.random.default_rng(7))
        assert actions.shape == (100, 2)
        assert np.all(np.isfinite(logp))

    def test_backward_gradients_reach_trunk(self, policy):
        obs = np.random.default_rng(8).normal(size=(4, 6))
        noise = np.random.default_rng(9).standard_normal((4, 2))
        plan = policy.training_plan(4)
        policy.forward_train(obs, noise, plan)
        # d mean(log_prob) / d log_prob = 1/4 per row; the action unused.
        policy.backward(np.zeros((4, 2)), 0.25, plan)
        grads = [p.grad for p in policy.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.any(g != 0) for g in grads)


class TestQNetwork:
    def test_output_shape(self):
        q = QNetwork(6, 2, hidden=(16, 16), rng=np.random.default_rng(0))
        assert q.forward_np(np.zeros((5, 6)), np.zeros((5, 2))).shape == (5,)

    def test_forward_np_matches(self):
        """The inference path and SAC's training forward on the joint
        ``[obs, action]`` input give the same bits."""
        q = QNetwork(6, 2, hidden=(16, 16), rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        obs = rng.normal(size=(5, 6))
        act = rng.normal(size=(5, 2))
        joint = np.concatenate([obs, act], axis=-1)
        trained = q.net.forward_train(joint, q.net.training_plan(5))
        np.testing.assert_array_equal(q.forward_np(obs, act), trained[:, 0])

    def test_depends_on_action(self):
        q = QNetwork(6, 2, hidden=(16, 16), rng=np.random.default_rng(0))
        obs = np.zeros((1, 6))
        a = q.forward_np(obs, np.full((1, 2), 0.9))
        b = q.forward_np(obs, np.full((1, 2), -0.9))
        assert not np.allclose(a, b)


class TestReplayBuffer:
    def make_filled(self, n, capacity=10):
        buffer = ReplayBuffer(capacity, obs_dim=3, action_dim=1)
        for i in range(n):
            buffer.add(
                np.full(3, i), np.array([i]), float(i), np.full(3, i + 1), False
            )
        return buffer

    def test_len_grows_and_caps(self):
        buffer = self.make_filled(4)
        assert len(buffer) == 4
        buffer = self.make_filled(25, capacity=10)
        assert len(buffer) == 10

    def test_fifo_eviction(self):
        buffer = self.make_filled(12, capacity=10)
        # Oldest entries (0, 1) evicted: rewards present are 2..11.
        assert set(buffer.rewards.tolist()) == set(float(i) for i in range(2, 12))

    def test_sample_shapes(self):
        buffer = self.make_filled(8)
        batch = buffer.sample(5, np.random.default_rng(0))
        assert batch["obs"].shape == (5, 3)
        assert batch["actions"].shape == (5, 1)
        assert batch["rewards"].shape == (5,)
        assert batch["dones"].shape == (5,)
        assert batch["obs"].dtype == np.float64

    def test_sample_empty_raises(self):
        buffer = ReplayBuffer(4, 3, 1)
        with pytest.raises(ValueError):
            buffer.sample(1, np.random.default_rng(0))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, 3, 1)

    def test_done_stored_as_float(self):
        buffer = ReplayBuffer(4, 3, 1)
        buffer.add(np.zeros(3), np.zeros(1), 0.0, np.zeros(3), True)
        assert buffer.dones[0] == 1.0
