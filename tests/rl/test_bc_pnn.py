"""Tests for behaviour cloning and progressive neural networks."""

import numpy as np
import pytest

from repro.rl import BcConfig, BehaviorCloner, ProgressivePolicy, Sac, SacConfig
from repro.rl.nn.autograd import Tensor
from repro.rl.policy import SquashedGaussianPolicy


def expert(obs: np.ndarray) -> np.ndarray:
    """A smooth nonlinear expert mapping to clone."""
    return np.stack(
        [np.tanh(obs[:, 0] - obs[:, 1]), np.tanh(0.5 * obs[:, 2])], axis=1
    )


@pytest.fixture()
def dataset():
    rng = np.random.default_rng(0)
    obs = rng.normal(size=(600, 3))
    return obs, expert(obs)


class TestBehaviorCloner:
    def test_loss_decreases(self, dataset):
        obs, actions = dataset
        policy = SquashedGaussianPolicy(3, 2, (32, 32), np.random.default_rng(1))
        cloner = BehaviorCloner(policy, BcConfig(epochs=15), np.random.default_rng(2))
        losses = cloner.fit(obs, actions)
        assert losses[-1] < losses[0] * 0.5

    def test_clones_expert(self, dataset):
        obs, actions = dataset
        policy = SquashedGaussianPolicy(3, 2, (32, 32), np.random.default_rng(1))
        cloner = BehaviorCloner(policy, BcConfig(epochs=40), np.random.default_rng(2))
        cloner.fit(obs, actions)
        assert cloner.evaluate(obs, actions) < 0.02

    def test_log_std_regularized(self, dataset):
        obs, actions = dataset
        policy = SquashedGaussianPolicy(3, 2, (32, 32), np.random.default_rng(1))
        config = BcConfig(epochs=30, target_log_std=-1.5)
        BehaviorCloner(policy, config, np.random.default_rng(2)).fit(obs, actions)
        _, log_std = policy.forward_np(obs[:50])
        assert np.mean(np.abs(log_std - (-1.5))) < 0.5

    def test_validation(self):
        policy = SquashedGaussianPolicy(3, 2, (8,))
        cloner = BehaviorCloner(policy)
        with pytest.raises(ValueError):
            cloner.fit(np.zeros((3, 3)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            cloner.fit(np.zeros((0, 3)), np.zeros((0, 2)))


class TestProgressivePolicy:
    def make(self):
        base = SquashedGaussianPolicy(4, 2, (16, 16), np.random.default_rng(0))
        return base, ProgressivePolicy(base, np.random.default_rng(1))

    def test_base_frozen(self):
        base, pnn = self.make()
        assert all(not p.requires_grad for p in base.parameters())
        assert any(p.requires_grad for p in pnn.trainable_parameters())

    def test_forward_np_matches_autodiff(self):
        _, pnn = self.make()
        obs = np.random.default_rng(2).normal(size=(5, 4))
        mean_np, log_std_np = pnn.forward_np(obs)
        mean_t, log_std_t = pnn.distribution(Tensor(obs))
        np.testing.assert_allclose(mean_np, mean_t.data, atol=1e-12)
        np.testing.assert_allclose(log_std_np, log_std_t.data, atol=1e-12)

    def test_actions_bounded(self):
        _, pnn = self.make()
        obs = np.random.default_rng(3).normal(size=(20, 4))
        actions = pnn.act(obs, rng=np.random.default_rng(4))
        assert np.all(np.abs(actions) <= 1.0)

    @staticmethod
    def distribution_loss(pnn):
        """A BC-style loss through ``distribution``, the path PNN trains on."""
        obs = np.random.default_rng(5).normal(size=(16, 4))
        target = np.random.default_rng(6).uniform(-1.0, 1.0, size=(16, 2))
        mean, log_std = pnn.distribution(Tensor(obs))
        return ((mean.tanh() - Tensor(target)) ** 2.0).mean() + (
            (log_std + 1.5) ** 2.0
        ).mean()

    def test_training_leaves_column1_unchanged(self):
        base, pnn = self.make()
        before = {k: v.copy() for k, v in base.state_dict().items()}

        from repro.rl.nn.optim import Adam

        opt = Adam(pnn.trainable_parameters(), lr=1e-2)
        for _ in range(5):
            loss = self.distribution_loss(pnn)
            opt.zero_grad()
            loss.backward()
            opt.step()

        after = base.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_training_changes_column2(self):
        _, pnn = self.make()
        before = pnn.column2_layers[0].weight.data.copy()

        from repro.rl.nn.optim import Adam

        opt = Adam(pnn.trainable_parameters(), lr=1e-2)
        self.distribution_loss(pnn).backward()
        opt.step()
        assert not np.allclose(before, pnn.column2_layers[0].weight.data)

    def test_lateral_connections_used(self):
        """Zeroing column-1 activations must change column-2's output."""
        base, pnn = self.make()
        obs = np.random.default_rng(7).normal(size=(3, 4))
        mean_before, _ = pnn.forward_np(obs)
        for layer in base.trunk.layers:
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0
        mean_after, _ = pnn.forward_np(obs)
        assert not np.allclose(mean_before, mean_after)

    def test_sac_refuses_pnn_actor(self):
        """PNN columns train by BC/DAgger; SAC's closed-form update is
        written for a plain squashed-Gaussian actor."""
        base = SquashedGaussianPolicy(2, 1, (16, 16), np.random.default_rng(0))
        pnn = ProgressivePolicy(base, np.random.default_rng(1))
        with pytest.raises(TypeError, match="ProgressivePolicy"):
            Sac(
                2, 1,
                SacConfig(hidden=(16, 16), batch_size=32, buffer_capacity=500),
                rng=np.random.default_rng(2),
                actor=pnn,
            )
