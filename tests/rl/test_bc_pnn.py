"""Tests for behaviour cloning and progressive neural networks."""

import numpy as np
import pytest

from repro.agents.e2e.agent import load_progressive, save_progressive
from repro.rl import BcConfig, BehaviorCloner, ProgressivePolicy, Sac, SacConfig
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

    def test_rejects_arrays_that_would_broadcast(self, dataset):
        """A ``[n]`` action column for a one-action policy, or a ``[n, 1]``
        one for a two-action policy, broadcasts in the loss instead of
        lining up; both are refused by the shapes expected."""
        obs, actions = dataset
        one = BehaviorCloner(SquashedGaussianPolicy(3, 1, (8,)))
        two = BehaviorCloner(SquashedGaussianPolicy(3, 2, (8,)))
        cases = [
            (one, obs, actions[:, 0], r"\[n, 3\].*\[n, 1\]"),
            (two, obs, actions[:, :1], r"\[n, 3\].*\[n, 2\]"),
            (two, obs[:, :2], actions, r"\[n, 3\].*\[n, 2\]"),
        ]
        for cloner, observations, targets, expected in cases:
            with pytest.raises(ValueError, match=expected):
                cloner.fit(observations, targets)
            with pytest.raises(ValueError, match=expected):
                cloner.evaluate(observations, targets)


class TestProgressivePolicy:
    def make(self):
        base = SquashedGaussianPolicy(4, 2, (16, 16), np.random.default_rng(0))
        return base, ProgressivePolicy(base, np.random.default_rng(1))

    def test_base_frozen(self):
        base, pnn = self.make()
        assert all(not p.requires_grad for p in base.parameters())
        assert any(p.requires_grad for p in pnn.trainable_parameters())

    def test_forward_gaussian_matches_forward_np(self):
        """The training forward gives the inference path's bits."""
        _, pnn = self.make()
        obs = np.random.default_rng(2).normal(size=(5, 4))
        trained = pnn.forward_gaussian(obs, pnn.training_plan(5))
        for got, expected in zip(trained, pnn.forward_np(obs)):
            assert np.array_equal(got, expected)

    def test_actions_bounded(self):
        _, pnn = self.make()
        obs = np.random.default_rng(3).normal(size=(20, 4))
        actions = pnn.act(obs, rng=np.random.default_rng(4))
        assert np.all(np.abs(actions) <= 1.0)

    @staticmethod
    def clone(pnn, epochs=1):
        """Behaviour cloning on 20 random rows (minibatches of 16 and 4)."""
        obs = np.random.default_rng(5).normal(size=(20, 4))
        target = np.random.default_rng(6).uniform(-1.0, 1.0, size=(20, 2))
        config = BcConfig(lr=1e-2, batch_size=16, epochs=epochs)
        BehaviorCloner(pnn, config, np.random.default_rng(7)).fit(obs, target)

    def test_training_leaves_column1_unchanged(self):
        base, pnn = self.make()
        before = {k: v.copy() for k, v in base.state_dict().items()}
        self.clone(pnn, epochs=3)
        after = base.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])
        assert all(p.grad is None for p in base.parameters())

    def test_training_changes_column2(self):
        _, pnn = self.make()
        before = pnn.column2_layers[0].weight.data.copy()
        self.clone(pnn)
        assert not np.allclose(before, pnn.column2_layers[0].weight.data)

    def test_save_load_roundtrip(self, tmp_path):
        """``driver_pnn.npz`` round trip: the same outputs, and column 1
        still frozen, so cloning the loaded policy leaves it alone."""
        _, pnn = self.make()
        self.clone(pnn)
        path = save_progressive(pnn, tmp_path / "pnn.npz")
        loaded = load_progressive(path)
        obs = np.random.default_rng(8).normal(size=(6, 4))
        for got, expected in zip(loaded.forward_np(obs), pnn.forward_np(obs)):
            assert np.array_equal(got, expected)
        assert not any(p.requires_grad for p in loaded.column1.parameters())
        assert len(loaded.trainable_parameters()) == len(
            pnn.trainable_parameters()
        )
        column1 = {k: v.copy() for k, v in loaded.column1.state_dict().items()}
        self.clone(loaded)
        for key, value in loaded.column1.state_dict().items():
            assert np.array_equal(value, column1[key]), key

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


# -- the closed-form BC gradient against finite differences ------------------------


def make_policy(kind):
    base = SquashedGaussianPolicy(3, 2, (5, 4), np.random.default_rng(0))
    if kind == "squashed":
        return base
    pnn = ProgressivePolicy(base, np.random.default_rng(1))
    # Move the heads off their near-zero init so every path carries weight.
    for head in (pnn.mean_head, pnn.log_std_head):
        head.weight.data = np.random.default_rng(2).normal(
            0.0, 0.5, size=head.weight.data.shape
        )
    return pnn


def bc_loss(policy, obs, actions, config):
    mean, log_std = policy.forward_np(obs)
    return np.mean((np.tanh(mean) - actions) ** 2) + config.std_weight * np.mean(
        (log_std - config.target_log_std) ** 2
    )


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


@pytest.mark.parametrize("kind", ["squashed", "progressive"])
class TestBcFiniteDifferences:
    """One epoch over 7 rows in minibatches of 5 and 2, with every Adam step
    replaced by a recorder, so each recorded gradient is the one the step
    would read at the untouched parameters."""

    def test_against_finite_differences(self, kind):
        policy = make_policy(kind)
        data = np.random.default_rng(3)
        obs = data.normal(size=(7, 3))
        actions = data.uniform(-0.9, 0.9, size=(7, 2))
        config = BcConfig(batch_size=5, epochs=1, std_weight=0.7)
        cloner = BehaviorCloner(policy, config, np.random.default_rng(4))
        order = np.random.default_rng(4).permutation(7)
        recorded = []
        cloner.optimizer.step = lambda: recorded.append(
            [param.grad.copy() for param in cloner.optimizer.params]
        )
        cloner.fit(obs, actions)
        assert [len(batch) for batch in (order[:5], order[5:])] == [5, 2]
        assert len(recorded) == 2
        for idx, grads in zip((order[:5], order[5:]), recorded):
            numeric = central_differences(
                lambda: bc_loss(policy, obs[idx], actions[idx], config),
                cloner.optimizer.params,
            )
            for grad, fd in zip(grads, numeric):
                np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)
        if kind == "progressive":
            assert all(p.grad is None for p in policy.column1.parameters())
