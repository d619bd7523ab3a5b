"""Tests for modules, MLPs and optimizers."""

import numpy as np
import pytest

from repro.rl.nn.layers import Linear, Mlp, Parameter, relu, tanh
from repro.rl.nn.optim import Adam


class TestLinear:
    def test_output_shape(self):
        """A one-layer stack is a bare Linear: ``x @ W + b``."""
        mlp = Mlp((4, 3), rng=np.random.default_rng(0))
        assert mlp.forward_np(np.ones((5, 4))).shape == (5, 3)

    def test_gradients_flow(self):
        """``write_grads`` for d sum(y) / d y: the bias gradient counts the
        rows and the weight gradient sums the input columns."""
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        x = np.ones((2, 4))
        grad = np.ones((2, 3))
        weight_grad, bias_grad = np.empty((4, 3)), np.empty(3)
        layer.write_grads(x, grad, weight_grad, bias_grad)
        assert layer.weight.grad is weight_grad
        assert layer.bias.grad is bias_grad
        np.testing.assert_allclose(layer.bias.grad, np.full(3, 2.0))
        np.testing.assert_allclose(layer.weight.grad, np.full((4, 3), 2.0))

    def test_dims(self):
        layer = Linear(7, 2)
        assert layer.in_dim == 7
        assert layer.out_dim == 2


class TestMlp:
    def test_forward_shapes(self):
        mlp = Mlp((6, 16, 16, 2), rng=np.random.default_rng(1))
        out = mlp.forward_np(np.zeros((3, 6)))
        assert out.shape == (3, 2)

    def test_forward_np_with_and_without_plan(self):
        """The fused plan path and the allocating path give the bits of
        the layer-by-layer expression."""
        mlp = Mlp(
            (5, 8, 4), activation=relu, output_activation=tanh,
            rng=np.random.default_rng(2),
        )
        first, second = mlp.layers
        x = np.random.default_rng(3).normal(size=(7, 5))
        hidden = np.maximum(x @ first.weight.data + first.bias.data, 0.0)
        expected = np.tanh(hidden @ second.weight.data + second.bias.data)
        assert np.array_equal(mlp.forward_np(x), expected)
        plan = mlp.inference_plan(7)
        assert np.array_equal(mlp.forward_np(x, plan=plan), expected)

    def test_requires_two_sizes(self):
        with pytest.raises(ValueError):
            Mlp((4,))

    def test_rejects_activation_without_derivative(self):
        with pytest.raises(TypeError, match="closed-form derivative"):
            Mlp((4, 2), activation=np.sin)
        with pytest.raises(TypeError, match="closed-form derivative"):
            Mlp((4, 2), output_activation=np.sin)

    def test_state_dict_roundtrip(self):
        a = Mlp((4, 8, 2), rng=np.random.default_rng(0))
        b = Mlp((4, 8, 2), rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = np.ones((1, 4))
        np.testing.assert_allclose(a.forward_np(x), b.forward_np(x))

    def test_state_dict_mismatch_raises(self):
        a = Mlp((4, 8, 2))
        state = a.state_dict()
        del state[next(iter(state))]
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_freeze(self):
        mlp = Mlp((4, 8, 2))
        mlp.freeze()
        assert mlp.trainable_parameters() == []
        assert len(mlp.parameters()) == 4


class TestOptimizers:
    def test_adam_converges(self):
        """Minimize ||x - target||^2 from its gradient 2 (x - target)."""
        target = np.array([1.0, -2.0, 3.0])
        x = Parameter(np.zeros(3))
        opt = Adam([x], lr=0.05)
        for _ in range(400):
            x.grad = 2.0 * (x.data - target)
            opt.step()
        assert float(np.max(np.abs(x.data - target))) < 1e-3

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_skips_frozen_params(self):
        frozen = Parameter(np.zeros(2), requires_grad=False)
        opt = Adam([frozen], lr=0.1)
        assert opt.params == []

    def test_grad_clipping(self):
        x = Parameter(np.zeros(2))
        opt = Adam([x], lr=0.1, max_grad_norm=1.0)
        x.grad = np.array([1e6, 1e6])
        opt._clip_grads()
        assert np.linalg.norm(x.grad) == pytest.approx(1.0)

    def test_step_without_grad_is_noop(self):
        x = Parameter(np.ones(2))
        opt = Adam([x], lr=0.1)
        opt.step()
        np.testing.assert_allclose(x.data, np.ones(2))
