"""The fused no-grad inference path: buffers, parity, FLOP truthfulness."""

from unittest import mock

import numpy as np
import pytest

from repro.rl.nn.flops import FlopCounter
from repro.rl.nn.layers import Mlp
from repro.rl.pnn import ProgressivePolicy
from repro.rl.policy import SquashedGaussianPolicy

pytestmark = pytest.mark.batch


class TestMlpInferencePlan:
    def test_fused_forward_matches_plain_bitwise(self):
        rng = np.random.default_rng(3)
        mlp = Mlp((6, 16, 4), rng=rng)
        x = rng.standard_normal((8, 6))
        plan = mlp.inference_plan(8)
        assert np.array_equal(mlp.forward_np(x, plan=plan), mlp.forward_np(x))

    def test_plan_buffers_are_reused(self):
        mlp = Mlp((6, 16, 4))
        plan = mlp.inference_plan(8)
        x = np.zeros((8, 6))
        out1 = mlp.forward_np(x, plan=plan)
        out2 = mlp.forward_np(x, plan=plan)
        # Same pinned buffer both calls: no per-call output allocation.
        assert np.shares_memory(out1, out2)

    def test_oversized_batch_falls_back(self):
        mlp = Mlp((6, 16, 4))
        plan = mlp.inference_plan(4)
        x = np.zeros((9, 6))
        assert mlp.forward_np(x, plan=plan).shape == (9, 4)


class TestPolicyActBatch:
    def _policy(self):
        return SquashedGaussianPolicy(10, 2, hidden=(16, 16))

    def test_deterministic_matches_scalar_act(self):
        policy = self._policy()
        rng = np.random.default_rng(0)
        obs = rng.standard_normal((6, 10))
        plan = policy.inference_plan(6)
        batched = policy.act_batch(obs, deterministic=True, plan=plan)
        for i in range(6):
            scalar = policy.act(obs[i], deterministic=True)
            np.testing.assert_allclose(batched[i], scalar, atol=1e-12)

    def test_sampling_consumes_per_row_streams(self):
        """Row i draws exactly what a scalar episode with rng i would."""
        policy = self._policy()
        obs = np.random.default_rng(1).standard_normal((4, 10))
        batched = policy.act_batch(
            obs, rngs=[np.random.default_rng(100 + i) for i in range(4)]
        )
        for i in range(4):
            scalar = policy.act(obs[i], rng=np.random.default_rng(100 + i))
            np.testing.assert_allclose(batched[i], scalar, atol=1e-12)

    def test_requires_matrix_and_matching_rngs(self):
        policy = self._policy()
        with pytest.raises(ValueError):
            policy.act_batch(np.zeros(10))
        with pytest.raises(ValueError):
            policy.act_batch(
                np.zeros((3, 10)), rngs=[np.random.default_rng(0)]
            )

    def test_forward_np_fused_matches_plain(self):
        policy = self._policy()
        obs = np.random.default_rng(2).standard_normal((5, 10))
        plan = policy.inference_plan(5)
        mean_f, log_std_f = policy.forward_np(obs, plan=plan)
        mean_p, log_std_p = policy.forward_np(obs)
        assert np.array_equal(mean_f, mean_p)
        assert np.array_equal(log_std_f, log_std_p)


class TestDeterministicInference:
    """Deterministic inference reads the mean head alone: with the
    log-std head gone it acts as before, bit for bit."""

    @pytest.mark.parametrize("progressive", [False, True])
    def test_scalar_act_needs_no_log_std_head(self, progressive):
        policy = SquashedGaussianPolicy(10, 2, hidden=(16, 16))
        if progressive:
            policy = ProgressivePolicy(policy)
        obs = np.random.default_rng(4).standard_normal((3, 10))
        rows = [np.tanh(policy.forward_np(row[None])[0][0]) for row in obs]
        batch = np.tanh(policy.forward_np(obs)[0])
        with mock.patch.object(policy, "log_std_head", None):
            for row, want in zip(obs, rows):
                action = policy.act(row, deterministic=True)
                assert np.array_equal(action, want)
            assert np.array_equal(policy.act(obs, deterministic=True), batch)


class TestFlopAccounting:
    def test_fused_path_counts_like_plain(self):
        """FlopSpanProbe stays truthful: both paths book identical work."""
        policy = SquashedGaussianPolicy(10, 2, hidden=(16, 16))
        obs = np.zeros((5, 10))
        plan = policy.inference_plan(5)

        plain = FlopCounter()
        plain.enable()
        try:
            policy.forward_np(obs)
        finally:
            plain.disable()

        fused = FlopCounter()
        fused.enable()
        try:
            policy.forward_np(obs, plan=plan)
        finally:
            fused.disable()

        assert fused.flops == plain.flops
        assert fused.bytes == plain.bytes
        assert fused.total_flops() > 0.0

    def test_progressive_inference_counts_like_training(self):
        """The PNN's inference forward books the products, adds and
        activations its training forward books, heads included."""
        policy = ProgressivePolicy(
            SquashedGaussianPolicy(4, 2, hidden=(16, 16))
        )
        obs = np.random.default_rng(0).standard_normal((8, 4))

        inference = FlopCounter()
        inference.enable()
        try:
            policy.forward_np(obs)
        finally:
            inference.disable()

        training = FlopCounter()
        training.enable()
        try:
            policy.forward_gaussian(obs, policy.training_plan(8))
        finally:
            training.disable()

        assert inference.flops == training.flops
        assert inference.bytes == training.bytes
        assert inference.total_flops() > 0.0
