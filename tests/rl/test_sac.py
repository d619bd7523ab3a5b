"""SAC learner tests: mechanics, checkpointing, and a toy control task."""

import numpy as np
import pytest

from repro.rl import Sac, SacConfig


class PointChaseEnv:
    """Minimal 1-D control task: drive the point onto the target.

    obs = (position, target); action in [-1, 1] moves the point by 0.5*a;
    reward = -|position - target| after the move. Episodes last 20 steps.
    """

    horizon = 20

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.position = 0.0
        self.target = 0.0
        self.steps = 0

    def reset(self) -> np.ndarray:
        self.position = float(self.rng.uniform(-1.0, 1.0))
        self.target = float(self.rng.uniform(-1.0, 1.0))
        self.steps = 0
        return self._obs()

    def step(self, action: np.ndarray):
        self.position += 0.5 * float(np.clip(action[0], -1.0, 1.0))
        self.steps += 1
        reward = -abs(self.position - self.target)
        done = self.steps >= self.horizon
        return self._obs(), reward, done

    def _obs(self) -> np.ndarray:
        return np.array([self.position, self.target])


def run_episode(env, sac, deterministic=True) -> float:
    obs = env.reset()
    total = 0.0
    done = False
    while not done:
        action = sac.act(obs, deterministic=deterministic)
        obs, reward, done = env.step(action)
        total += reward
    return total


#: Uniform-random exploration steps before the toy task's policy acts.
WARMUP_STEPS = 200


@pytest.fixture(scope="module")
def small_config():
    return SacConfig(
        hidden=(32, 32),
        batch_size=64,
        buffer_capacity=10_000,
        alpha=0.2,
    )


class TestSacMechanics:
    def test_act_bounds(self, small_config):
        sac = Sac(2, 1, small_config, rng=np.random.default_rng(0))
        for _ in range(20):
            action = sac.act(np.random.default_rng(1).normal(size=2))
            assert np.all(np.abs(action) <= 1.0)

    def test_update_returns_finite_losses(self, small_config):
        sac = Sac(2, 1, small_config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _ in range(200):
            sac.observe(
                rng.normal(size=2), rng.uniform(-1, 1, 1), rng.normal(),
                rng.normal(size=2), False,
            )
        stats = sac.update()
        for key in ("critic_loss", "actor_loss", "alpha"):
            assert np.isfinite(stats[key])
        assert sac.total_updates == 1

    def test_polyak_moves_targets(self, small_config):
        sac = Sac(2, 1, small_config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _ in range(100):
            sac.observe(
                rng.normal(size=2), rng.uniform(-1, 1, 1), rng.normal(),
                rng.normal(size=2), False,
            )
        before = {
            k: v.copy() for k, v in sac.q1_target.state_dict().items()
        }
        for _ in range(5):
            sac.update()
        after = sac.q1_target.state_dict()
        assert any(
            not np.allclose(before[k], after[k]) for k in before
        )

    def test_alpha_autotune_changes_alpha(self, small_config):
        sac = Sac(2, 1, small_config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _ in range(300):
            sac.observe(
                rng.normal(size=2), rng.uniform(-1, 1, 1), rng.normal(),
                rng.normal(size=2), False,
            )
        before = sac.alpha
        for _ in range(30):
            sac.update()
        assert sac.alpha != before

    def test_state_dict_roundtrip(self, small_config):
        sac = Sac(2, 1, small_config, rng=np.random.default_rng(0))
        clone = Sac(2, 1, small_config, rng=np.random.default_rng(9))
        clone.load_state_dict(sac.state_dict())
        obs = np.array([0.3, -0.7])
        np.testing.assert_allclose(
            sac.act(obs, deterministic=True), clone.act(obs, deterministic=True)
        )
        assert clone.alpha == pytest.approx(sac.alpha)


class TestSacLearnsToyTask:
    def test_improves_over_random(self, small_config):
        """After a short training run, SAC beats the untrained policy by a
        wide margin on the point-chase task."""
        rng = np.random.default_rng(42)
        sac = Sac(2, 1, small_config, rng=rng)
        env = PointChaseEnv(seed=0)
        eval_env = PointChaseEnv(seed=100)

        before = np.mean([run_episode(eval_env, sac) for _ in range(10)])

        obs = env.reset()
        for step in range(4000):
            if step < WARMUP_STEPS:
                action = rng.uniform(-1.0, 1.0, size=1)
            else:
                action = sac.act(obs)
            next_obs, reward, done = env.step(action)
            sac.observe(obs, action, reward, next_obs, False)
            obs = env.reset() if done else next_obs
            if step >= WARMUP_STEPS and step % 2 == 0:
                sac.update()

        after = np.mean([run_episode(eval_env, sac) for _ in range(10)])
        assert after > before + 2.0
        # Near-optimal play keeps the point close to the target: the best
        # possible score is bounded below by roughly -2 (approach time).
        assert after > -4.0
