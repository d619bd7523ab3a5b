"""Tests for experiment drivers (tiny protocols over shipped artifacts)."""

from unittest import mock

import numpy as np
import pytest

from repro.experiments import registry
from repro.experiments.common import Table, fmt

REQUIRED = [
    registry.E2E_DRIVER,
    registry.CAMERA_ATTACKER_E2E,
    registry.CAMERA_ATTACKER_MODULAR,
    registry.IMU_ATTACKER,
    registry.FINETUNED_RHO_11,
    registry.FINETUNED_RHO_2,
    registry.PNN_COLUMN,
]

needs_artifacts = pytest.mark.skipif(
    not all(registry.has_artifact(name) for name in REQUIRED),
    reason="shipped artifacts missing; run examples/train_all.py",
)


class TestTable:
    def test_render_contains_cells(self):
        table = Table("t", ["a", "b"])
        table.add("x", 1)
        text = table.render()
        assert "x" in text and "1" in text and "t" in text

    def test_fmt(self):
        assert fmt(1.234, 1) == "1.2"
        assert fmt(1.0) == "1.00"


class TestRegistry:
    def test_artifacts_dir_exists(self):
        assert registry.artifacts_dir().name == "artifacts"

    def test_missing_artifact_raises(self):
        with pytest.raises(FileNotFoundError):
            registry.artifact_path("nope_does_not_exist.npz")

    def test_has_artifact_false_for_missing(self):
        assert not registry.has_artifact("nope_does_not_exist.npz")

    @needs_artifacts
    def test_victims_constructible(self, quiet_world):
        assert registry.modular_victim(quiet_world) is not None
        assert registry.e2e_victim(quiet_world) is not None
        assert registry.finetuned_victim_rho11(quiet_world) is not None
        assert registry.finetuned_victim_rho2(quiet_world) is not None
        pnn = registry.pnn_victim(quiet_world, sigma=0.2, budget=0.5)
        assert pnn.believed_budget == 0.5

    @needs_artifacts
    def test_e2e_victims_share_weights(self, quiet_world):
        a = registry.e2e_victim(quiet_world)
        b = registry.e2e_victim(quiet_world)
        assert a.policy is b.policy
        assert a is not b

    @needs_artifacts
    def test_attackers_budget_scaling(self):
        attacker = registry.camera_attacker(0.3)
        assert attacker.budget == 0.3
        assert registry.imu_attacker(0.7).budget == 0.7

    @needs_artifacts
    def test_attacker_per_victim(self):
        a = registry.camera_attacker(1.0, victim="e2e")
        b = registry.camera_attacker(1.0, victim="modular")
        assert a.policy is not b.policy


@needs_artifacts
class TestExperimentDrivers:
    def test_fig4_tiny(self):
        from repro.experiments import fig4

        with mock.patch.object(
            fig4, "run_episodes", wraps=fig4.run_episodes
        ) as runs:
            result = fig4.run(n_episodes=2, budgets=(0.0, 1.0))
        assert len(result.cells) == 4  # 2 attackers x 2 budgets
        # Budget 0 runs no attacker: both rows share one nominal run.
        assert runs.call_count == 3
        nominal = result.cell("camera", 0.0).episodes
        assert result.cell("imu", 0.0).episodes is nominal
        cell = result.cell("camera", 1.0)
        assert 0.0 <= cell.success <= 1.0
        assert result.table().render()

    def test_fig4_reward_reduction_positive(self):
        from repro.experiments import fig4

        result = fig4.run(n_episodes=3, budgets=(0.0, 1.0))
        assert result.reward_reduction("camera") > 0.3

    def test_fig5_tiny(self):
        from repro.experiments import fig5

        result = fig5.run(rounds=2, budgets=(0.0, 1.0))
        assert len(result.points) == 8
        assert result.table().render()
        assert result.low_effort_rmse("modular") < 0.1

    def test_fig6_tiny(self):
        from repro.experiments import fig6

        result = fig6.run(
            n_episodes=2,
            budgets=(0.0, 1.0),
            agents=("original", "pnn sigma=0.2"),
        )
        clean_orig = result.cell("original", 0.0).nominal.mean
        clean_pnn = result.cell("pnn sigma=0.2", 0.0).nominal.mean
        # The switcher routes to the original below sigma: identical runs.
        assert clean_pnn == pytest.approx(clean_orig)

    def test_fig7_tiny(self):
        from repro.experiments import fig7

        result = fig7.run(
            rounds=1, budgets=(0.5,), agents=("finetuned rho=1/2",)
        )
        assert result.average_tracking_error("finetuned rho=1/2") >= 0.0
        assert result.table().render()

    def test_fig8_reuses_fig7(self):
        from repro.experiments import fig7, fig8

        f7 = fig7.run(rounds=1, budgets=(1.0,))
        f8 = fig8.run(rounds=1, budgets=(1.0,), fig7=f7)
        assert set(f8.episodes) == {
            "original",
            "finetuned rho=1/11",
            "finetuned rho=1/2",
            "pnn sigma=0.2",
            "pnn sigma=0.4",
        }
        assert f8.table().render()

    def test_fig8_marks_windows_without_episodes(self):
        from repro.eval.episodes import EpisodeResult
        from repro.experiments.fig8 import Fig8Result

        episode = EpisodeResult(
            steps=10, duration=1.0, collision=None, passed_npcs=0,
            nominal_return=0.0, adversarial_return=0.0, mean_effort=0.1,
            deviation_rmse=0.0, deviation_max=0.0, time_to_collision=None,
        )
        (row,) = Fig8Result(episodes={"original": [episode]}).table().rows
        assert row == ["original", "0.00", "–", "–", "–", "–", "0.00"]

    def test_headline_tiny(self):
        from repro.experiments import headline

        result = headline.run(n_episodes=2)
        assert result.mean_passed > 5.0
        assert result.camera_reward_reduction > 0.3
        assert result.table().render()

    def test_unknown_agent_rejected(self):
        from repro.experiments.fig6 import victim_factory_for

        with pytest.raises(KeyError):
            victim_factory_for("unknown", 0.0)
