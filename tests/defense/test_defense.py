"""Tests for the defense package: budget randomization, fine-tuning, PNN."""

import numpy as np
import pytest

from repro.agents.e2e import DrivingObservation, EndToEndAgent
from repro.agents.e2e.training import collect_expert_dataset
from repro.core import (
    CameraAttackObservation,
    InjectionChannel,
    InjectionChannelConfig,
    LearnedAttacker,
)
from repro.defense import (
    BUDGET_GRID,
    BudgetRandomizedAttacker,
    FinetuneConfig,
    PnnTrainConfig,
    SimplexSwitchedAgent,
    adversarial_finetune,
    train_pnn_column,
)
from repro.defense.rescue import RescueConfig, RescueExpert
from repro.rl.bc import BcConfig
from repro.rl.pnn import ProgressivePolicy
from repro.rl.policy import SquashedGaussianPolicy
from repro.sim import Control


def make_attacker(budget=1.0):
    sensor = CameraAttackObservation()
    policy = SquashedGaussianPolicy(
        sensor.observation_dim, 1, (8,), np.random.default_rng(0)
    )
    return LearnedAttacker(
        policy,
        sensor,
        channel=InjectionChannel(InjectionChannelConfig(budget=budget)),
    )


def make_base_agent():
    encoder = DrivingObservation()
    policy = SquashedGaussianPolicy(
        encoder.observation_dim, 2, (16,), np.random.default_rng(1)
    )
    return EndToEndAgent(policy, observation=encoder)


class TestBudgetRandomizedAttacker:
    def test_grid_matches_paper(self):
        assert BUDGET_GRID == tuple(round(0.1 * i, 1) for i in range(11))

    def test_rho_one_always_nominal(self, quiet_world):
        wrapper = BudgetRandomizedAttacker(
            make_attacker(), rho=1.0, rng=np.random.default_rng(0)
        )
        for _ in range(5):
            wrapper.reset(quiet_world)
            assert wrapper.current_budget == 0.0
            assert wrapper.delta(quiet_world, Control()) == 0.0

    def test_rho_zero_always_attacks(self, quiet_world):
        wrapper = BudgetRandomizedAttacker(
            make_attacker(), rho=0.0, rng=np.random.default_rng(0)
        )
        for _ in range(5):
            wrapper.reset(quiet_world)
            assert wrapper.current_budget > 0.0

    def test_budget_drawn_from_grid(self, quiet_world):
        wrapper = BudgetRandomizedAttacker(
            make_attacker(), rho=0.0, rng=np.random.default_rng(0)
        )
        seen = set()
        for _ in range(30):
            wrapper.reset(quiet_world)
            seen.add(wrapper.current_budget)
        assert seen <= set(BUDGET_GRID)
        assert len(seen) > 3

    def test_nominal_ratio_approximates_rho(self, quiet_world):
        wrapper = BudgetRandomizedAttacker(
            make_attacker(), rho=0.5, rng=np.random.default_rng(0)
        )
        nominal = 0
        for _ in range(100):
            wrapper.reset(quiet_world)
            nominal += wrapper.current_budget == 0.0
        assert 30 <= nominal <= 70

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            BudgetRandomizedAttacker(make_attacker(), rho=1.5)


class TestCollectAdversarialDataset:
    def test_shapes_and_bounds(self):
        wrapper = BudgetRandomizedAttacker(
            make_attacker(), rho=0.5, rng=np.random.default_rng(0)
        )
        obs, actions = collect_expert_dataset(
            1, np.random.default_rng(0), attacker=wrapper
        )
        assert len(obs) == len(actions)
        assert actions.shape[1] == 2
        assert np.all(np.abs(actions) <= 1.0)

    def test_rescue_expert_factory(self):
        wrapper = BudgetRandomizedAttacker(
            make_attacker(), rho=0.0, rng=np.random.default_rng(0)
        )
        obs, actions = collect_expert_dataset(
            1,
            np.random.default_rng(0),
            attacker=wrapper,
            expert_factory=lambda road: RescueExpert(
                road, RescueConfig(deviation_threshold=0.1)
            ),
        )
        # With a hair-trigger threshold under a full-budget attack, the
        # rescue reflex engages: full-brake labels appear.
        assert np.any(actions[:, 1] <= -0.99)


class TestAdversarialFinetune:
    def test_returns_new_agent_with_base_architecture(self):
        base = make_base_agent()
        config = FinetuneConfig(rho=0.5, episodes=2, bc=BcConfig(epochs=1))
        tuned = adversarial_finetune(base, make_attacker(), config)
        assert tuned is not base
        assert tuned.policy is not base.policy
        assert tuned.policy.hidden == base.policy.hidden
        assert "rho=0.50" in tuned.name

    def test_base_unchanged(self):
        base = make_base_agent()
        before = {k: v.copy() for k, v in base.policy.state_dict().items()}
        config = FinetuneConfig(rho=0.5, episodes=2, bc=BcConfig(epochs=1))
        adversarial_finetune(base, make_attacker(), config)
        after = base.policy.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_weights_actually_move(self):
        base = make_base_agent()
        config = FinetuneConfig(rho=0.5, episodes=2, bc=BcConfig(epochs=2))
        tuned = adversarial_finetune(base, make_attacker(), config)
        moved = any(
            not np.allclose(a, b)
            for a, b in zip(
                base.policy.state_dict().values(),
                tuned.policy.state_dict().values(),
            )
        )
        assert moved


class TestTrainPnnColumn:
    def test_returns_progressive_policy(self):
        base = make_base_agent()
        config = PnnTrainConfig(episodes=2, bc=BcConfig(epochs=1))
        column = train_pnn_column(base, make_attacker(), config)
        assert isinstance(column, ProgressivePolicy)
        assert column.obs_dim == base.policy.obs_dim

    def test_column1_frozen_copy_of_base(self):
        base = make_base_agent()
        config = PnnTrainConfig(episodes=2, bc=BcConfig(epochs=2))
        column = train_pnn_column(base, make_attacker(), config)
        base_state = base.policy.state_dict()
        col1_state = column.column1.state_dict()
        for key in base_state:
            np.testing.assert_array_equal(base_state[key], col1_state[key])
        assert all(not p.requires_grad for p in column.column1.parameters())


class TestSimplexSwitchedAgent:
    def make_switched(self, sigma=0.2):
        base = make_base_agent()
        column = ProgressivePolicy(base.policy, np.random.default_rng(2))
        original = make_base_agent()
        return SimplexSwitchedAgent(original, column, sigma=sigma)

    def test_routes_to_original_below_sigma(self, quiet_world):
        agent = self.make_switched(sigma=0.3)
        agent.inform_budget(0.2)
        assert agent.active is agent.original

    def test_routes_to_hardened_above_sigma(self, quiet_world):
        agent = self.make_switched(sigma=0.3)
        agent.inform_budget(0.5)
        assert agent.active is agent.hardened

    def test_boundary_inclusive(self):
        agent = self.make_switched(sigma=0.4)
        agent.inform_budget(0.4)
        assert agent.active is agent.original

    def test_estimate_budget_from_attacker(self):
        agent = self.make_switched(sigma=0.2)
        agent.estimate_budget_from(make_attacker(budget=0.7))
        assert agent.believed_budget == pytest.approx(0.7)
        assert agent.active is agent.hardened

    def test_act_matches_original_when_not_attacked(self, quiet_world):
        agent = self.make_switched(sigma=0.2)
        agent.inform_budget(0.0)
        agent.reset(quiet_world)
        switched_control = agent.act(quiet_world)
        agent.original.reset(quiet_world)
        direct_control = agent.original.act(quiet_world)
        assert switched_control.steer == pytest.approx(direct_control.steer)

    def test_invalid_sigma(self):
        base = make_base_agent()
        column = ProgressivePolicy(base.policy)
        with pytest.raises(ValueError):
            SimplexSwitchedAgent(make_base_agent(), column, sigma=-1.0)


class TestRescueExpert:
    def test_passthrough_when_on_path(self, quiet_world):
        expert = RescueExpert(quiet_world.road)
        expert.reset(quiet_world)
        control = expert.act(quiet_world)
        assert control.thrust > -0.9  # no emergency brake on path

    def test_brakes_when_deviating(self, quiet_world):
        expert = RescueExpert(
            quiet_world.road, RescueConfig(deviation_threshold=0.3)
        )
        expert.reset(quiet_world)
        expert.act(quiet_world)  # establish the plan
        quiet_world.ego.state.y += 1.5  # hijack-scale deviation
        control = expert.act(quiet_world)
        assert control.thrust == pytest.approx(-1.0)

    def test_deviation_measured_against_plan(self, quiet_world):
        expert = RescueExpert(quiet_world.road)
        expert.reset(quiet_world)
        assert expert.deviation(quiet_world) == 0.0  # no plan yet
        expert.act(quiet_world)
        assert expert.deviation(quiet_world) < 0.3
