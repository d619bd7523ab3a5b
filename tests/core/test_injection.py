"""Tests for the injection channel (budget, quantization, noise) and the
effort the episode ledger books from its deltas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attackers import NullAttacker
from repro.core.injection import (
    ACTIVE_THRESHOLD,
    InjectionChannel,
    InjectionChannelConfig,
)
from repro.eval.episodes import EpisodeLedger
from repro.sim import ScenarioConfig
from repro.telemetry.metrics import get_registry

SCENARIO = ScenarioConfig()


class TestConfigValidation:
    def test_budget_bounds(self):
        InjectionChannelConfig(budget=0.0)
        InjectionChannelConfig(budget=1.2)
        with pytest.raises(ValueError):
            InjectionChannelConfig(budget=-0.1)
        with pytest.raises(ValueError):
            InjectionChannelConfig(budget=2.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            InjectionChannelConfig(noise_std=-1.0)
        with pytest.raises(ValueError):
            InjectionChannelConfig(quantization=-1.0)


class TestInjection:
    def test_scaling_by_budget(self):
        channel = InjectionChannel(InjectionChannelConfig(budget=0.5))
        assert channel.inject(1.0) == pytest.approx(0.5)
        assert channel.inject(-0.5) == pytest.approx(-0.25)

    def test_action_clipped_before_scaling(self):
        channel = InjectionChannel(InjectionChannelConfig(budget=0.5))
        assert channel.inject(10.0) == pytest.approx(0.5)

    @given(st.floats(-2.0, 2.0), st.floats(0.0, 1.2))
    @settings(max_examples=50)
    def test_never_exceeds_budget(self, action, budget):
        channel = InjectionChannel(InjectionChannelConfig(budget=budget))
        assert abs(channel.inject(action)) <= budget + 1e-12

    def test_quantization(self):
        channel = InjectionChannel(
            InjectionChannelConfig(budget=1.0, quantization=0.25)
        )
        assert channel.inject(0.3) == pytest.approx(0.25)
        assert channel.inject(0.4) == pytest.approx(0.5)

    def test_noise_bounded_by_budget(self):
        channel = InjectionChannel(
            InjectionChannelConfig(budget=0.5, noise_std=1.0),
            rng=np.random.default_rng(0),
        )
        for _ in range(100):
            assert abs(channel.inject(1.0)) <= 0.5

    def test_zero_budget_always_zero(self):
        channel = InjectionChannel(InjectionChannelConfig(budget=0.0))
        assert channel.inject(1.0) == 0.0


def book(deltas):
    """One episode of ``deltas`` through a one-row ledger: its result and
    the active ticks it added to the registry."""
    registry = get_registry()
    before = registry.counter("attack_active_ticks_total").value
    ledger = EpisodeLedger([0], None, NullAttacker(), SCENARIO)
    for step, delta in enumerate(deltas, start=1):
        ledger.tick(
            True, step, step * SCENARIO.dt, delta, (0.0,) * 4, 0.0, 0.0,
            0.0, np.nan,
        )
    (result,) = ledger.finish(
        [None], 0, len(deltas), len(deltas) * SCENARIO.dt
    )
    active = registry.counter("attack_active_ticks_total").value - before
    return result, active


class TestEffortAccounting:
    """The episode ledger books the effort of the deltas a channel
    injects; the channel keeps no books."""

    def test_effort_over_active_steps_only(self):
        channel = InjectionChannel(InjectionChannelConfig(budget=1.0))
        # The middle tick lurks.
        result, active = book([channel.inject(a) for a in (1.0, 0.0, -1.0)])
        assert active == 2
        assert result.steps == 3
        assert result.mean_effort == pytest.approx(1.0)

    def test_tiny_injections_count_as_lurking(self):
        channel = InjectionChannel(InjectionChannelConfig(budget=1.0))
        # At the threshold itself too: only |delta| above it is active.
        deltas = [channel.inject(ACTIVE_THRESHOLD / 2.0)]
        deltas.append(channel.inject(ACTIVE_THRESHOLD))
        result, active = book(deltas)
        assert active == 0
        assert result.mean_effort == 0.0

    def test_reset_clears_counters(self):
        """There is nothing to reset: a channel keeps no counters, so a
        second episode through it books only its own deltas."""
        channel = InjectionChannel()
        book([channel.inject(1.0)])
        result, active = book([channel.inject(0.5)])
        assert not hasattr(channel, "reset")
        assert active == 1
        assert result.mean_effort == 0.5

    def test_effort_reflects_partial_magnitude(self):
        channel = InjectionChannel(InjectionChannelConfig(budget=1.0))
        result, _ = book([channel.inject(0.5), channel.inject(0.5)])
        assert result.mean_effort == pytest.approx(0.5)
