"""Scalar vs batch engine equivalence: the contract behind the speedup.

Every configuration the paper evaluates — nominal and attacked, modular
and end-to-end — must produce the same episodes whether run through
:func:`repro.eval.run_episode` or in lockstep through
:func:`repro.eval.run_episode_batch`. Discrete outcomes (steps,
collisions, passed NPCs) must match exactly; floats must match within
the replay tolerances of :mod:`repro.obsv.replay`, whose diff machinery
does the tick-by-tick comparison here. :func:`repro.eval.run_episodes`
picks the engine from its input; the routing tests pin that choice.
"""

import numpy as np
import pytest

from repro.agents.e2e import EndToEndAgent
from repro.agents.modular import ModularAgent
from repro.agents.modular.agent import ModularAgentConfig
from repro.agents.modular.behavior import BatchBehaviorPlanner, BehaviorConfig
from repro.core import (
    ImuAttackObservation,
    InjectionChannel,
    InjectionChannelConfig,
    LearnedAttacker,
    OracleAttacker,
)
from repro.defense import DetectorSwitchedAgent
from repro.eval import run_episode, run_episode_batch, run_episodes
from repro.experiments import registry
from repro.experiments.fig6 import victim_factory_for
from repro.obsv.loader import split_episodes
from repro.obsv.replay import DEFAULT_TOLERANCES, diff_ticks
from repro.rl.policy import SquashedGaussianPolicy
from repro.sim import ScenarioConfig
from repro.sim.batch import BatchWorld
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import TraceWriter

pytestmark = pytest.mark.batch

SEEDS = [3, 7, 19, 31]

needs_artifacts = pytest.mark.skipif(
    not (
        registry.has_artifact(registry.E2E_DRIVER)
        and registry.has_artifact(registry.CAMERA_ATTACKER_E2E)
    ),
    reason="shipped artifacts missing; run examples/train_all.py",
)
needs_all_artifacts = pytest.mark.skipif(
    not all(registry.has_artifact(n) for n in registry.ALL_ARTIFACTS),
    reason="shipped artifacts missing; run examples/train_all.py",
)


def modular_victim(world):
    return ModularAgent(world.road)


def noisy_camera_attacker():
    """The camera attacker behind an IEMI-noisy channel, seeded per call."""
    base = registry.camera_attacker(1.0)
    return LearnedAttacker(
        base.policy,
        base.sensor,
        channel=InjectionChannel(
            InjectionChannelConfig(budget=1.0, noise_std=0.2),
            rng=np.random.default_rng(11),
        ),
        name="camera",
    )


def _ticks_by_episode(writer: TraceWriter) -> dict:
    return {
        episode.episode: episode.ticks
        for episode in split_episodes(writer.events)
    }


def assert_same_outcomes(seeds, scalar, batched):
    """Discrete outcomes exact, per-episode floats within 1e-9."""
    assert len(batched) == len(scalar)
    for seed, a, b in zip(seeds, scalar, batched):
        # Discrete outcomes: exact.
        assert b.steps == a.steps, f"seed {seed}"
        assert b.passed_npcs == a.passed_npcs, f"seed {seed}"
        assert (b.collision is None) == (a.collision is None), f"seed {seed}"
        if a.collision is not None:
            assert b.collision.kind is a.collision.kind
            assert b.collision.other == a.collision.other
            assert b.collision.step == a.collision.step
        # Aggregates: replay tolerance.
        for fld in (
            "duration",
            "nominal_return",
            "adversarial_return",
            "mean_effort",
            "deviation_rmse",
            "deviation_max",
        ):
            assert getattr(b, fld) == pytest.approx(
                getattr(a, fld), abs=1e-9
            ), f"seed {seed}: {fld}"
        if a.time_to_collision is None:
            assert b.time_to_collision is None
        else:
            assert b.time_to_collision == pytest.approx(
                a.time_to_collision, abs=1e-9
            )


def assert_equivalent(victim_factory, attacker_factory, seeds=SEEDS):
    scalar_writer = TraceWriter()
    scalar = [
        run_episode(
            victim_factory,
            attacker=attacker_factory(),
            seed=seed,
            trace=scalar_writer,
        )
        for seed in seeds
    ]
    batch_writer = TraceWriter()
    batched = run_episode_batch(
        victim_factory,
        attacker=attacker_factory(),
        seeds=seeds,
        trace=batch_writer,
    )
    assert_same_outcomes(seeds, scalar, batched)

    # Tick-by-tick through the replay diff machinery.
    scalar_ticks = _ticks_by_episode(scalar_writer)
    batch_ticks = _ticks_by_episode(batch_writer)
    for seed in seeds:
        assert len(batch_ticks[seed]) == len(scalar_ticks[seed])
        diffs, _, compared = diff_ticks(
            scalar_ticks[seed], batch_ticks[seed], DEFAULT_TOLERANCES
        )
        assert compared > 0
        assert not diffs, f"seed {seed}: {[str(d) for d in diffs[:5]]}"
    return scalar, batched


class TestModularEquivalence:
    def test_nominal(self):
        assert_equivalent(modular_victim, lambda: None)

    def test_oracle_attacked(self):
        scalar, _ = assert_equivalent(
            modular_victim, lambda: OracleAttacker(budget=1.0)
        )
        # The sweep must actually exercise the attacked regime.
        assert any(r.collision is not None for r in scalar)


def cautious_modular_victim(world):
    """A modular victim whose planner is not the reference planner: it
    triggers overtakes later and wants more room to change lanes."""
    behavior = BehaviorConfig(overtake_trigger=18.0, change_front_gap=16.0)
    return ModularAgent(world.road, ModularAgentConfig(behavior=behavior))


@pytest.fixture()
def planner_updates(monkeypatch):
    """Counts ``BatchBehaviorPlanner.update`` calls and lockstep ticks."""
    counts = {"update": 0, "tick": 0}
    update, tick = BatchBehaviorPlanner.update, BatchWorld.tick

    def counting_update(self, batch):
        counts["update"] += 1
        return update(self, batch)

    def counting_tick(self, *args, **kwargs):
        counts["tick"] += 1
        return tick(self, *args, **kwargs)

    monkeypatch.setattr(BatchBehaviorPlanner, "update", counting_update)
    monkeypatch.setattr(BatchWorld, "tick", counting_tick)
    return counts


class TestModularPlanners:
    """A modular victim of the default behaviour config drives on the
    reference plan; any other config runs its own planner beside it."""

    def test_default_config_shares_the_reference_plan(self, planner_updates):
        assert_equivalent(modular_victim, lambda: OracleAttacker(budget=1.0))
        assert planner_updates["tick"] > 0
        assert planner_updates["update"] == planner_updates["tick"]

    def test_other_config_runs_its_own_planner(self, planner_updates):
        scalar, _ = assert_equivalent(
            cautious_modular_victim, lambda: OracleAttacker(budget=1.0)
        )
        assert planner_updates["tick"] > 0
        assert planner_updates["update"] == 2 * planner_updates["tick"]
        # The victim's own plans differ from the reference plans: with the
        # default config's plans its episodes end otherwise.
        default = [
            run_episode(
                modular_victim, attacker=OracleAttacker(budget=1.0), seed=s
            )
            for s in SEEDS
        ]
        assert scalar != default


@needs_artifacts
class TestEndToEndEquivalence:
    def test_nominal(self):
        assert_equivalent(registry.e2e_victim, lambda: None, seeds=SEEDS[:2])

    def test_camera_attacked(self):
        scalar, _ = assert_equivalent(
            registry.e2e_victim,
            lambda: registry.camera_attacker(0.7, victim="e2e"),
            seeds=SEEDS[:2],
        )
        assert any(r.collision is not None for r in scalar)


    @needs_all_artifacts
    @pytest.mark.parametrize("agent", ["pnn sigma=0.2", "pnn sigma=0.4"])
    def test_pnn_camera_attacked(self, agent):
        # eps 0.5 is above both switch thresholds: the progressive column
        # drives.
        assert_equivalent(
            victim_factory_for(agent, 0.5),
            lambda: registry.camera_attacker(0.5),
            seeds=SEEDS[:2],
        )


class TestLockstepDeterminism:
    """A lockstep episode's result against the batch it runs in."""

    def test_modular_oracle_bit_identical(self):
        alone, pair, seven = (
            run_episode_batch(
                modular_victim,
                attacker=OracleAttacker(budget=1.0),
                seeds=range(3, 3 + size),
            )[0]
            for size in (1, 2, 7)
        )
        assert alone == pair == seven  # frozen dataclass: exact floats

    @needs_artifacts
    def test_policy_victim_within_1e9(self):
        # Batched matrix products round differently per batch size, so a
        # policy victim's floats may move in the last bits.
        alone, pair, seven = (
            run_episode_batch(registry.e2e_victim, seeds=range(3, 3 + size))
            for size in (1, 2, 7)
        )
        assert_same_outcomes([3], alone, pair[:1])
        assert_same_outcomes([3], alone, seven[:1])


@pytest.fixture()
def lockstep_ticks(monkeypatch):
    """Counts lockstep ticks: an empty list means the scalar engine ran."""
    ticks = []
    tick = BatchWorld.tick

    def counting_tick(self, *args, **kwargs):
        ticks.append(self.n)
        return tick(self, *args, **kwargs)

    monkeypatch.setattr(BatchWorld, "tick", counting_tick)
    return ticks


class TestEngineChoice:
    def test_batchable_matches_run_episode(self, lockstep_ticks):
        results = run_episodes(
            modular_victim, lambda: OracleAttacker(budget=1.0),
            n_episodes=3, seed=3,
        )
        assert lockstep_ticks and set(lockstep_ticks) == {3}
        reference = [
            run_episode(
                modular_victim, attacker=OracleAttacker(budget=1.0), seed=s
            )
            for s in (3, 4, 5)
        ]
        assert_same_outcomes([3, 4, 5], reference, results)

    @pytest.mark.parametrize(
        "victim, attacker, n_episodes",
        [
            ("odd", None, 2),
            pytest.param("modular", "imu", 2, marks=needs_all_artifacts),
            pytest.param("detector", "camera", 2, marks=needs_all_artifacts),
            # One noisy channel cannot feed two rows from one rng.
            pytest.param("e2e", "shared noisy", 2, marks=needs_artifacts),
            ("modular", None, 1),
        ],
    )
    def test_no_twin_runs_scalar(
        self, lockstep_ticks, victim, attacker, n_episodes
    ):
        victims = {
            "odd": lambda world: _OddVictim(world),
            "modular": modular_victim,
            "e2e": registry.e2e_victim,
            "detector": lambda world: DetectorSwitchedAgent(
                EndToEndAgent(registry._e2e_state()[0]),
                registry.pnn_column(),
                sigma=0.2,
            ),
        }
        attackers = {
            None: None,
            "imu": lambda: registry.imu_attacker(1.0),
            "camera": lambda: registry.camera_attacker(1.0),
        }
        if attacker == "shared noisy":
            shared = noisy_camera_attacker()
            attackers[attacker] = lambda: shared
        results = run_episodes(
            victims[victim], attackers[attacker],
            n_episodes=n_episodes, seed=0,
        )
        assert len(results) == n_episodes
        assert lockstep_ticks == []

    def test_scalar_episodes_are_counted(self):
        """``eval_scalar_episodes_total`` counts the episodes of every
        chunk that ran scalar, by reason; a lockstep chunk adds none."""
        def counts():
            return tuple(
                get_registry()
                .counter("eval_scalar_episodes_total", reason=reason)
                .value
                for reason in ("no_twin", "one_seed")
            )

        sensor = ImuAttackObservation()
        policy = SquashedGaussianPolicy(
            sensor.observation_dim, 1, (8,), np.random.default_rng(3)
        )

        def imu_attacker():
            return LearnedAttacker(
                policy,
                ImuAttackObservation(),
                channel=InjectionChannel(InjectionChannelConfig(budget=0.5)),
                name="imu",
            )

        scenario = ScenarioConfig(max_steps=5)
        before = counts()
        run_episodes(modular_victim, imu_attacker, 2, scenario=scenario)
        assert counts() == (before[0] + 2, before[1])
        run_episodes(modular_victim, None, 2, scenario=scenario)
        assert counts() == (before[0] + 2, before[1])
        run_episodes(modular_victim, None, 1, scenario=scenario)
        assert counts() == (before[0] + 2, before[1] + 1)

    def test_lockstep_error_propagates(self, monkeypatch):
        def broken_tick(*args, **kwargs):
            raise TypeError("engine bug")

        monkeypatch.setattr(BatchWorld, "tick", broken_tick)
        with pytest.raises(TypeError, match="engine bug"):
            run_episodes(modular_victim, n_episodes=2, seed=0)

    @needs_artifacts
    def test_noisy_channel_lockstep(self, lockstep_ticks):
        results = run_episodes(
            registry.e2e_victim, noisy_camera_attacker, n_episodes=2, seed=5
        )
        assert lockstep_ticks
        reference = [
            run_episode(
                registry.e2e_victim, attacker=noisy_camera_attacker(), seed=s
            )
            for s in (5, 6)
        ]
        assert_same_outcomes([5, 6], reference, results)


class _OddVictim:
    """A custom agent with no batched twin (exercises the scalar engine)."""

    name = "odd"

    def __init__(self, world):
        self._inner = ModularAgent(world.road)

    def reset(self, world):
        self._inner.reset(world)

    def act(self, world):
        return self._inner.act(world)
