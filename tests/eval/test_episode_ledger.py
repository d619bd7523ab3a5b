"""One episode ledger behind both runners.

:class:`repro.eval.episodes.EpisodeLedger` keeps the books of every
episode, whether :func:`run_episode` feeds it one row or the lockstep
runner one row per seed. These tests pin the one definition of the
deviation RMSE against each runner's own trace, the effort it books from
the deltas it is handed (and that a trace reader reads it back bit for
bit), that an attacker without trace labels is refused, and that a row's
books do not depend on the other rows or on the ledger's width.
"""

import math

import numpy as np
import pytest

from repro.agents.modular import ModularAgent
from repro.core import OracleAttacker
from repro.eval import run_episode, run_episode_batch
from repro.eval.episodes import EpisodeLedger, run_seeds
from repro.experiments import registry
from repro.obsv.compare import episode_metrics
from repro.obsv.loader import split_episodes
from repro.sim import ScenarioConfig
from repro.sim.collision import Collision, CollisionKind
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import TraceWriter

SEEDS = range(20)


def modular_victim(world):
    return ModularAgent(world.road)


def run_scalar(attacker_factory, trace):
    return [
        run_episode(modular_victim, attacker_factory(), seed=seed, trace=trace)
        for seed in SEEDS
    ]


def run_lockstep(attacker_factory, trace):
    return run_episode_batch(
        modular_victim, attacker_factory(), seeds=SEEDS, trace=trace
    )


@pytest.mark.parametrize("runner", [run_scalar, run_lockstep])
@pytest.mark.parametrize(
    "attacker_factory",
    [lambda: None, lambda: OracleAttacker(budget=0.5)],
    ids=["nominal", "oracle"],
)
def test_deviation_rmse_is_the_trace_lateral_rms(runner, attacker_factory):
    """``deviation_rmse`` is sqrt(sum of lateral^2 / steps), summed in tick
    order over the episode's own trace ``lateral`` column, bit for bit."""
    writer = TraceWriter()
    results = runner(attacker_factory, writer)
    episodes = {e.episode: e for e in split_episodes(writer.events)}
    for seed, result in zip(SEEDS, results):
        ticks = episodes[seed].ticks
        assert len(ticks) == result.steps
        total = 0.0
        for tick in ticks:
            total += tick["lateral"] * tick["lateral"]
        expected = math.sqrt(total / result.steps)
        assert result.deviation_rmse == expected, f"seed {seed}"
        assert result.deviation_max == max(t["lateral"] for t in ticks)


class ConstantInjector:
    """A ``SteerInjector`` and no more: ``reset``, ``delta``, a name and a
    budget."""

    name = "constant"
    budget = 0.25

    def reset(self, world):
        pass

    def delta(self, world, control):
        return 0.25


def test_a_protocol_only_injector_reports_its_effort():
    """Effort is booked from the deltas the runner is handed, so an
    injector with no books of its own reports the effort it injected."""
    result = run_episode(modular_victim, ConstantInjector(), seed=3)
    assert result.mean_effort == 0.25


class UnlabelledInjector:
    """A ``SteerInjector`` and no more: ``reset`` and ``delta``."""

    def reset(self, world):
        pass

    def delta(self, world, control):
        return 0.25


class NamedInjector(UnlabelledInjector):
    name = "constant"


@pytest.mark.parametrize(
    "injector, missing",
    [(UnlabelledInjector, "name"), (NamedInjector, "budget")],
)
def test_an_attacker_without_trace_labels_is_refused(injector, missing):
    """Traced as attacker ``none`` at budget 0.0, its episodes would pool
    with nominal ones; the runner refuses it before any record."""
    writer = TraceWriter()
    with pytest.raises(TypeError, match=f"has no '{missing}'"):
        run_episode(modular_victim, injector(), seed=3, trace=writer)
    assert writer.events == []


@pytest.mark.parametrize("victim, budget", [("e2e", 0.5), ("modular", 1.0)])
def test_the_trace_effort_is_the_ledger_effort(victim, budget):
    """``episode_metrics`` reads the effort off the trace's ``delta``
    column with the ledger's arithmetic (a running sum in tick order), so
    it equals each ``EpisodeResult.mean_effort`` bit for bit."""
    writer = TraceWriter()
    results = run_episode_batch(
        getattr(registry, f"{victim}_victim"),
        registry.camera_attacker(budget, victim=victim),
        seeds=range(1000, 1064), trace=writer,
    )
    episodes = split_episodes(writer.events)
    assert [float.hex(episode_metrics(e)["effort"]) for e in episodes] == [
        float.hex(r.mean_effort) for r in results
    ]


def test_a_delta_at_the_threshold_is_lurking():
    """|delta| exactly ``ACTIVE_THRESHOLD`` (the oracle at a budget of
    0.05) is not active on either engine: no effort, no active ticks and
    no activations."""
    registry = get_registry()
    names = ("attack_active_ticks_total", "attack_activations_total")
    before = [registry.counter(name).value for name in names]
    results = [run_episode(modular_victim, OracleAttacker(0.05), seed=3)]
    results += run_seeds(modular_victim, lambda: OracleAttacker(0.05), [3, 4])
    assert [r.mean_effort for r in results] == [0.0, 0.0, 0.0]
    assert [registry.counter(name).value for name in names] == before


WIDTH, TICKS = 7, 40
SCENARIO = ScenarioConfig()


def synthetic_episodes(rng):
    """Per-tick inputs for WIDTH rows that finish at different ticks: a
    dict of ``[TICKS, WIDTH]`` arrays (``pose`` ``[TICKS, 4, WIDTH]``)."""
    ends = rng.integers(5, TICKS + 1, WIDTH)
    ends[0] = TICKS
    live = np.arange(TICKS)[:, None] < ends
    steps = np.cumsum(live, axis=0)
    delta = rng.choice([0.0, 0.02, 0.3, -0.6, 1.0], (TICKS, WIDTH))
    gap = 30.0 - np.cumsum(rng.uniform(-0.5, 2.0, (TICKS, WIDTH)), axis=0)
    gap[:, 3] = np.nan  # a row without NPCs
    return ends, {
        "live": live,
        "step": steps,
        "time": steps * SCENARIO.dt,
        "delta": delta,
        "pose": rng.normal(size=(TICKS, 4, WIDTH)),
        "nominal": rng.normal(size=(TICKS, WIDTH)),
        "adversarial": rng.normal(size=(TICKS, WIDTH)),
        "deviation": np.abs(rng.normal(0.0, 0.2, (TICKS, WIDTH))),
        "gap": gap,
    }


def test_a_row_does_not_depend_on_the_ledger_width():
    """Row i of a width-7 ledger, whose rows finish at different ticks,
    and a one-row ledger fed the ticks row i ran, as scalars, give equal
    results and equal trace records."""
    rng = np.random.default_rng(5)
    ends, inputs = synthetic_episodes(rng)
    seeds = list(range(100, 100 + WIDTH))
    collisions = [
        Collision(CollisionKind.SIDE, "ego", "npc_2", int(end), end * 0.1)
        if i % 2
        else None
        for i, end in enumerate(ends)
    ]
    passed = rng.integers(0, 6, WIDTH)
    steps, duration = inputs["step"][-1], inputs["time"][-1]
    attacker = OracleAttacker(budget=1.0)

    wide_writer = TraceWriter()
    wide = EpisodeLedger(seeds, None, attacker, SCENARIO, wide_writer)
    wide.start()
    for t in range(TICKS):
        wide.tick(*(inputs[name][t] for name in inputs))
    wide_results = wide.finish(collisions, passed, steps, duration)

    for i, seed in enumerate(seeds):
        writer = TraceWriter()
        ledger = EpisodeLedger([seed], None, attacker, SCENARIO, writer)
        ledger.start()
        for t in range(ends[i]):
            row = {name: inputs[name][t][..., i] for name in inputs}
            ledger.tick(
                True, int(row["step"]), float(row["time"]),
                float(row["delta"]), tuple(row["pose"].tolist()),
                float(row["nominal"]), float(row["adversarial"]),
                float(row["deviation"]), float(row["gap"]),
            )
        (result,) = ledger.finish(
            [collisions[i]], int(passed[i]), int(steps[i]),
            float(duration[i]),
        )
        assert result == wide_results[i]
        records = [e for e in writer.events if e["event"] != "provenance"]
        wide_records = [
            e for e in wide_writer.events
            if e["event"] != "provenance" and e["episode"] == seed
        ]
        assert records == wide_records
        (end,) = [e for e in records if e["event"] == "episode_end"]
        assert len(end["ticks"]["tick"]) == ends[i]
        assert ("npc_gap" in end["ticks"]) == (i != 3)
