"""Batch-path telemetry parity: spans, counters, provenance.

The vectorized runner must leave the same observability footprint as N
scalar episodes: identical counter increments, a provenance stamp, and
per-episode span attribution under ``episode_batch`` so profiles built
from batched runs still show per-episode cost.
"""

import pytest

from repro.agents.modular import ModularAgent
from repro.core import OracleAttacker
from repro.eval import run_episode, run_episode_batch
from repro.eval.batch import Lockstep
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer
from repro.telemetry.trace import TraceWriter

pytestmark = pytest.mark.batch

SEEDS = [0, 1, 2]


def modular_victim(world):
    return ModularAgent(world.road)


@pytest.fixture()
def registry():
    registry = get_registry()
    registry.reset()
    try:
        yield registry
    finally:
        registry.reset()


@pytest.fixture()
def tracer():
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    try:
        yield tracer
    finally:
        tracer.reset()
        if not was_enabled:
            tracer.disable()


class TestCounterParity:
    def test_batch_increments_match_scalar(self, registry):
        for seed in SEEDS:
            run_episode(modular_victim, seed=seed, trace=None)
        scalar = registry.snapshot()

        registry.reset()
        run_episode_batch(modular_victim, seeds=SEEDS, trace=None)
        batched = registry.snapshot()
        assert batched["counters"] == scalar["counters"]
        assert batched["counters"]["episodes_total"] == len(SEEDS)
        # Histogram observation counts match too (values are proven
        # equivalent by the dedicated batch-equivalence suite).
        assert {k: v["count"] for k, v in batched["histograms"].items()} == {
            k: v["count"] for k, v in scalar["histograms"].items()
        }


class TestSpanAttribution:
    def test_per_episode_spans_under_episode_batch(self, tracer):
        run_episode_batch(modular_victim, seeds=SEEDS, trace=None)
        snapshot = tracer.snapshot()
        batch_paths = [p for p in snapshot if p.endswith("episode_batch")]
        assert len(batch_paths) == 1
        batch_path = batch_paths[0]
        episode_path = f"{batch_path}/episode"
        assert snapshot[episode_path]["count"] == len(SEEDS)
        # The attributed shares cover the whole batch wall-clock.
        assert snapshot[episode_path]["total_s"] == pytest.approx(
            snapshot[batch_path]["total_s"], rel=0.05
        )
        # No double parent credit: the batch span keeps nonzero self time
        # (its ticks already credit child_total; the attribution must not).
        assert snapshot[batch_path]["total_s"] > 0

    def test_scalar_episode_span_still_present(self, tracer):
        run_episode(modular_victim, seed=0, trace=None)
        snapshot = tracer.snapshot()
        assert any(p.endswith("episode") for p in snapshot)

    def test_disabled_tracer_records_nothing(self, tracer):
        tracer.disable()
        run_episode_batch(modular_victim, seeds=SEEDS, trace=None)
        assert tracer.snapshot() == {}


class TestTraceParity:
    def test_batch_trace_event_kinds_match_scalar(self):
        scalar_writer = TraceWriter(None)
        for seed in SEEDS:
            run_episode(
                modular_victim, seed=seed,
                trace=scalar_writer, episode_id=seed,
            )
        batch_writer = TraceWriter(None)
        run_episode_batch(modular_victim, seeds=SEEDS, trace=batch_writer)

        def kind_counts(writer):
            counts: dict = {}
            for event in writer.events:
                counts[event["event"]] = counts.get(event["event"], 0) + 1
            return counts

        assert kind_counts(batch_writer) == kind_counts(scalar_writer)

    def test_batch_stamps_provenance_once_before_episodes(self):
        writer = TraceWriter(None)
        run_episode_batch(modular_victim, seeds=SEEDS, trace=writer)
        kinds = [e["event"] for e in writer.events]
        assert kinds[0] == "provenance"
        assert kinds.count("provenance") == 1
        assert kinds.count("episode_start") == len(SEEDS)


class TestSpentLockstep:
    """A Lockstep plays its episodes once; a second run raises before it
    writes anything."""

    def lockstep(self):
        return Lockstep(
            modular_victim, [OracleAttacker(1.0) for _ in SEEDS], SEEDS
        )

    def test_untraced(self):
        lockstep = self.lockstep()
        results = lockstep.run()
        assert any(r.nominal_return != 0.0 for r in results)
        with pytest.raises(RuntimeError, match="Lockstep.run"):
            lockstep.run()

    def test_traced(self):
        lockstep = self.lockstep()
        lockstep.run(trace=TraceWriter(None))
        writer = TraceWriter(None)
        with pytest.raises(RuntimeError, match="Lockstep.run"):
            lockstep.run(trace=writer)
        assert writer.events == []
