"""Fast end-to-end smoke: one instrumented episode, schema-valid JSONL out."""

import pytest

from repro.agents.modular import ModularAgent
from repro.core.attackers import OracleAttacker
from repro.eval.episodes import run_episode
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer
from repro.telemetry.trace import TraceWriter, validate_trace

pytestmark = pytest.mark.telemetry


@pytest.fixture()
def spans_enabled():
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    yield tracer
    tracer.reset()
    if not was_enabled:
        tracer.disable()


def test_instrumented_episode_emits_schema_valid_trace(spans_enabled):
    registry = get_registry()
    episodes_before = registry.counter("episodes_total").value
    writer = TraceWriter()
    result = run_episode(
        lambda w: ModularAgent(w.road),
        attacker=OracleAttacker(budget=1.0),
        seed=3,
        trace=writer,
        episode_id=3,
    )

    # Every emitted event passes the schema checker.
    assert validate_trace(writer.events) == []

    # Envelope: the provenance preamble, then one start and one end,
    # whose tick columns hold one value per control step.
    kinds = [event["event"] for event in writer.events]
    assert kinds == ["provenance", "episode_start", "episode_end"]
    columns = writer.events[-1]["ticks"]
    assert {len(values) for values in columns.values()} == {result.steps}
    assert columns["tick"] == list(range(1, result.steps + 1))

    # The end record mirrors the measured EpisodeResult.
    end = writer.events[-1]
    assert end["steps"] == result.steps
    assert end["nominal_return"] == pytest.approx(result.nominal_return)
    expected_kind = (
        result.collision.kind.name if result.collision is not None else None
    )
    assert end["collision"] == expected_kind

    # Metrics moved: the episode was counted, spans were recorded.
    assert registry.counter("episodes_total").value == episodes_before + 1
    span_paths = spans_enabled.snapshot()
    assert any(path.endswith("world.tick") for path in span_paths)
    assert any(path.startswith("episode") for path in span_paths)


def test_oracle_attack_activations_are_counted(spans_enabled):
    registry = get_registry()
    active_before = registry.counter("attack_active_ticks_total").value
    result = run_episode(
        lambda w: ModularAgent(w.road),
        attacker=OracleAttacker(budget=1.0),
        seed=3,
        trace=TraceWriter(),
    )
    gained = registry.counter("attack_active_ticks_total").value - active_before
    assert 0 < gained <= result.steps
