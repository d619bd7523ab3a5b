"""Span tracer: nesting, aggregation, the @timed decorator, enable/disable."""

import time

import pytest

from repro.telemetry.spans import (
    SpanProbe,
    Tracer,
    _NULL_SPAN,
    get_tracer,
    timed,
)

pytestmark = pytest.mark.telemetry


def test_disabled_tracer_returns_shared_null_span():
    tracer = Tracer(enabled=False)
    assert tracer.span("x") is tracer.span("y") is _NULL_SPAN
    with tracer.span("x"):
        pass
    assert tracer.snapshot() == {}


def test_span_aggregation_counts_and_totals():
    tracer = Tracer(enabled=True)
    for _ in range(5):
        with tracer.span("tick"):
            pass
    snapshot = tracer.snapshot()
    assert snapshot["tick"]["count"] == 5
    assert snapshot["tick"]["total_s"] >= 0.0
    assert snapshot["tick"]["p50_us"] <= snapshot["tick"]["p99_us"]


def test_nested_spans_aggregate_under_slash_paths():
    tracer = Tracer(enabled=True)
    with tracer.span("episode"):
        with tracer.span("world.tick"):
            pass
        with tracer.span("world.tick"):
            pass
    snapshot = tracer.snapshot()
    assert snapshot["episode"]["count"] == 1
    assert snapshot["episode/world.tick"]["count"] == 2
    # the stack unwound fully
    assert tracer._stack() == []


def test_stack_unwinds_on_exception():
    tracer = Tracer(enabled=True)
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            raise RuntimeError("boom")
    assert tracer._stack() == []
    assert tracer.snapshot()["outer"]["count"] == 1


def test_timed_decorator_uses_global_tracer():
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    try:
        @timed("math.square")
        def square(x):
            return x * x

        assert square(3) == 9
        assert tracer.snapshot()["math.square"]["count"] == 1
        tracer.disable()
        assert square(4) == 16  # falls through, no new record
        assert tracer.snapshot()["math.square"]["count"] == 1
    finally:
        tracer.reset()
        tracer.enabled = was_enabled


def test_reset_clears_stats_and_events():
    tracer = Tracer(enabled=True)
    with tracer.span("a"):
        pass
    tracer.reset()
    assert tracer.snapshot() == {}


def test_self_time_bookkeeping_is_exact():
    tracer = Tracer(enabled=True)
    with tracer.span("episode"):
        for _ in range(3):
            with tracer.span("world.tick"):
                time.sleep(0.002)
    snapshot = tracer.snapshot()
    parent = snapshot["episode"]
    child = snapshot["episode/world.tick"]
    # leaf spans: self == inclusive
    assert child["self_total_s"] == pytest.approx(child["total_s"])
    # parent: self == inclusive - direct children, from exact bookkeeping
    assert parent["self_total_s"] == pytest.approx(
        parent["total_s"] - child["total_s"], abs=5e-6
    )
    assert parent["self_mean_us"] <= parent["mean_us"]


def test_self_time_survives_slash_in_span_names():
    # Path parsing would mis-parent "a/b" opened at the root; the exit
    # bookkeeping keys on the actual stack, so self time stays exact.
    tracer = Tracer(enabled=True)
    with tracer.span("outer"):
        with tracer.span("a/b"):
            time.sleep(0.002)
    snapshot = tracer.snapshot()
    assert snapshot["outer"]["self_total_s"] == pytest.approx(
        snapshot["outer"]["total_s"] - snapshot["outer/a/b"]["total_s"],
        abs=5e-6,
    )


def test_probes_see_enter_exit_with_token_and_duration():
    seen = []

    class Probe(SpanProbe):
        def on_enter(self, path):
            seen.append(("enter", path))
            return len(seen)

        def on_exit(self, path, token, duration):
            seen.append(("exit", path, token, duration))

    tracer = Tracer(enabled=True)
    probe = Probe()
    tracer.add_probe(probe)
    tracer.add_probe(probe)  # idempotent
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    assert seen[0] == ("enter", "a")
    assert seen[1] == ("enter", "a/b")
    assert seen[2][:3] == ("exit", "a/b", 2) and seen[2][3] >= 0.0
    assert seen[3][:3] == ("exit", "a", 1)
    tracer.remove_probe(probe)
    with tracer.span("c"):
        pass
    assert len(seen) == 4  # removed probe no longer called
