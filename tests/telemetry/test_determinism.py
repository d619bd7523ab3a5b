"""Telemetry must be a pure observer: instrumented runs are bit-identical."""

import pytest

from repro.agents.modular import ModularAgent
from repro.core.attackers import OracleAttacker
from repro.eval.episodes import run_episode
from repro.eval.recorder import record_episode
from repro.obsv.loader import split_episodes
from repro.telemetry.log import configure
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer
from repro.telemetry.trace import TraceWriter

pytestmark = pytest.mark.telemetry

SEED = 11


@pytest.fixture()
def full_telemetry():
    """Enable every telemetry layer; restore the previous state after."""
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.enable(record_events=True)
    configure(level="debug", force=True)
    yield TraceWriter()  # in-memory, handed to the runner by the test
    tracer.record_events = False
    tracer.reset()
    if not was_enabled:
        tracer.disable()
    configure(force=True)


def _victim(world):
    return ModularAgent(world.road)


def test_record_episode_trajectory_bit_identical(full_telemetry):
    baseline, base_world = record_episode(
        _victim, attacker=OracleAttacker(budget=1.0), seed=SEED
    )
    instrumented, inst_world = record_episode(
        _victim, attacker=OracleAttacker(budget=1.0), seed=SEED,
        trace=full_telemetry,
    )
    assert instrumented.to_csv() == baseline.to_csv()
    assert instrumented.to_jsonl() == baseline.to_jsonl()
    assert (base_world.collisions == inst_world.collisions)
    # the instrumented run really did emit a trace: one tick per frame
    # after the fresh world's
    (episode,) = split_episodes(full_telemetry.events)
    assert len(episode.ticks) == len(baseline) - 1


def test_run_episode_result_identical_under_telemetry(full_telemetry):
    baseline = run_episode(
        _victim, attacker=OracleAttacker(budget=1.0), seed=SEED
    )
    instrumented = run_episode(
        _victim, attacker=OracleAttacker(budget=1.0), seed=SEED,
        trace=full_telemetry,
    )
    assert instrumented == baseline  # frozen dataclass: exact float equality


def test_metrics_counters_do_not_feed_back():
    # Polluting the registry beforehand must not change outcomes either.
    registry = get_registry()
    registry.counter("episodes_total").inc(1000)
    first = run_episode(_victim, attacker=OracleAttacker(budget=1.0),
                        seed=SEED)
    second = run_episode(_victim, attacker=OracleAttacker(budget=1.0),
                         seed=SEED)
    assert first == second


def test_profiling_disabled_by_default_and_zero_footprint():
    # REPRO_PROF is unset in the test environment: no env session runs,
    # the tracer has no probes, and the NN FLOP hook stays cleared — the
    # exact state the bit-identical baselines above were recorded in.
    import os

    from repro.obsv.prof import env_session
    from repro.rl.nn import flops

    assert os.environ.get("REPRO_PROF") in (None, "", "0")
    assert env_session() is None
    assert get_tracer()._probes == []
    assert flops.FLOP_HOOK is None


def test_trajectory_bit_identical_under_full_profiling():
    """The profiler is a pure observer: sampler thread, tracemalloc
    probes, and FLOP accounting running together must not change a
    single recorded value."""
    from repro.obsv.prof import ProfileConfig, ProfileSession

    baseline, base_world = record_episode(
        _victim, attacker=OracleAttacker(budget=1.0), seed=SEED
    )
    config = ProfileConfig(hz=250.0, mem=None, flops=True)
    session = ProfileSession(config, reset=True)
    session.start()
    try:
        profiled, prof_world = record_episode(
            _victim, attacker=OracleAttacker(budget=1.0), seed=SEED
        )
    finally:
        report = session.stop()
    assert profiled.to_csv() == baseline.to_csv()
    assert profiled.to_jsonl() == baseline.to_jsonl()
    assert base_world.collisions == prof_world.collisions
    # and the profiler really was live: spans were recorded
    assert report.spans


def test_profiled_episode_replays_faithfully(tmp_path):
    """Seeded replay diff: an episode traced while the sampler and span
    probes were running re-simulates to the recorded trajectory."""
    from repro.obsv import replay as replay_mod
    from repro.obsv.loader import load_episodes
    from repro.obsv.prof import ProfileConfig, ProfileSession

    trace_path = tmp_path / "profiled.jsonl"
    session = ProfileSession(
        ProfileConfig(hz=250.0, mem=None, flops=True), reset=True
    )
    session.start()
    try:
        with TraceWriter(trace_path) as writer:
            run_episode(
                _victim, attacker=OracleAttacker(budget=1.0), seed=SEED,
                trace=writer, episode_id=SEED,
            )
    finally:
        session.stop()
    (episode,) = load_episodes(trace_path)
    report = replay_mod.replay_episode(episode)
    assert report.ok, report.to_markdown()
