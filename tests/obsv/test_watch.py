"""Tests for the watchdog rules and the live trace monitor."""

import json
import math

import numpy as np
import pytest

from repro.obsv.alerts import Alert, WatchConfig, Watchdog
from repro.obsv.cli import main
from repro.obsv.store import TelemetryStore
from repro.obsv.watch import (
    MultiTail,
    TraceTail,
    WatchState,
    render_status,
    watch_trace,
)
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import (
    TraceFormatError,
    TraceWriter,
    read_trace,
    validate_event,
)

pytestmark = [pytest.mark.obsv, pytest.mark.watch]


def health(update, loop="sac", **overrides):
    event = {
        "event": "update_health",
        "loop": loop,
        "step": update * 10,
        "update": update,
        "critic_loss": 1.0,
        "actor_loss": -0.2,
        "alpha": 0.1,
        "q_mean": 5.0,
        "q_max": 10.0,
        "entropy": 1.0,
        "buffer_size": 500 + update,
        "buffer_capacity": 1000,
        "steps_per_s": 100.0,
    }
    event.update(overrides)
    return event


def step(idx, reward, done=False, loop="sac"):
    return {
        "event": "train_step", "loop": loop, "step": idx,
        "reward": reward, "done": done,
    }


def feed(watchdog, events):
    fired = []
    for event in events:
        fired.extend(watchdog.observe(event))
    return fired


class TestRules:
    """Each synthetic trace trips exactly the rule under test."""

    def test_nan_loss(self):
        dog = Watchdog(WatchConfig())
        fired = feed(dog, [health(1), health(2, critic_loss=float("nan"))])
        assert [a.rule for a in fired] == ["nan_loss"]
        assert fired[0].severity == "critical"

    def test_inf_counts_as_nan_loss(self):
        dog = Watchdog(WatchConfig())
        fired = feed(dog, [health(1, q_mean=float("inf"))])
        assert [a.rule for a in fired] == ["nan_loss"]

    def test_q_divergence(self):
        dog = Watchdog(WatchConfig(q_limit=100.0))
        fired = feed(dog, [health(1), health(2, q_max=250.0)])
        assert [a.rule for a in fired] == ["q_divergence"]
        assert fired[0].value == 250.0 and fired[0].threshold == 100.0

    def test_entropy_collapse_needs_patience(self):
        config = WatchConfig(entropy_floor=-2.0, entropy_patience=3)
        dog = Watchdog(config)
        low = [health(i, entropy=-3.0) for i in range(1, 3)]
        assert feed(dog, low) == []
        # A recovery resets the streak.
        assert feed(dog, [health(3, entropy=0.0)]) == []
        fired = feed(dog, [health(i, entropy=-3.0) for i in range(4, 7)])
        assert [a.rule for a in fired] == ["entropy_collapse"]

    def test_buffer_starvation(self):
        config = WatchConfig(starvation_updates=3)
        dog = Watchdog(config)
        stuck = [health(i, buffer_size=400) for i in range(1, 6)]
        fired = feed(dog, stuck)
        assert [a.rule for a in fired] == ["buffer_starvation"]

    def test_full_buffer_never_starves(self):
        config = WatchConfig(starvation_updates=2)
        dog = Watchdog(config)
        full = [
            health(i, buffer_size=1000, buffer_capacity=1000)
            for i in range(1, 8)
        ]
        assert feed(dog, full) == []

    def test_throughput_regression(self):
        config = WatchConfig(
            throughput_ratio=0.5, throughput_patience=2, throughput_warmup=2
        )
        dog = Watchdog(config)
        warm = [health(i, steps_per_s=100.0) for i in range(1, 3)]
        slow = [health(i, steps_per_s=20.0) for i in range(3, 6)]
        fired = feed(dog, warm + slow)
        assert [a.rule for a in fired] == ["throughput_regression"]
        assert fired[0].threshold == pytest.approx(50.0)

    def test_reward_plateau(self):
        config = WatchConfig(plateau_window=3)
        dog = Watchdog(config)
        events = []
        # Episode 1 sets the best return (10), then 3 worse episodes.
        for episode, total in enumerate([10.0, 5.0, 4.0, 3.0]):
            events.append(step(episode * 2, total / 2.0))
            events.append(step(episode * 2 + 1, total / 2.0, done=True))
        fired = feed(dog, events)
        assert [a.rule for a in fired] == ["reward_plateau"]

    def test_improving_rewards_stay_quiet(self):
        dog = Watchdog(WatchConfig(plateau_window=2))
        events = []
        for episode, total in enumerate([1.0, 2.0, 3.0, 4.0]):
            events.append(step(episode, total, done=True))
        assert feed(dog, events) == []

    def test_rules_fire_once_per_loop(self):
        dog = Watchdog(WatchConfig(q_limit=100.0))
        fired = feed(dog, [health(i, q_max=500.0) for i in range(1, 5)])
        assert len(fired) == 1
        # ...but independently per loop.
        fired = feed(dog, [health(1, loop="other", q_max=500.0)])
        assert [a.loop for a in fired] == ["other"]

    def test_existing_alert_event_pre_arms_dedup(self):
        dog = Watchdog(WatchConfig(q_limit=100.0))
        recorded = {
            "event": "alert", "rule": "q_divergence", "loop": "sac",
            "severity": "critical", "message": "recorded earlier",
        }
        assert feed(dog, [recorded, health(1, q_max=500.0)]) == []

    def test_alert_event_round_trips_schema(self):
        alert = Alert(
            rule="q_divergence", severity="critical", message="m",
            loop="sac", step=10, update=2, value=5.0, threshold=1.0,
        )
        assert validate_event({"event": "alert", **alert.to_event()}) == []


class TestWatchConfig:
    def test_env_and_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCH_Q_LIMIT", "123.5")
        monkeypatch.setenv("REPRO_WATCH_PLATEAU_WINDOW", "7")
        config = WatchConfig.from_env(entropy_floor=-1.0)
        assert config.q_limit == 123.5
        assert config.plateau_window == 7
        assert config.entropy_floor == -1.0
        assert config.starvation_updates == WatchConfig().starvation_updates

    def test_none_overrides_ignored(self):
        assert WatchConfig.from_env(q_limit=None) == WatchConfig.from_env()


class TestTail:
    def test_incremental_and_partial_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tail = TraceTail(path)
        assert tail.poll() == []
        path.write_text('{"event": "alert"}\n{"event": "al', encoding="utf-8")
        assert [e["event"] for e in tail.poll()] == ["alert"]
        with path.open("a", encoding="utf-8") as handle:
            handle.write('ert"}\n')
        assert [e["event"] for e in tail.poll()] == ["alert"]
        assert tail.poll() == []

    def test_undecodable_line_is_counted(self, tmp_path):
        """As in ``read_trace``: a garbage line is skipped and counted; the
        trailing partial line is held back and not counted."""
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"event": "train_step", "loop": "sac", "step": 1}\n'
            'not json\n{"event": "train_st',
            encoding="utf-8",
        )
        get_registry().reset()
        try:
            events = TraceTail(path).poll()
            counter = get_registry().counter("trace_torn_lines_total")
            assert [e["event"] for e in events] == ["train_step"]
            assert counter.value == 1
        finally:
            get_registry().reset()

    def test_format_1_tick_record_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "alert"}\n', encoding="utf-8")
        tail = TraceTail(path)
        assert len(tail.poll()) == 1
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "tick"}\n')
        with pytest.raises(TraceFormatError, match="line 2"):
            tail.poll()


def write_diverging_trace(path):
    writer = TraceWriter(path)
    for i in range(1, 6):
        writer.emit(
            "update_health", loop="sac-test", step=i * 10, update=i,
            critic_loss=1.0, q_mean=4.0 ** i, q_max=float(10 ** i),
            entropy=1.0, buffer_size=100 + i, buffer_capacity=1000,
        )
    writer.close()
    return path


class TestWatchTrace:
    def test_once_on_quiet_trace(self, tmp_path, capsys):
        trace = tmp_path / "quiet.jsonl"
        writer = TraceWriter(trace)
        writer.emit("update_health", loop="sac", step=10, update=1,
                    critic_loss=0.5, q_max=2.0)
        writer.close()
        assert main(["watch", str(trace), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro.obsv watch" in out
        assert "alerts: none" in out

    def test_invalid_records_are_dropped_and_counted(self, tmp_path, capsys):
        """A record that decodes but fails ``validate_event`` is dropped
        before the view and the watchdog, and counted."""
        trace = tmp_path / "bad.jsonl"
        with TraceWriter(trace) as writer:
            writer.emit("update_health", loop="sac", step=10, update=1,
                        critic_loss=0.5, q_max=2.0)
        with trace.open("a", encoding="utf-8") as handle:
            handle.write('[1, 2]\n')
            handle.write(
                '{"event": "train_step", "loop": "x", "step": "abc"}\n'
            )
        get_registry().reset()
        try:
            assert main(["watch", str(trace), "--once"]) == 0
            counter = get_registry().counter("trace_invalid_events_total")
            assert counter.value == 2
        finally:
            get_registry().reset()
        out = capsys.readouterr().out
        assert "(1 events)" in out
        assert "loop x" not in out

    def test_format_1_trace_is_refused(self, tmp_path, capsys):
        trace = tmp_path / "old.jsonl"
        trace.write_text('{"event": "tick"}\n', encoding="utf-8")
        assert main(["watch", str(trace), "--once"]) == 1
        captured = capsys.readouterr()
        assert "trace format 1" in captured.err
        assert captured.out == ""

    def test_exit_on_alert_writes_alert_event(self, tmp_path, capsys):
        trace = write_diverging_trace(tmp_path / "div.jsonl")
        rc = main(["watch", str(trace), "--once", "--exit-on-alert"])
        assert rc == 1
        alerts = [
            e for e in read_trace(trace) if e.get("event") == "alert"
        ]
        assert [a["rule"] for a in alerts] == ["q_divergence"]
        assert validate_event(alerts[0]) == []
        assert "q_divergence" in capsys.readouterr().out
        # Re-watching the same (now annotated) trace must not duplicate.
        assert main(["watch", str(trace), "--once"]) == 0
        again = [
            e for e in read_trace(trace) if e.get("event") == "alert"
        ]
        assert len(again) == 1

    def test_no_write_alerts_leaves_trace_untouched(self, tmp_path, capsys):
        trace = write_diverging_trace(tmp_path / "div.jsonl")
        before = trace.read_text(encoding="utf-8")
        rc = main([
            "watch", str(trace), "--once", "--exit-on-alert",
            "--no-write-alerts",
        ])
        assert rc == 1
        assert trace.read_text(encoding="utf-8") == before

    def test_threshold_flag_overrides(self, tmp_path, capsys):
        trace = write_diverging_trace(tmp_path / "div.jsonl")
        rc = main([
            "watch", str(trace), "--once", "--exit-on-alert",
            "--q-limit", "1e9", "--no-write-alerts",
        ])
        assert rc == 0

    def test_on_alert_hook_gets_env(self, tmp_path):
        import io

        trace = write_diverging_trace(tmp_path / "div.jsonl")
        marker = tmp_path / "hook.out"
        rc = watch_trace(
            trace, once=True, exit_on_alert=True, write_alerts=False,
            on_alert=f'printf "%s" "$REPRO_ALERT_RULE" > {marker}',
            out=io.StringIO(),
        )
        assert rc == 1
        assert marker.read_text() == "q_divergence"

    def test_idle_exit_stops_follow_mode(self, tmp_path):
        import io

        trace = write_diverging_trace(tmp_path / "div.jsonl")
        sleeps = []
        rc = watch_trace(
            trace, idle_exit=0.0, write_alerts=False,
            sleep=sleeps.append, out=io.StringIO(),
        )
        assert rc == 0
        assert sleeps == []  # exited on the first idle check

    def test_render_status_shows_loop_health(self):
        state = WatchState()
        for event in write_status_events():
            state.ingest(event)
        text = render_status(state, "trace.jsonl", total_steps=1000)
        assert "loop sac" in text
        assert "buffer 505/1000" in text
        assert "ETA" in text
        assert "ep return" in text


def write_status_events():
    events = [health(5, steps_per_s=50.0)]
    for i in range(20):
        events.append(step(i, 1.0, done=(i % 10 == 9)))
    return events


class TestWatchDirectory:
    """Every trace in a run directory multiplexes into one view."""

    def _write_traces(self, directory):
        for name in ("a", "b"):
            with TraceWriter(directory / f"{name}.jsonl") as writer:
                writer.emit(
                    "update_health", loop="sac", step=10, update=1,
                    critic_loss=0.5, q_max=2.0,
                )

    def test_multitail_follows_every_trace_and_new_files(self, tmp_path):
        self._write_traces(tmp_path)
        tail = MultiTail(tmp_path)
        records = tail.poll()
        assert [source.name for source, _ in records] == [
            "a.jsonl", "b.jsonl",
        ]
        events = [event for _, event in records]
        assert [e["event"] for e in events] == ["update_health"] * 2
        assert all("worker" not in e for e in events)
        assert tail.poll() == []  # incremental
        with TraceWriter(tmp_path / "late.jsonl") as w:
            w.emit("train_step", loop="sac", step=1)
        ((source, late),) = tail.poll()
        assert source == tmp_path / "late.jsonl"
        assert late == {"event": "train_step", "loop": "sac", "step": 1}

    def test_episodes_of_different_traces_stay_apart(self, tmp_path):
        """Two traces each number their episodes from 0; a start and end
        pair only within one trace, across polls."""
        writers = {
            name: TraceWriter(tmp_path / f"{name}.jsonl") for name in "ab"
        }
        cells = {"a": ("modular", "camera", 1.0), "b": ("e2e", "imu", 0.5)}
        for name, (victim, attacker, budget) in cells.items():
            writers[name].emit(
                "episode_start", episode=0, seed=0, victim=victim,
                attacker=attacker, budget=budget,
            )
            writers[name].flush()
        tail, state = MultiTail(tmp_path), WatchState()

        def poll():
            for source, event in tail.poll():
                state.ingest(event, source)

        poll()  # both starts
        for name, collision in (("a", "SIDE"), ("b", None)):
            with writers[name] as writer:
                writer.emit(
                    "episode_end", episode=0, steps=40, duration=4.0,
                    collision=collision,
                )
        poll()  # both ends
        success = {
            key: samples["attack_success"]
            for key, samples in state.cells.items()
        }
        assert success == {
            "modular|camera|1.00": [1.0], "e2e|imu|0.50": [0.0],
        }

    def test_directory_view_merges_traces(self, tmp_path, capsys):
        self._write_traces(tmp_path)
        assert main(["watch", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "(2 events)" in out
        assert "loop sac: step 10" in out
        assert "@w" not in out and "workers" not in out

    def test_directory_alerts_written_to_sidecar(self, tmp_path, capsys):
        write_diverging_trace(tmp_path / "trace.jsonl")
        rc = main(["watch", str(tmp_path), "--once", "--exit-on-alert"])
        assert rc == 1
        assert "sac-test" in capsys.readouterr().out
        sidecar = tmp_path / "alerts.jsonl"
        assert sidecar.exists()
        (alert,) = read_trace(sidecar)
        assert alert["event"] == "alert"
        assert alert["rule"] == "q_divergence"
        assert alert["loop"] == "sac-test"
        assert "worker" not in alert
        assert validate_event(alert) == []
        # The trace itself was never written to.
        assert all(
            e.get("event") != "alert"
            for e in read_trace(tmp_path / "trace.jsonl")
        )


class TestDivergingSacAcceptance:
    """The ISSUE acceptance path: a deliberately diverging SAC run trips a
    watchdog, the alert lands in the trace, and the store reproduces the
    triggering metric values."""

    @pytest.fixture(scope="class")
    def diverged(self, tmp_path_factory):
        from repro.rl.health import HealthEmitter
        from repro.rl.sac import Sac, SacConfig

        tmp = tmp_path_factory.mktemp("diverge")
        trace_path = tmp / "sac_diverge.jsonl"
        config = SacConfig(
            hidden=(8, 8), batch_size=16, buffer_capacity=256,
            critic_lr=10.0, actor_lr=10.0, health_every=1,
        )
        sac = Sac(4, 2, config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _ in range(64):
            sac.observe(
                rng.normal(size=4), rng.uniform(-1, 1, size=2),
                float(rng.normal() * 10.0), rng.normal(size=4), False,
            )
        writer = TraceWriter(trace_path)
        emitter = HealthEmitter(writer, "sac-diverge", every=1)
        for i in range(30):
            stats = sac.update()
            emitter.after_update(sac, step=i, stats=stats)
        writer.close()
        assert emitter.emitted == 30
        return tmp, trace_path

    def test_watch_exits_nonzero_and_records_alert(self, diverged, capsys):
        _, trace_path = diverged
        rc = main([
            "watch", str(trace_path), "--once", "--exit-on-alert",
        ])
        assert rc == 1
        alerts = [
            e for e in read_trace(trace_path) if e.get("event") == "alert"
        ]
        assert alerts, "diverging run fired no watchdog"
        # Divergence shows up as exploding |Q| (or outright NaN); a run
        # this broken may trip secondary rules (entropy collapse) too.
        assert {a["rule"] for a in alerts} & {"q_divergence", "nan_loss"}
        assert all(validate_event(a) == [] for a in alerts)
        capsys.readouterr()

    def test_store_reproduces_triggering_values(self, diverged, capsys):
        run_dir, trace_path = diverged
        # Fire the watch here too so this test stands alone.
        main(["watch", str(trace_path), "--once", "--exit-on-alert"])
        capsys.readouterr()
        recorded = [
            e for e in read_trace(trace_path)
            if e.get("event") == "update_health"
        ]
        expected = [
            float(e["q_max"]) for e in recorded
            if not math.isnan(e["q_max"])
        ]
        store_path = run_dir / "obsv.sqlite"
        with TelemetryStore(store_path) as store:
            store.ingest_dir(run_dir)
            got = store.series("q_max", kind="update_health")
            alerts = store.events(kind="alert")
            got_finite = [v for v in got if not math.isnan(v)]
            assert got_finite == expected
            assert alerts
            assert alerts[0]["rule"] in {"q_divergence", "nan_loss"}
            # The alert's triggering value is reproducible from the store.
            value = alerts[0].get("value")
            if value is not None and not math.isnan(value):
                field = (
                    "q_max" if alerts[0]["rule"] == "q_divergence" else
                    "critic_loss"
                )
                series = store.series(field, kind="update_health")
                assert any(v == pytest.approx(value) for v in series)

    def test_query_cli_on_diverged_store(self, diverged, capsys):
        run_dir, trace_path = diverged
        main(["watch", str(trace_path), "--once", "--exit-on-alert"])
        main(["ingest", str(run_dir)])
        capsys.readouterr()
        rc = main([
            "query", str(run_dir / "obsv.sqlite"),
            "--kind", "update_health", "--field", "q_max",
            "--agg", "max", "--group-by", "loop",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("loop,max(q_max)")
        assert "sac-diverge" in out
