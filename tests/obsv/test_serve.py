"""``obsv serve``: HTTP dashboard, JSON query API, SSE stream, shutdown.

Everything runs against an ephemeral localhost port with a tiny
hand-written run directory of two traces, so the whole module stays well
inside the tier-1 time budget.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obsv.serve import DashboardServer, EventBus, json_safe
from repro.telemetry.trace import TraceWriter, tick_columns

pytestmark = [pytest.mark.obsv, pytest.mark.serve]


def _write_trace(directory, episode, n_ticks=3):
    ticks = range(1, n_ticks + 1)
    with TraceWriter(directory / f"trace{episode}.jsonl") as writer:
        writer.emit(
            "episode_start", episode=episode, seed=episode, run="srv-run"
        )
        writer.emit(
            "episode_end", episode=episode, steps=n_ticks,
            duration=0.1 * n_ticks, run="srv-run",
            ticks=tick_columns({
                "tick": ticks, "t": [0.1 * tick for tick in ticks],
                "delta": [0.0] * n_ticks, "x": [1.0] * n_ticks,
                "y": [0.0] * n_ticks, "yaw": [0.0] * n_ticks,
                "speed": [10.0] * n_ticks,
            }),
        )


@pytest.fixture()
def run_dir(tmp_path):
    for episode in (0, 1):
        _write_trace(tmp_path, episode)
    return tmp_path


@pytest.fixture()
def server(run_dir):
    server = DashboardServer(run_dir, poll=0.05).start()
    yield server
    server.stop()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode("utf-8")


def _get_json(url):
    return json.loads(_get(url))


class TestHTTP:
    def test_ephemeral_port_allocated(self, server):
        assert server.port != 0
        assert server.url.startswith("http://127.0.0.1:")

    def test_dashboard_html(self, server):
        html = _get(server.url)
        assert "<html" in html.lower()

    def test_dashboard_markdown(self, server):
        text = _get(server.url + "dashboard.md")
        assert "#" in text

    def test_status_counts_both_traces(self, server):
        status = _get_json(server.url + "api/status")
        assert status["runs"] == 2
        assert status["events"] == 4
        assert status["live"] is True

    def test_runs_inventory_lists_each_trace(self, server):
        runs = _get_json(server.url + "api/runs")
        assert [r["source"].rsplit("/", 1)[-1] for r in runs] == [
            "trace0.jsonl", "trace1.jsonl"
        ]
        assert all(r["events"] == 2 for r in runs)
        assert all(set(r) == {"run_id", "source", "kind", "events"}
                   for r in runs)

    def test_events_endpoint_filters_by_run(self, server):
        runs = _get_json(server.url + "api/runs")
        second = runs[1]["run_id"]
        events = _get_json(
            server.url + f"api/events?kind=tick&run={second}"
        )
        assert len(events) == 3
        assert {e["episode"] for e in events} == {1}

    def test_series_endpoint(self, server):
        payload = _get_json(
            server.url + "api/series?field=speed&kind=tick"
        )
        assert payload["values"] == [10.0] * 6

    def test_aggregate_endpoint_groups_by_episode(self, server):
        payload = _get_json(
            server.url
            + "api/aggregate?field=tick&agg=count&group_by=episode"
        )
        assert sorted(payload["rows"]) == [["0", 3], ["1", 3]]

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "no/such/route")
        assert err.value.code == 404

    def test_bad_query_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "api/series")  # missing ?field=
        assert err.value.code == 400

    def test_flamegraph_404_without_snapshot(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "flamegraph")
        assert err.value.code == 404

    def test_store_only_server_has_no_stream(self, run_dir):
        with DashboardServer(run_dir) as first:
            pass  # builds + ingests <dir>/obsv.sqlite
        del first
        store_path = run_dir / "obsv.sqlite"
        # Point at the bare store after hiding the run directory link.
        with DashboardServer(store_path) as server:
            status = _get_json(server.url + "api/status")
            assert status["events"] == 4


class TestSSE:
    def test_streams_appended_event_and_closes_cleanly(self, server,
                                                       run_dir):
        frames = []
        ready = threading.Event()

        def listen():
            request = urllib.request.urlopen(
                server.url + "events", timeout=10
            )
            for raw in request:
                line = raw.decode("utf-8").strip()
                if line == "event: hello":
                    ready.set()
                if line.startswith("data:") and "train_step" in line:
                    frames.append(
                        json.loads(line.split(":", 1)[1].strip())
                    )
                    break

        thread = threading.Thread(target=listen, daemon=True)
        thread.start()
        assert ready.wait(timeout=10), "no SSE hello frame"
        with TraceWriter(run_dir / "trace1.jsonl") as w:
            w.emit("train_step", loop="demo", step=7, reward=0.5)
        thread.join(timeout=10)
        assert not thread.is_alive(), "no SSE data frame arrived"
        (event,) = frames
        assert event == {
            "event": "train_step", "loop": "demo", "step": 7, "reward": 0.5
        }

    def test_watchdog_alert_streams_as_alert_frame(self, server, run_dir):
        alerts = []
        ready = threading.Event()

        def listen():
            request = urllib.request.urlopen(
                server.url + "events", timeout=10
            )
            is_alert = False
            for raw in request:
                line = raw.decode("utf-8").strip()
                if line == "event: hello":
                    ready.set()
                elif line == "event: alert":
                    is_alert = True
                elif line.startswith("data:") and is_alert:
                    alerts.append(
                        json.loads(line.split(":", 1)[1].strip())
                    )
                    break

        thread = threading.Thread(target=listen, daemon=True)
        thread.start()
        assert ready.wait(timeout=10), "no SSE hello frame"
        with TraceWriter(run_dir / "trace0.jsonl") as w:
            w.emit(
                "update_health", loop="sac", step=1, update=1,
                critic_loss=float("nan"),
            )
        thread.join(timeout=10)
        assert not thread.is_alive(), "no alert frame arrived"
        (alert,) = alerts
        assert alert["rule"] == "nan_loss"
        assert alert["loop"] == "sac"
        assert "worker" not in alert

    def test_new_trace_appearing_mid_run_is_picked_up(self, server,
                                                      run_dir):
        frames = []
        ready = threading.Event()

        def listen():
            request = urllib.request.urlopen(
                server.url + "events", timeout=10
            )
            for raw in request:
                line = raw.decode("utf-8").strip()
                if line == "event: hello":
                    ready.set()
                if line.startswith("data:") and "train_step" in line:
                    frames.append(
                        json.loads(line.split(":", 1)[1].strip())
                    )
                    break

        thread = threading.Thread(target=listen, daemon=True)
        thread.start()
        assert ready.wait(timeout=10)
        with TraceWriter(run_dir / "late.jsonl") as w:
            w.emit("train_step", loop="late", step=1)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert frames[0] == {"event": "train_step", "loop": "late", "step": 1}


class TestHelpers:
    def test_json_safe_stringifies_non_finite(self):
        safe = json_safe(
            {"a": float("nan"), "b": [float("inf"), 1.5], "c": "x"}
        )
        assert safe == {"a": "nan", "b": ["inf", 1.5], "c": "x"}
        json.dumps(safe, allow_nan=False)  # strict-parseable

    def test_event_bus_drops_messages_for_stalled_clients_only(self):
        bus = EventBus(max_queue=1)
        fast, slow = bus.subscribe(), bus.subscribe()
        bus.publish({"n": 1})
        assert slow.get_nowait() == {"n": 1}
        bus.publish({"n": 2})  # fast queue full: dropped there only
        assert slow.get_nowait() == {"n": 2}
        assert fast.qsize() == 1
        bus.unsubscribe(fast)
        bus.unsubscribe(slow)
        assert bus.clients == 0
