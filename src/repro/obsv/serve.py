"""``repro.obsv serve`` — a live HTTP dashboard over the telemetry store.

Stdlib-only (``http.server``), bound to localhost on an ephemeral port by
default. One server fronts one run directory (or an already-ingested
store) and exposes:

* ``/``              — the HTML dashboard (same renderer as ``obsv
  dashboard --html``), re-ingesting the run directory on each request —
  ingest is mtime-checked and idempotent, so unchanged traces cost one
  ``stat`` each and the page is always current;
* ``/dashboard.md``  — the markdown variant;
* ``/flamegraph``    — self-contained HTML flamegraph built from the
  stored ``BENCH_telemetry.json`` / ``PROFILE_report.json`` span tree;
* ``/compare``       — run-picker + side-by-side statistical comparison
  (the ``obsv compare`` engine over two run labels or trace files in
  this store), with ``/api/compare`` returning the same report as JSON;
* ``/api/status``, ``/api/runs``, ``/api/snapshots`` — JSON inventory;
* ``/api/events``, ``/api/series``, ``/api/aggregate`` — the
  :class:`~repro.obsv.store.TelemetryStore` query API over HTTP, with
  the same filters as ``obsv query`` (``kind``, ``episode``, ``loop``,
  ``run``, ``name``, ``limit``, ``field``, ``agg``, ``group_by``);
* ``/events``        — a Server-Sent-Events stream: every event newly
  appended to any trace in the run directory is pushed as a ``data:``
  frame, and watchdog firings (:class:`~repro.obsv.alerts.Watchdog`,
  the same rule-set as ``obsv watch``) arrive as ``event: alert``
  frames — ``obsv watch`` in a browser.

Every request handler opens its own short-lived store connection
(SQLite connections are thread-bound and ``ThreadingHTTPServer`` runs
one thread per request), and the trace follower holds none at all, so
the server never fights a concurrent ``obsv ingest`` for the write lock.
"""

from __future__ import annotations

import html as _html_mod
import json
import math
import queue
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from repro.obsv.alerts import WatchConfig, Watchdog
from repro.obsv.compare import StatConfig, compare_runs, load_run
from repro.obsv.dashboard import _HTML_TEMPLATE, build_dashboard, to_html
from repro.obsv.store import DEFAULT_STORE_NAME, TelemetryStore, is_store_path
from repro.obsv.watch import MultiTail
from repro.telemetry.log import get_logger

log = get_logger("obsv.serve")

#: Default seconds between trace-follower polls.
DEFAULT_POLL_S = 0.5

#: Query parameters accepted by every ``/api`` event endpoint.
_FILTER_PARAMS = ("kind", "episode", "loop", "name")


def json_safe(value):
    """``value`` with non-finite floats stringified ("NaN", "inf").

    Python's ``json`` emits bare ``NaN`` literals, which strict parsers
    (every browser's ``JSON.parse``) reject — and NaN losses are exactly
    what the alert stream exists to carry.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


class EventBus:
    """Fan-out of follower messages to any number of SSE subscribers."""

    def __init__(self, max_queue: int = 10_000) -> None:
        self._subscribers: list[queue.Queue] = []
        self._lock = threading.Lock()
        self._max_queue = max_queue

    def subscribe(self) -> queue.Queue:
        q: queue.Queue = queue.Queue(self._max_queue)
        with self._lock:
            self._subscribers.append(q)
        return q

    def unsubscribe(self, q: queue.Queue) -> None:
        with self._lock:
            if q in self._subscribers:
                self._subscribers.remove(q)

    @property
    def clients(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def publish(self, message: dict) -> None:
        with self._lock:
            targets = list(self._subscribers)
        for q in targets:
            try:
                q.put_nowait(message)
            except queue.Full:
                pass  # a stalled client loses messages, not the server


class TraceFollower(threading.Thread):
    """Streams a run directory's traces through a :class:`MultiTail`.

    Trace files appearing mid-run are picked up on the next poll. Each
    event is pushed to the bus and fed to the watchdog rule-set; firings
    are pushed as alert messages.
    """

    def __init__(
        self,
        directory: str | Path,
        bus: EventBus,
        poll: float = DEFAULT_POLL_S,
        config: WatchConfig | None = None,
        pattern: str = "*.jsonl",
    ) -> None:
        super().__init__(name="obsv-serve-follower", daemon=True)
        self.bus = bus
        self.poll = max(float(poll), 0.05)
        self.watchdog = Watchdog(config)
        self.alerts: list[dict] = []
        self.events_seen = 0
        # NB: not named _stop — threading.Thread.join() calls a private
        # Thread._stop() internally and an Event attribute would shadow it.
        self._halt = threading.Event()
        # The SSE feed is "what is happening"; the store holds the backlog.
        self._tail = MultiTail(directory, pattern)
        self._tail.skip_to_end()

    def stop(self) -> None:
        self._halt.set()

    def run(self) -> None:
        while not self._halt.wait(self.poll):
            try:
                self.poll_once()
            except OSError as error:  # directory vanished mid-poll, etc.
                log.warning("serve.follower_error", error=str(error))

    def poll_once(self) -> int:
        """One multiplexed pass over all traces; returns events pushed."""
        events = self._tail.poll()
        for event in events:
            self.events_seen += 1
            self.bus.publish({"type": "event", "data": event})
            for alert in self.watchdog.observe(event):
                record = alert.to_event()
                self.alerts.append(record)
                self.bus.publish({"type": "alert", "data": record})
        return len(events)


class DashboardServer:
    """The ``obsv serve`` HTTP server: dashboard + query API + SSE.

    ``root`` is a run directory (store created/refreshed in place as
    ``<dir>/obsv.sqlite``) or an existing store file (the run directory
    is recovered from the store's ``source_dir`` metadata when present,
    enabling the live endpoints).
    """

    def __init__(
        self,
        root: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        poll: float = DEFAULT_POLL_S,
        watch_config: WatchConfig | None = None,
    ) -> None:
        root = Path(root)
        if root.is_file() and is_store_path(root):
            self.store_path = root
            with self._store() as store:
                source = store.get_meta("source_dir")
            self.trace_dir = Path(source) if source else None
        else:
            self.trace_dir = root
            self.store_path = root / DEFAULT_STORE_NAME
        self.host = host
        self._port = port
        self.poll = max(float(poll), 0.05)
        self.bus = EventBus()
        self.follower: TraceFollower | None = None
        if self.trace_dir is not None:
            self.follower = TraceFollower(
                self.trace_dir, self.bus, poll=self.poll,
                config=watch_config,
            )
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "DashboardServer":
        self.refresh_store()
        app = self

        class Handler(_Handler):
            pass

        Handler.app = app
        self._httpd = ThreadingHTTPServer(
            (self.host, self._port), Handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="obsv-serve-http",
            daemon=True,
        )
        self._thread.start()
        if self.follower is not None:
            self.follower.start()
        log.info("serve.started", url=self.url, store=str(self.store_path))
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self.follower is not None:
            self.follower.stop()
        # Unblock SSE loops waiting on their queues.
        self.bus.publish({"type": "shutdown"})
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.follower is not None:
            self.follower.join(timeout=5.0)
            self.follower = None
        log.info("serve.stopped")

    def __enter__(self) -> "DashboardServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/"

    # -- store access -------------------------------------------------------------

    def _store(self) -> TelemetryStore:
        return TelemetryStore(self.store_path)

    def refresh_store(self) -> None:
        """Idempotent re-ingest of the run directory (if one is known)."""
        if self.trace_dir is None or not self.trace_dir.is_dir():
            return
        with self._store() as store:
            store.ingest_dir(self.trace_dir)


class _Handler(BaseHTTPRequestHandler):
    """One request, one thread, one short-lived store connection."""

    app: DashboardServer  # installed by DashboardServer.start
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args) -> None:
        log.debug("serve.request", detail=fmt % args)

    # -- response helpers ---------------------------------------------------------

    def _send(
        self, body: str, content_type: str, status: int = 200
    ) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, payload: object, status: int = 200) -> None:
        self._send(
            json.dumps(json_safe(payload), indent=2, default=str) + "\n",
            "application/json",
            status,
        )

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status)

    # -- routing ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        params = {
            key: values[-1]
            for key, values in parse_qs(parsed.query).items()
        }
        try:
            if route == "/":
                self._page_dashboard(html=True)
            elif route == "/dashboard.md":
                self._page_dashboard(html=False)
            elif route == "/flamegraph":
                self._page_flamegraph()
            elif route == "/compare":
                self._page_compare(params)
            elif route == "/api/compare":
                self._api_compare(params)
            elif route == "/api/status":
                self._api_status()
            elif route == "/api/runs":
                self._api_runs()
            elif route == "/api/snapshots":
                self._api_snapshots()
            elif route == "/api/events":
                self._api_events(params)
            elif route == "/api/series":
                self._api_series(params)
            elif route == "/api/aggregate":
                self._api_aggregate(params)
            elif route == "/events":
                self._sse(params)
            else:
                self._error(404, f"no route {route!r}")
        except ValueError as error:
            self._error(400, str(error))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to answer
        except Exception as error:  # pragma: no cover - defensive
            log.error("serve.handler_error", route=route, error=str(error))
            try:
                self._error(500, str(error))
            except OSError:
                pass

    # -- pages --------------------------------------------------------------------

    def _page_dashboard(self, html: bool) -> None:
        self.app.refresh_store()
        markdown = build_dashboard(self.app.store_path)
        if html:
            self._send(to_html(markdown), "text/html; charset=utf-8")
        else:
            self._send(markdown, "text/markdown; charset=utf-8")

    def _page_flamegraph(self) -> None:
        from repro.obsv.prof.flamegraph import render_html, spans_to_folded

        with self.app._store() as store:
            snapshot = store.snapshot("BENCH_telemetry.json") or (
                store.snapshot("PROFILE_report.json")
            )
        spans = (snapshot or {}).get("spans") or {}
        if not spans:
            self._error(
                404,
                "no BENCH_telemetry.json / PROFILE_report.json span"
                " snapshot ingested",
            )
            return
        self._send(
            render_html(
                spans_to_folded(spans),
                title="repro span flamegraph",
                meta=f"served from {self.app.store_path.name}",
            ),
            "text/html; charset=utf-8",
        )

    # -- comparison ---------------------------------------------------------------

    def _compare_choices(self) -> tuple[list[str], list[str]]:
        """(run labels, trace file basenames) selectable for comparison."""
        with self.app._store() as store:
            rows = store.run_provenance()
        labels = sorted({row["label"] for row in rows if row["label"]})
        sources = sorted({Path(row["source"]).name for row in rows})
        return labels, sources

    def _load_side(self, value: str):
        """Resolve one ``a``/``b`` parameter to (episodes, provenance, name).

        A known run label queries the store; anything else must name a
        trace file inside the served run directory — arbitrary paths
        are rejected so the HTTP surface cannot read outside the run.
        """
        labels, _ = self._compare_choices()
        if value in labels:
            return load_run(self.app.store_path, label=value)
        trace_dir = self.app.trace_dir
        if trace_dir is not None:
            candidate = (trace_dir / value).resolve()
            if (
                candidate.parent == trace_dir.resolve()
                and candidate.is_file()
            ):
                return load_run(candidate)
        return [], None, value

    def _run_comparison(self, a: str, b: str, params: dict):
        """Build the RunComparison, or raise ValueError on bad params."""
        paired_mode = params.get("paired", "auto")
        if paired_mode not in ("auto", "yes", "no"):
            raise ValueError("paired must be auto|yes|no")
        stat = StatConfig(
            stat_seed=int(params.get("stat_seed", 0)),
            resamples=int(params.get("resamples", 2000)),
            confidence=float(params.get("confidence", 0.95)),
            alpha=float(params.get("alpha", 0.05)),
        )
        episodes_a, prov_a, name_a = self._load_side(a)
        episodes_b, prov_b, name_b = self._load_side(b)
        missing = [
            name for name, episodes in
            ((name_a, episodes_a), (name_b, episodes_b))
            if not episodes
        ]
        if missing:
            return None, missing
        return compare_runs(
            episodes_a,
            episodes_b,
            stat=stat,
            label_a=name_a,
            label_b=name_b,
            paired={"auto": None, "yes": True, "no": False}[paired_mode],
            provenance_a=prov_a,
            provenance_b=prov_b,
        ), []

    def _compare_picker(self) -> str:
        """The ``/compare`` landing page: pick two runs from the store."""
        labels, sources = self._compare_choices()
        options = "".join(
            f'<option value="{_html_mod.escape(choice, quote=True)}">'
            f"{_html_mod.escape(choice)}</option>"
            for choice in labels + [s for s in sources if s not in labels]
        )
        if not options:
            body = (
                "<h1>Compare runs</h1>"
                "<p>No trace runs ingested yet — nothing to compare.</p>"
            )
        else:
            body = (
                "<h1>Compare runs</h1>"
                '<form method="get" action="/compare">'
                f'<p>A <select name="a">{options}</select> '
                f'vs B <select name="b">{options}</select></p>'
                '<p>stat seed <input name="stat_seed" value="0" size="6"> '
                'resamples <input name="resamples" value="2000" size="6"> '
                'paired <select name="paired">'
                "<option>auto</option><option>yes</option>"
                "<option>no</option></select> "
                '<button type="submit">Compare</button></p>'
                "</form>"
                f"<p>{len(labels)} run label(s), {len(sources)} trace"
                " file(s) available.</p>"
            )
        return _HTML_TEMPLATE.format(body=body)

    def _page_compare(self, params: dict) -> None:
        self.app.refresh_store()
        a, b = params.get("a"), params.get("b")
        if not a or not b:
            self._send(self._compare_picker(), "text/html; charset=utf-8")
            return
        comparison, missing = self._run_comparison(a, b, params)
        if comparison is None:
            self._error(
                404,
                "no complete episodes for: " + ", ".join(missing),
            )
            return
        self._send(
            to_html(comparison.to_markdown()), "text/html; charset=utf-8"
        )

    def _api_compare(self, params: dict) -> None:
        a, b = params.get("a"), params.get("b")
        if not a or not b:
            labels, sources = self._compare_choices()
            self._send_json({"labels": labels, "sources": sources})
            return
        self.app.refresh_store()
        comparison, missing = self._run_comparison(a, b, params)
        if comparison is None:
            self._error(
                404,
                "no complete episodes for: " + ", ".join(missing),
            )
            return
        self._send_json(comparison.to_json())

    # -- JSON API -----------------------------------------------------------------

    def _filters(self, params: dict) -> dict:
        filters = {
            key: params[key] for key in _FILTER_PARAMS if key in params
        }
        if "run" in params:
            filters["run"] = int(params["run"])
        return filters

    def _api_status(self) -> None:
        with self.app._store() as store:
            runs = store.runs()
            total = sum(info.events for info in runs)
        follower = self.app.follower
        self._send_json(
            {
                "store": str(self.app.store_path),
                "trace_dir": (
                    str(self.app.trace_dir) if self.app.trace_dir else None
                ),
                "runs": len(runs),
                "events": total,
                "live": follower is not None,
                "streamed_events": (
                    follower.events_seen if follower else 0
                ),
                "clients": self.app.bus.clients,
                "alerts": list(follower.alerts) if follower else [],
            }
        )

    def _api_runs(self) -> None:
        with self.app._store() as store:
            runs = store.runs()
        self._send_json(
            [
                {
                    "run_id": info.run_id,
                    "source": info.source,
                    "kind": info.kind,
                    "events": info.events,
                }
                for info in runs
            ]
        )

    def _api_snapshots(self) -> None:
        with self.app._store() as store:
            self._send_json(store.snapshots())

    def _api_events(self, params: dict) -> None:
        limit = int(params.get("limit", 100))
        with self.app._store() as store:
            events = store.events(limit=limit, **self._filters(params))
        self._send_json(events)

    def _api_series(self, params: dict) -> None:
        field = params.get("field")
        if not field:
            raise ValueError("series needs ?field=")
        with self.app._store() as store:
            values = store.series(field, **self._filters(params))
        self._send_json({"field": field, "values": values})

    def _api_aggregate(self, params: dict) -> None:
        field = params.get("field")
        if not field:
            raise ValueError("aggregate needs ?field=")
        agg = params.get("agg", "mean")
        group_by = params.get("group_by")
        with self.app._store() as store:
            rows = store.aggregate(
                field, agg=agg, group_by=group_by, **self._filters(params)
            )
        self._send_json(
            {"field": field, "agg": agg, "group_by": group_by,
             "rows": [list(row) for row in rows]}
        )

    # -- SSE ----------------------------------------------------------------------

    def _sse(self, params: dict) -> None:
        if self.app.follower is None:
            self._error(
                404, "no run directory to stream (store-only server)"
            )
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        q = self.app.bus.subscribe()
        try:
            self.wfile.write(b"retry: 2000\n\n")
            self.wfile.write(
                b"event: hello\ndata: "
                + json.dumps(
                    {"store": str(self.app.store_path)}
                ).encode("utf-8")
                + b"\n\n"
            )
            self.wfile.flush()
            while not self.app._stopping.is_set():
                try:
                    message = q.get(timeout=1.0)
                except queue.Empty:
                    self.wfile.write(b": ping\n\n")
                    self.wfile.flush()
                    continue
                if message.get("type") == "shutdown":
                    break
                payload = json.dumps(
                    json_safe(message.get("data", {})),
                    separators=(",", ":"),
                ).encode("utf-8")
                if message.get("type") == "alert":
                    self.wfile.write(
                        b"event: alert\ndata: " + payload + b"\n\n"
                    )
                else:
                    self.wfile.write(b"data: " + payload + b"\n\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client disconnected; the subscription is dropped below
        finally:
            self.app.bus.unsubscribe(q)


def serve(
    root: str | Path,
    host: str = "127.0.0.1",
    port: int = 0,
    poll: float = DEFAULT_POLL_S,
    watch_config: WatchConfig | None = None,
) -> DashboardServer:
    """Build and start a :class:`DashboardServer` (caller stops it)."""
    return DashboardServer(
        root, host=host, port=port, poll=poll, watch_config=watch_config
    ).start()
