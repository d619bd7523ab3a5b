"""``repro.obsv watch`` — live monitor for a growing training trace.

Tails a JSONL trace with plain polling (no filesystem-notification
dependencies), keeps incremental per-loop statistics, renders a
refreshing terminal view (throughput, ETA, reward/loss/entropy
sparklines via :mod:`repro.obsv.render`), and pipes every event through
the :class:`~repro.obsv.alerts.Watchdog`. When a rule fires, the alert
is (by default) appended to the trace itself as a structured ``alert``
event — so the run's own artifact records the diagnosis and later
ingestion into the telemetry store picks it up — and two optional hooks
run:

* ``exit_on_alert`` — stop watching and exit nonzero, which lets CI and
  budget-capped training jobs fail fast instead of burning the full run;
* ``on_alert`` — a shell command (e.g. a checkpoint-on-alert script that
  snapshots the learner state or signals the trainer) executed with
  ``REPRO_ALERT_RULE`` / ``REPRO_ALERT_SEVERITY`` / ``REPRO_ALERT_MESSAGE``
  / ``REPRO_ALERT_TRACE`` in its environment.

``once=True`` performs a single pass over the current file contents and
returns — that is the mode tests and post-hoc "did anything trip?"
checks use on completed traces.

``path`` may also be a **run directory**: every ``*.jsonl`` trace in
it is tailed and multiplexed into one view, traces that appear mid-run
are picked up on the next poll, and fired alerts are appended to
``<dir>/alerts.jsonl`` instead of any one trace. Episodes are paired by
(trace, episode id), since each trace numbers its own.

Each decoded record is screened with
:func:`~repro.telemetry.trace.validate_event` before the view and the
watchdogs see it; a record that fails is dropped and counted in
``trace_invalid_events_total``, as the store's ingest counts it.

With ``baseline_metrics`` (a metric snapshot from ``obsv compare
--snapshot`` / ``benchmarks/BASELINE_metrics.json``), the view also
annotates **scientific drift**: each finished episode's metrics
(:func:`repro.obsv.compare.episode_metrics`: collision rate, attack
success, strike effort, minimum TTC, steps to strike, steps, returns)
accumulate live per ``victim|attacker|budget`` cell, and the gate of
``obsv regress --metrics``
(:func:`repro.obsv.compare.compare_metric_snapshots`) flags any cell
mean that leaves the baseline's bootstrap CI.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.obsv.alerts import Alert, WatchConfig, Watchdog
from repro.obsv.compare import (
    cell_key,
    compare_metric_snapshots,
    episode_metrics,
)
from repro.obsv.loader import Ticks, split_episodes
from repro.obsv.render import fmt, sparkline
from repro.obsv.store import load_snapshot
from repro.telemetry.log import get_logger
from repro.telemetry.trace import (
    TraceWriter,
    count_invalid_event,
    decode_lines,
    validate_event,
)

log = get_logger("obsv.watch")

#: Default seconds between polls (``watch --poll`` sets another)...
DEFAULT_POLL_S = 2.0
#: ...and the least: a shorter one spins a core in follow mode.
MIN_POLL_S = 0.05


class TraceTail:
    """Incremental JSONL reader that survives partially written lines.

    A trailing line without its newline is held back until the writer
    finishes it. Complete lines go through
    :func:`repro.telemetry.trace.decode_lines`, as in every trace reader:
    an undecodable line is counted in ``trace_torn_lines_total``, and a
    format-1 ``tick`` record raises
    :class:`~repro.telemetry.trace.TraceFormatError`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._offset = 0
        self._partial = ""
        self._lines = 0  # complete lines read so far

    def poll(self) -> list[dict]:
        """Decoded events appended since the previous poll."""
        if not self.path.exists():
            return []
        size = self.path.stat().st_size
        if size < self._offset:
            # Truncated/rotated underneath us: start over.
            self._offset = 0
            self._partial = ""
            self._lines = 0
        if size == self._offset:
            return []
        with self.path.open("r", encoding="utf-8") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
            self._offset = handle.tell()
        text = self._partial + chunk
        lines = text.split("\n")
        self._partial = lines.pop()  # "" on a clean trailing newline
        first = self._lines + 1
        self._lines += len(lines)
        return [
            event for event, _ in decode_lines(lines, self.path, first=first)
        ]


class MultiTail:
    """Tails one trace, or every ``*.jsonl`` in a directory, as one feed.

    A directory is rescanned on each poll, so traces created after the
    watch started are picked up live.
    """

    def __init__(self, path: str | Path, pattern: str = "*.jsonl") -> None:
        self.path = Path(path)
        self.pattern = pattern
        self._tails: dict[Path, TraceTail] = {}

    def _traces(self) -> list[Path]:
        if not self.path.is_dir():
            return [self.path]
        return sorted(self.path.glob(self.pattern))

    def poll(self) -> list[tuple[Path, object]]:
        """``(trace, record)`` pairs appended since the previous poll,
        file-ordered within the batch."""
        records: list[tuple[Path, object]] = []
        for path in self._traces():
            tail = self._tails.get(path)
            if tail is None:
                tail = self._tails[path] = TraceTail(path)
            records.extend((path, record) for record in tail.poll())
        return records


@dataclass
class _LoopView:
    """Display accumulators for one training loop."""

    step: int = 0
    episodes: int = 0
    rewards: deque = field(default_factory=lambda: deque(maxlen=600))
    episode_returns: list = field(default_factory=list)
    running_return: float = 0.0
    health: dict = field(default_factory=dict)
    critic_loss: deque = field(default_factory=lambda: deque(maxlen=120))
    actor_loss: deque = field(default_factory=lambda: deque(maxlen=120))
    entropy: deque = field(default_factory=lambda: deque(maxlen=120))
    steps_per_s: deque = field(default_factory=lambda: deque(maxlen=120))


@dataclass
class WatchState:
    """Everything the renderer needs, updated per event."""

    events: int = 0
    episodes_seen: int = 0
    ticks_seen: int = 0
    loops: dict = field(default_factory=dict)
    alerts: dict = field(default_factory=dict)  # (rule, loop) -> Alert
    #: Live samples of each ``compare.episode_metrics`` metric per
    #: ``victim|attacker|budget`` cell — the inputs to the baseline-drift
    #: annotations.
    cells: dict = field(default_factory=dict)
    #: (trace, episode) -> start record: two traces in one run directory
    #: number their episodes independently.
    _starts: dict = field(default_factory=dict)

    def loop(self, name: str) -> _LoopView:
        view = self.loops.get(name)
        if view is None:
            view = self.loops[name] = _LoopView()
        return view

    def ingest(self, event: dict, source: Path | None = None) -> None:
        """Fold one valid record from the trace ``source`` into the view."""
        self.events += 1
        kind = event.get("event")
        if kind == "train_step":
            view = self.loop(str(event.get("loop", "")))
            view.step = max(view.step, int(event.get("step", 0)))
            reward = event.get("reward")
            if isinstance(reward, (int, float)):
                view.rewards.append(float(reward))
                view.running_return += float(reward)
            if event.get("done"):
                view.episodes += 1
                view.episode_returns.append(view.running_return)
                view.running_return = 0.0
        elif kind == "update_health":
            view = self.loop(str(event.get("loop", "")))
            view.step = max(view.step, int(event.get("step", 0)))
            view.health = event
            for name in ("critic_loss", "actor_loss", "entropy",
                         "steps_per_s"):
                value = event.get(name)
                if isinstance(value, (int, float)):
                    getattr(view, name).append(float(value))
        elif kind == "episode_start":
            self.episodes_seen += 1
            self._starts[source, event.get("episode")] = event
        elif kind == "episode_end":
            self.ticks_seen += len(Ticks.of(event))
            start = self._starts.pop((source, event.get("episode")), None)
            if start is not None:
                (episode,) = split_episodes([start, event])
                samples = self.cells.setdefault(
                    cell_key(episode.victim, episode.attacker, episode.budget),
                    {},
                )
                for metric, value in episode_metrics(episode).items():
                    samples.setdefault(metric, []).append(value)
        elif kind == "alert":
            key = (str(event.get("rule")), str(event.get("loop", "")))
            if key not in self.alerts:
                self.alerts[key] = Alert(
                    rule=key[0],
                    severity=str(event.get("severity", "warning")),
                    message=str(event.get("message", "")),
                    loop=key[1],
                    step=event.get("step"),
                    value=event.get("value"),
                    threshold=event.get("threshold"),
                )

    def add_alert(self, alert: Alert) -> None:
        self.alerts.setdefault((alert.rule, alert.loop), alert)


#: Minimum live episodes per cell before drift is judged (small samples
#: leave any CI constantly and would make the annotation pure noise).
DRIFT_MIN_N = 5


def metric_drift(
    state: WatchState, baseline: dict, min_n: int = DRIFT_MIN_N
) -> list[tuple[str, str, float, int, float, float]]:
    """Cells whose live metric mean left the baseline's bootstrap CI.

    The live samples go through the ``obsv regress --metrics`` gate
    (:func:`repro.obsv.compare.compare_metric_snapshots`). Returns
    ``(cell, metric, live_mean, n, ci_lo, ci_hi)`` rows, sorted; cells
    and metrics absent from the baseline, and samples of fewer than
    ``min_n`` episodes on either side, are skipped, not flagged.
    """
    live = {
        key: {
            "metrics": {
                metric: {"n": len(values), "mean": sum(values) / len(values)}
                for metric, values in samples.items()
            }
        }
        for key, samples in state.cells.items()
    }
    rows = []
    for breach in compare_metric_snapshots(
        {"cells": live}, baseline, min_n=min_n
    ):
        base = baseline["cells"][breach.name]["metrics"][breach.metric]
        n = live[breach.name]["metrics"][breach.metric]["n"]
        lo, hi = (float(bound) for bound in base["ci"])
        rows.append((breach.name, breach.metric, breach.current, n, lo, hi))
    return rows


def _eta_s(view: _LoopView, total_steps: int | None) -> float | None:
    if not total_steps or view.step >= total_steps:
        return None
    rate = view.steps_per_s[-1] if view.steps_per_s else None
    if not rate or rate <= 0.0:
        return None
    return (total_steps - view.step) / rate


def render_status(
    state: WatchState,
    path: str | Path,
    total_steps: int | None = None,
    width: int = 48,
    baseline: dict | None = None,
    drift_min_n: int = DRIFT_MIN_N,
) -> str:
    """The full refreshing terminal view as one multi-line string."""
    lines = [f"repro.obsv watch — {path} ({state.events} events)"]
    for name, view in sorted(state.loops.items()):
        health = view.health
        parts = [f"loop {name or '?'}: step {view.step}"]
        if health:
            parts.append(f"update {health.get('update', '?')}")
            size = health.get("buffer_size")
            cap = health.get("buffer_capacity")
            if size is not None:
                parts.append(f"buffer {size}/{cap if cap else '?'}")
            rate = view.steps_per_s[-1] if view.steps_per_s else None
            if rate is not None:
                parts.append(f"{fmt(rate, 1)} steps/s")
        eta = _eta_s(view, total_steps)
        if eta is not None:
            parts.append(f"ETA {fmt(eta, 0)}s of {total_steps}")
        lines.append("  ".join(parts))
        if view.rewards:
            lines.append(
                f"  reward    {sparkline(view.rewards, width)}"
                f"  last {fmt(view.rewards[-1], 3)}"
            )
        if view.episode_returns:
            returns = view.episode_returns
            lines.append(
                f"  ep return {sparkline(returns, width)}"
                f"  n={len(returns)} best {fmt(max(returns), 2)}"
                f" last {fmt(returns[-1], 2)}"
            )
        if view.critic_loss:
            lines.append(
                f"  critic    {sparkline(view.critic_loss, width)}"
                f"  last {fmt(view.critic_loss[-1], 4)}"
            )
        if view.actor_loss:
            lines.append(
                f"  actor     {sparkline(view.actor_loss, width)}"
                f"  last {fmt(view.actor_loss[-1], 4)}"
            )
        if health:
            lines.append(
                "  alpha "
                + fmt(health.get("alpha"), 4)
                + "  entropy "
                + fmt(health.get("entropy"), 3)
                + "  q_mean "
                + fmt(health.get("q_mean"), 3)
                + "  q_max "
                + fmt(health.get("q_max"), 3)
                + "  grad a/c "
                + fmt(health.get("actor_grad_norm"), 3)
                + "/"
                + fmt(health.get("critic_grad_norm"), 3)
            )
    if state.episodes_seen:
        lines.append(
            f"episodes {state.episodes_seen}  ticks {state.ticks_seen}"
        )
    if state.alerts:
        lines.append("alerts:")
        for alert in state.alerts.values():
            lines.append(
                f"  [{alert.severity.upper()}] {alert.rule}"
                f" ({alert.loop or '-'}): {alert.message}"
            )
    else:
        lines.append("alerts: none")
    if baseline is not None:
        drifted = metric_drift(state, baseline, min_n=drift_min_n)
        if drifted:
            lines.append("metric drift vs baseline:")
            for key, metric, mean, n, lo, hi in drifted:
                lines.append(
                    f"  [DRIFT] {key} {metric}: live {fmt(mean, 3)}"
                    f" (n={n}) outside CI"
                    f" [{fmt(lo, 3)}, {fmt(hi, 3)}]"
                )
        else:
            lines.append("metric drift vs baseline: none")
    return "\n".join(lines) + "\n"


def _run_alert_hook(command: str, alert: Alert, trace_path: Path) -> None:
    env = {
        **os.environ,
        "REPRO_ALERT_RULE": alert.rule,
        "REPRO_ALERT_SEVERITY": alert.severity,
        "REPRO_ALERT_MESSAGE": alert.message,
        "REPRO_ALERT_LOOP": alert.loop,
        "REPRO_ALERT_TRACE": str(trace_path),
    }
    try:
        subprocess.run(command, shell=True, env=env, timeout=120)
    except (OSError, subprocess.SubprocessError) as exc:
        log.error("watch.alert_hook_failed", command=command, error=str(exc))


def watch_trace(
    path: str | Path,
    config: WatchConfig | None = None,
    poll: float = DEFAULT_POLL_S,
    once: bool = False,
    exit_on_alert: bool = False,
    total_steps: int | None = None,
    write_alerts: bool = True,
    idle_exit: float | None = None,
    on_alert: str | None = None,
    baseline_metrics: str | Path | dict | None = None,
    drift_min_n: int = DRIFT_MIN_N,
    out=None,
    clock=time.monotonic,
    sleep=time.sleep,
) -> int:
    """Tail ``path``, render the live view, and evaluate the watchdogs.

    ``path`` may be one JSONL trace or a run directory of them
    (multiplexed; see module docstring). Returns 0, or 1 when
    ``exit_on_alert`` is set and any rule fired. ``idle_exit`` stops the
    follow loop after that many seconds without new events (None =
    follow until interrupted). ``poll`` below :data:`MIN_POLL_S` seconds
    raises ``ValueError``. ``baseline_metrics`` (a snapshot path or
    already-decoded document) switches on live drift annotations; a path
    that is not a metric snapshot raises ``ValueError``
    (:func:`repro.obsv.store.load_snapshot`).
    """
    if not poll >= MIN_POLL_S:
        raise ValueError(f"poll must be >= {MIN_POLL_S} s, got {poll!r}")
    path = Path(path)
    out = out if out is not None else sys.stdout
    baseline = baseline_metrics
    if baseline is not None and not isinstance(baseline, dict):
        baseline = load_snapshot(baseline, kind="metrics")
    tail = MultiTail(path)
    alert_sink = path / "alerts.jsonl" if path.is_dir() else path
    watchdog = Watchdog(config)
    state = WatchState()
    writer: TraceWriter | None = None
    is_tty = getattr(out, "isatty", lambda: False)()
    last_event_time = clock()

    try:
        while True:
            events = []
            for source, event in tail.poll():
                if validate_event(event):
                    count_invalid_event()
                else:
                    events.append((source, event))
            fired: list[Alert] = []
            # Recorded alerts (a previous watch session) sit *after* the
            # events that tripped them; arm the dedup before replaying
            # the batch so re-watching never duplicates an alert.
            for _, event in events:
                if event.get("event") == "alert":
                    watchdog.observe(event)
            for source, event in events:
                state.ingest(event, source)
                fired.extend(watchdog.observe(event))
            if events:
                last_event_time = clock()
            for alert in fired:
                state.add_alert(alert)
                log.warning(
                    "watch.alert", rule=alert.rule, severity=alert.severity,
                    loop=alert.loop, message=alert.message,
                )
                if write_alerts:
                    if writer is None:
                        writer = TraceWriter(alert_sink)
                    writer.emit("alert", **alert.to_event())
                    writer.flush()
                if on_alert:
                    _run_alert_hook(on_alert, alert, alert_sink)
            if is_tty and not once:
                out.write("\x1b[2J\x1b[H")  # clear + home between refreshes
            out.write(
                render_status(
                    state, path, total_steps,
                    baseline=baseline, drift_min_n=drift_min_n,
                )
            )
            out.flush()
            if once:
                break
            if exit_on_alert and state.alerts:
                break
            if (
                idle_exit is not None
                and clock() - last_event_time >= idle_exit
            ):
                log.info("watch.idle_exit", idle_s=idle_exit)
                break
            sleep(poll)
    except KeyboardInterrupt:
        pass
    finally:
        if writer is not None:
            writer.close()
    return 1 if (exit_on_alert and state.alerts) else 0
