"""Nested wall-clock span timing for hot paths.

Usage::

    with span("world.tick"):
        ...

    @timed("camera.render")
    def render(...): ...

Spans nest: entering ``agent.act`` inside an open ``episode`` span
aggregates under the path ``episode/agent.act``, so the snapshot doubles
as a call-tree profile. Aggregation keeps count/total/min/max plus every
duration in a :class:`~repro.telemetry.metrics.Histogram` for exact
percentiles. Each span also accumulates the wall-clock its *direct
children* spent (``child_total``), so the snapshot reports **self time**
(inclusive minus children) — the number the profiling layer
(:mod:`repro.obsv.prof`) attributes optimisation work against.

The tracer is **disabled by default**: ``span()`` then returns a shared
no-op context manager and ``@timed`` wrappers fall through with a single
attribute check, so instrumented hot loops stay within noise of the
uninstrumented code. Set ``REPRO_SPANS=1`` (an on/off knob, see
:mod:`repro.knobs`) to enable at import, or
call ``get_tracer().enable()`` programmatically. Timing uses
``time.perf_counter`` only — no RNG, no simulation state.

Probes
    Profiling tools can attach :class:`SpanProbe` objects via
    :meth:`Tracer.add_probe`; each live span then calls ``on_enter`` /
    ``on_exit`` around its body (allocation tracking, FLOP attribution).
    With no probes attached the per-span cost is one truthiness check.
"""

from __future__ import annotations

import functools
import threading
import time

from repro import knobs
from repro.telemetry.metrics import Histogram


class SpanStats:
    """Aggregate timing of one span path."""

    __slots__ = ("count", "total", "min", "max", "durations", "child_total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.durations = Histogram()
        #: Wall-clock spent inside *direct* child spans (self = total -
        #: child_total). Accumulated at child exit, so it is exact even
        #: for span names containing path separators.
        self.child_total = 0.0

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration < self.min:
            self.min = duration
        if duration > self.max:
            self.max = duration
        self.durations.observe(duration)

    @property
    def self_total(self) -> float:
        """Inclusive total minus direct-children total (never negative)."""
        return max(self.total - self.child_total, 0.0)

    def summary(self) -> dict[str, float]:
        stats = self.durations.summary()
        self_total = self.self_total
        return {
            "count": self.count,
            "total_s": round(self.total, 6),
            "self_total_s": round(self_total, 6),
            "mean_us": round(1e6 * self.total / max(self.count, 1), 3),
            "self_mean_us": round(1e6 * self_total / max(self.count, 1), 3),
            "min_us": round(1e6 * self.min, 3),
            "max_us": round(1e6 * self.max, 3),
            "p50_us": round(1e6 * stats.get("p50", 0.0), 3),
            "p90_us": round(1e6 * stats.get("p90", 0.0), 3),
            "p99_us": round(1e6 * stats.get("p99", 0.0), 3),
        }


class SpanProbe:
    """Observer attached to the tracer; called around every live span.

    ``on_enter`` may return an arbitrary token (a counter snapshot, a
    memory reading); the same token comes back to ``on_exit`` with the
    span's duration. Probes must never raise and must not touch RNG or
    simulation state — they observe, they do not steer.
    """

    def on_enter(self, path: str):  # pragma: no cover - interface
        return None

    def on_exit(self, path: str, token, duration: float) -> None:
        """Called with the token from ``on_enter`` when the span closes."""


class _NullSpan:
    """Shared no-op context manager returned while the tracer is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """One active span: pushes its path on enter, aggregates on exit."""

    __slots__ = ("_tracer", "_name", "_path", "_start", "_tokens")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_LiveSpan":
        stack = self._tracer._stack()
        parent = stack[-1] if stack else ""
        self._path = f"{parent}/{self._name}" if parent else self._name
        stack.append(self._path)
        probes = self._tracer._probes
        self._tokens = (
            [(probe, probe.on_enter(self._path)) for probe in probes]
            if probes
            else None
        )
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        duration = time.perf_counter() - self._start
        tracer = self._tracer
        stack = tracer._stack()
        stack.pop()
        stats = tracer._stats.get(self._path)
        if stats is None:
            stats = tracer._stats[self._path] = SpanStats()
        stats.add(duration)
        if stack:
            # Credit the enclosing span's child_total so its self time
            # (inclusive - children) is exact in the snapshot.
            parent = tracer._stats.get(stack[-1])
            if parent is None:
                parent = tracer._stats[stack[-1]] = SpanStats()
            parent.child_total += duration
        if self._tokens:
            for probe, token in self._tokens:
                probe.on_exit(self._path, token, duration)
        return False


class Tracer:
    """Span aggregator with an enable/disable switch and thread-local nesting."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._stats: dict[str, SpanStats] = {}
        self._local = threading.local()
        self._probes: list[SpanProbe] = []

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def add_probe(self, probe: SpanProbe) -> None:
        """Attach a probe called around every subsequent live span."""
        if probe not in self._probes:
            self._probes.append(probe)

    def remove_probe(self, probe: SpanProbe) -> None:
        if probe in self._probes:
            self._probes.remove(probe)

    def current_path(self) -> str:
        """The innermost open span path on this thread ("" when none).

        The lockstep engine reads it inside its ``episode_batch`` span to
        name the ``<path>/episode`` spans it :meth:`record`-s afterwards,
        one per episode's share of the batch wall-clock.
        """
        stack = self._stack()
        return stack[-1] if stack else ""

    def span(self, name: str):
        """Context manager timing ``name`` (no-op singleton when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name)

    def record(
        self, path: str, duration: float, parent: str | None = None
    ) -> None:
        """Record an externally-timed span at an explicit ``path``.

        The batch-episode engine runs N episodes under one
        ``episode_batch`` span; after the fact it attributes each
        episode's share of that wall-clock as a child span here, giving
        batch runs the same per-episode span coverage as the scalar path
        without N redundant timers in the lockstep loop. Mirrors
        ``_LiveSpan.__exit__``: aggregate stats and parent
        ``child_total`` credit (so the parent's self time stays exact).
        No-op while the tracer is disabled.
        """
        if not self.enabled:
            return
        stats = self._stats.get(path)
        if stats is None:
            stats = self._stats[path] = SpanStats()
        stats.add(duration)
        if parent:
            parent_stats = self._stats.get(parent)
            if parent_stats is None:
                parent_stats = self._stats[parent] = SpanStats()
            parent_stats.child_total += duration

    def reset(self) -> None:
        self._stats.clear()
        self._local = threading.local()

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Aggregates per span path, sorted by total time (largest first)."""
        ordered = sorted(
            self._stats.items(), key=lambda item: -item[1].total
        )
        return {path: stats.summary() for path, stats in ordered}


_TRACER = Tracer(enabled=knobs.get("REPRO_SPANS"))


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _TRACER


def span(name: str):
    """``with span("..."):`` against the default tracer."""
    return _TRACER.span(name)


def timed(name: str):
    """Decorator timing every call under ``name`` (falls through when off)."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _TRACER.enabled:
                return fn(*args, **kwargs)
            with _LiveSpan(_TRACER, name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
