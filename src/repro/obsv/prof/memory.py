"""Allocation tracking at span boundaries via ``tracemalloc``.

``tracemalloc`` is expensive (every allocation pays for a traceback
capture), so it is strictly opt-in: set ``REPRO_PROF_MEM`` to a
comma-separated list of span names (leaf names like ``agent.e2e.act`` or
full paths like ``episode/world.tick``), or to ``all``/``1`` to track
every span. The probe snapshots traced memory when an opted-in span
enters and exits, reporting per-span **net allocation** (bytes retained
across the span) and **peak** traced memory observed inside it.

Peaks use :func:`tracemalloc.reset_peak` at span entry, so for *nested*
opted-in spans the inner span's reset truncates the outer span's peak
window; net allocation is unaffected. Track one nesting level at a time
when exact peaks matter.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

from repro.obsv.render import fmt, markdown_table
from repro.telemetry.spans import SpanProbe


@dataclass
class MemStats:
    """Aggregate allocation behaviour of one span path."""

    count: int = 0
    net_total: int = 0
    net_max: int = 0
    peak_max: int = 0

    def add(self, net: int, peak: int) -> None:
        self.count += 1
        self.net_total += net
        if net > self.net_max:
            self.net_max = net
        if peak > self.peak_max:
            self.peak_max = peak

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "net_total_kb": round(self.net_total / 1024.0, 3),
            "net_mean_kb": round(
                self.net_total / 1024.0 / max(self.count, 1), 3
            ),
            "net_max_kb": round(self.net_max / 1024.0, 3),
            "peak_max_kb": round(self.peak_max / 1024.0, 3),
        }


class MemoryProbe(SpanProbe):
    """Span probe aggregating tracemalloc readings for opted-in spans.

    ``spans=None`` tracks every span; otherwise a span is tracked when
    its full path or its leaf name is in the set. The probe assumes
    ``tracemalloc`` is already tracing (the profile session starts it).
    """

    def __init__(self, spans: set[str] | None = None) -> None:
        self.filter = spans
        self.stats: dict[str, MemStats] = {}

    def _tracked(self, path: str) -> bool:
        if self.filter is None:
            return True
        return path in self.filter or path.rsplit("/", 1)[-1] in self.filter

    def on_enter(self, path: str):
        if not self._tracked(path) or not tracemalloc.is_tracing():
            return None
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        return current

    def on_exit(self, path: str, token, duration: float) -> None:
        if token is None or not tracemalloc.is_tracing():
            return
        current, peak = tracemalloc.get_traced_memory()
        stats = self.stats.get(path)
        if stats is None:
            stats = self.stats[path] = MemStats()
        stats.add(current - token, peak)

    # -- output -----------------------------------------------------------------

    def unmatched(self) -> list[str]:
        """Requested span names/paths that no measured span matched."""
        if self.filter is None:
            return []
        seen = set(self.stats)
        seen.update(path.rsplit("/", 1)[-1] for path in self.stats)
        return sorted(self.filter - seen)

    def summary(self) -> dict[str, dict[str, float]]:
        ordered = sorted(
            self.stats.items(), key=lambda item: -item[1].peak_max
        )
        return {path: stats.summary() for path, stats in ordered}


def allocation_markdown(
    memory: dict[str, dict], unmatched: list[str], top: int
) -> list[str]:
    """The report's allocation section: the ``top`` spans of a
    :meth:`MemoryProbe.summary`, then the requested names that matched
    no span (no lines when both are empty)."""
    if not memory and not unmatched:
        return []
    lines = ["## Allocations (tracemalloc, opted-in spans)", ""]
    rows = [
        [
            f"`{path}`",
            stats["count"],
            fmt(stats["net_mean_kb"], 1),
            fmt(stats["net_total_kb"], 1),
            fmt(stats["peak_max_kb"], 1),
        ]
        for path, stats in list(memory.items())[:top]
    ]
    if rows:
        lines += markdown_table(
            ["span", "calls", "net KB/call", "net total KB", "peak KB"],
            rows,
        )
        lines.append("")
    if unmatched:
        names = ", ".join(f"`{name}`" for name in unmatched)
        lines += [f"Requested spans that matched nothing: {names}", ""]
    return lines
