"""Profile sessions: wire the tracer, sampler, counters, and probes.

A :class:`ProfileSession` turns on every profiling layer the
configuration asks for — span timing with self-time bookkeeping, the
sampling profiler, tracemalloc allocation probes, FLOP accounting — runs
for the lifetime of the workload, and collapses everything into one
:class:`ProfileReport` on ``stop()``. The report renders as markdown
(``obsv profile``), JSON (``PROFILE_report.json``, ingested by the
telemetry store and gated by ``obsv regress``), schema-checked
``profile`` trace events, and a self-contained HTML flamegraph.

Environment activation: set ``REPRO_PROF`` to a truthy value (or an
output directory path) and :func:`install_from_env` — called from
``repro/__init__`` at import — starts a session and registers an
``atexit`` hook that writes the report. Everything is off, and provably
zero-overhead, when ``REPRO_PROF`` is unset.
"""

from __future__ import annotations

import atexit
import os
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from repro.obsv.prof import flamegraph, sampler as sampler_mod, selftime
from repro.obsv.prof.memory import MemoryProbe, parse_mem_spec
from repro.obsv.render import fmt, markdown_table
from repro.telemetry.spans import SpanProbe, Tracer, get_tracer

#: Bumped when the PROFILE_report.json layout changes incompatibly.
REPORT_SCHEMA = 1

_FALSY = ("", "0", "false", "no", "off")


def _truthy(raw: str | None) -> bool:
    return raw is not None and raw.strip().lower() not in _FALSY


@dataclass
class ProfileConfig:
    """What a profile session measures.

    ``hz=0`` disables the sampling profiler (span self-time and FLOP
    accounting still run); ``mem=False`` disables allocation tracking,
    ``mem=None`` tracks every span, a set tracks only those names/paths.
    """

    hz: float = 0.0
    mem: set[str] | None | bool = False
    flops: bool = True
    all_threads: bool = False

    @classmethod
    def from_env(cls, env=None) -> "ProfileConfig":
        env = os.environ if env is None else env
        raw_hz = env.get("REPRO_PROF_HZ", "").strip()
        try:
            hz = float(raw_hz) if raw_hz else 0.0
        except ValueError:
            hz = -1.0
        if not 0.0 <= hz < float("inf"):
            raise ValueError(
                f"REPRO_PROF_HZ must be a non-negative number, got {raw_hz!r}"
            )
        return cls(hz=hz, mem=parse_mem_spec(env.get("REPRO_PROF_MEM")))


class FlopSpanProbe(SpanProbe):
    """Attribute FLOP-counter work to span paths (inclusive).

    ``on_enter`` snapshots the counter's running totals; ``on_exit``
    credits the delta to the span's path. Attribution is *inclusive* —
    work done inside ``episode/agent.e2e.act`` is also credited to
    ``episode`` — matching the tracer's inclusive ``total_s``, so
    per-span MFLOP/s divides like with like.
    """

    def __init__(self, counter) -> None:
        self.counter = counter
        #: path -> [calls, flops, bytes, inclusive seconds]
        self.stats: dict[str, list[float]] = {}

    def on_enter(self, path: str):
        counter = self.counter
        return (counter.grand_flops, counter.grand_bytes)

    def on_exit(self, path: str, token, duration: float) -> None:
        flops = self.counter.grand_flops - token[0]
        if flops <= 0.0:
            return
        nbytes = self.counter.grand_bytes - token[1]
        stats = self.stats.get(path)
        if stats is None:
            stats = self.stats[path] = [0, 0.0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += flops
        stats[2] += nbytes
        stats[3] += duration

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-span FLOP figures, largest FLOP totals first."""
        out = {}
        for path, (calls, flops, nbytes, seconds) in sorted(
            self.stats.items(), key=lambda item: -item[1][1]
        ):
            out[path] = {
                "calls": int(calls),
                "flops": flops,
                "bytes": nbytes,
                "mflops_per_s": round(
                    flops / 1e6 / seconds if seconds else 0.0, 3
                ),
                "intensity": round(flops / nbytes if nbytes else 0.0, 4),
            }
        return out


@dataclass
class ProfileReport:
    """Everything one profile session measured, in renderable form."""

    wall_clock_s: float
    spans: dict[str, dict] = field(default_factory=dict)
    flops: dict = field(default_factory=dict)
    span_flops: dict[str, dict] = field(default_factory=dict)
    memory: dict[str, dict] = field(default_factory=dict)
    sampler: dict = field(default_factory=dict)
    folded: dict[str, int] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    # -- derived ----------------------------------------------------------------

    def self_time_rows(self) -> list[selftime.SelfTimeRow]:
        return selftime.attribute(self.spans)

    def coverage(self) -> dict[str, float]:
        """How much of the wall clock the span tree accounts for.

        ``self_total_s`` (summed self time) equals ``root_total_s``
        (summed root-span inclusive time) by construction; ``ratio`` is
        that against the session wall clock — the acceptance check that
        attribution sums to what actually elapsed.
        """
        rows = self.self_time_rows()
        self_total = selftime.total_self_s(rows)
        return {
            "self_total_s": round(self_total, 6),
            "root_total_s": round(selftime.root_total_s(self.spans), 6),
            "ratio": round(
                self_total / self.wall_clock_s if self.wall_clock_s else 0.0,
                4,
            ),
        }

    # -- output -----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "profile",
            "wall_clock_s": round(self.wall_clock_s, 6),
            "coverage": self.coverage(),
            "config": self.config,
            "self_time": selftime.to_json(self.self_time_rows()),
            "spans": self.spans,
            "flops": self.flops,
            "span_flops": self.span_flops,
            "memory": self.memory,
            "sampler": self.sampler,
        }

    def trace_events(self) -> list[dict]:
        """Schema-checked ``profile`` events, one per span path.

        Feed these to a :class:`~repro.telemetry.trace.TraceWriter` (or
        the store's ingest) so ``obsv query`` can chart self-time series
        across sessions.
        """
        events = []
        for row in self.self_time_rows():
            event = {
                "event": "profile",
                "name": row.path,
                "calls": row.calls,
                "total_s": round(row.total_s, 6),
                "self_s": round(row.self_s, 6),
                "self_mean_us": round(row.self_mean_us, 3),
                "self_frac": round(row.self_frac, 6),
            }
            stats = self.spans.get(row.path, {})
            if "mean_us" in stats:
                event["mean_us"] = stats["mean_us"]
            mem = self.memory.get(row.path)
            if mem:
                event["net_alloc_kb"] = mem["net_total_kb"]
                event["peak_alloc_kb"] = mem["peak_max_kb"]
            flop = self.span_flops.get(row.path)
            if flop:
                event["flops"] = flop["flops"]
                event["mflops_per_s"] = flop["mflops_per_s"]
                event["intensity"] = flop["intensity"]
            events.append(event)
        return events

    def flamegraph_html(self, path: str | Path | None = None) -> str:
        """Render the flamegraph: sampled stacks if any, else span tree."""
        if self.folded:
            meta = (
                f"{self.sampler.get('samples', 0)} samples at "
                f"{self.sampler.get('hz', 0)} Hz over "
                f"{fmt(self.sampler.get('duration_s', 0.0), 1)} s"
            )
            return flamegraph.render_html(
                self.folded, title="repro profile (sampled stacks)",
                unit="samples", meta=meta, path=path,
            )
        meta = (
            f"span self time over {fmt(self.wall_clock_s, 1)} s wall clock"
        )
        return flamegraph.render_html(
            flamegraph.spans_to_folded(self.spans),
            title="repro profile (span self time)",
            unit="seconds", meta=meta, path=path,
        )

    def to_markdown(self, top: int = 15) -> str:
        lines = ["# Profile report", ""]
        coverage = self.coverage()
        lines.append(
            f"Wall clock {fmt(self.wall_clock_s, 2)} s; span tree accounts"
            f" for {fmt(coverage['self_total_s'], 2)} s"
            f" ({fmt(100.0 * coverage['ratio'], 1)}% of wall clock)."
        )
        lines.append("")
        rows = self.self_time_rows()
        if rows:
            lines.append(selftime.to_markdown(rows, top=top))
        if self.span_flops:
            lines += ["## Floating-point work (inclusive per span)", ""]
            table = [
                [
                    f"`{path}`",
                    stats["calls"],
                    fmt(stats["flops"] / 1e9, 3),
                    fmt(stats["mflops_per_s"], 1),
                    fmt(stats["intensity"], 3),
                ]
                for path, stats in list(self.span_flops.items())[:top]
            ]
            lines.extend(
                markdown_table(
                    ["span", "calls", "GFLOP", "MFLOP/s", "FLOP/byte"],
                    table,
                )
            )
            total = self.flops.get("total_flops", 0.0)
            lines.append("")
            lines.append(
                f"Total {fmt(total / 1e9, 3)} GFLOP at overall intensity"
                f" {fmt(self.flops.get('intensity', 0.0), 3)} FLOP/byte."
            )
            lines.append("")
        if self.memory:
            lines += ["## Allocations (tracemalloc, opted-in spans)", ""]
            table = [
                [
                    f"`{path}`",
                    stats["count"],
                    fmt(stats["net_mean_kb"], 1),
                    fmt(stats["net_total_kb"], 1),
                    fmt(stats["peak_max_kb"], 1),
                ]
                for path, stats in list(self.memory.items())[:top]
            ]
            lines.extend(
                markdown_table(
                    ["span", "calls", "net KB/call", "net total KB",
                     "peak KB"],
                    table,
                )
            )
            lines.append("")
        if self.sampler.get("samples"):
            lines.append(
                f"Sampler: {self.sampler['samples']} samples"
                f" ({self.sampler['unique_stacks']} unique stacks) at"
                f" {fmt(self.sampler.get('effective_hz', 0.0), 1)} Hz"
                f" effective (target {fmt(self.sampler.get('hz', 0.0), 1)})."
            )
            lines.append("")
        return "\n".join(lines)

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        """Write the report bundle; returns ``{artifact: path}``.

        * ``PROFILE_report.json`` — full machine-readable report;
        * ``PROFILE_report.md`` — the human summary;
        * ``PROFILE_flamegraph.html`` — self-contained flamegraph;
        * ``PROFILE_events.jsonl`` — schema-checked ``profile`` events
          for store ingestion;
        * ``PROFILE_stacks.folded`` — raw folded stacks (sampler only).
        """
        import json

        from repro.telemetry.trace import TraceWriter

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "report": out / "PROFILE_report.json",
            "markdown": out / "PROFILE_report.md",
            "flamegraph": out / "PROFILE_flamegraph.html",
            "events": out / "PROFILE_events.jsonl",
        }
        paths["report"].write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        paths["markdown"].write_text(self.to_markdown(), encoding="utf-8")
        self.flamegraph_html(path=paths["flamegraph"])
        paths["events"].unlink(missing_ok=True)
        with TraceWriter(paths["events"], validate=True) as writer:
            for event in self.trace_events():
                writer.emit(**event)
        if self.folded:
            paths["stacks"] = out / "PROFILE_stacks.folded"
            paths["stacks"].write_text(
                "".join(
                    f"{stack} {count}\n"
                    for stack, count in sorted(
                        self.folded.items(),
                        key=lambda item: (-item[1], item[0]),
                    )
                ),
                encoding="utf-8",
            )
        return paths


class ProfileSession:
    """Start/stop wrapper around every configured profiling layer.

    ``reset=True`` clears the tracer's aggregates and the FLOP counter
    on start, so the report covers exactly this session (the in-process
    ``obsv profile --demo`` path); ``reset=False`` (default) folds into
    whatever is already being measured.
    """

    def __init__(
        self, config: ProfileConfig | None = None, *,
        tracer: Tracer | None = None, reset: bool = False,
    ) -> None:
        self.config = config or ProfileConfig()
        self.tracer = tracer or get_tracer()
        self.reset = reset
        self.running = False
        self._tracer_was_enabled = False
        self._counter_was_enabled = False
        self._started_tracemalloc = False
        self._t0 = 0.0
        self._sampler: sampler_mod.SamplingProfiler | None = None
        self._mem_probe: MemoryProbe | None = None
        self._flop_probe: FlopSpanProbe | None = None
        self._counter = None

    def start(self) -> "ProfileSession":
        if self.running:
            return self
        self.running = True
        tracer = self.tracer
        self._tracer_was_enabled = tracer.enabled
        if self.reset:
            tracer.reset()
        tracer.enable()
        if self.config.flops:
            from repro.rl.nn.flops import get_flop_counter

            self._counter = get_flop_counter()
            self._counter_was_enabled = self._counter.enabled
            if self.reset:
                self._counter.reset()
            self._counter.enable()
            self._flop_probe = FlopSpanProbe(self._counter)
            tracer.add_probe(self._flop_probe)
        if self.config.mem is not False:
            self._started_tracemalloc = not tracemalloc.is_tracing()
            if self._started_tracemalloc:
                tracemalloc.start()
            mem_filter = (
                self.config.mem if isinstance(self.config.mem, set) else None
            )
            self._mem_probe = MemoryProbe(mem_filter)
            tracer.add_probe(self._mem_probe)
        if self.config.hz > 0:
            self._sampler = sampler_mod.SamplingProfiler(
                hz=self.config.hz, all_threads=self.config.all_threads
            ).start()
        self._t0 = time.perf_counter()
        return self

    def stop(self) -> ProfileReport:
        """Tear everything down and assemble the report."""
        wall = time.perf_counter() - self._t0 if self.running else 0.0
        tracer = self.tracer
        if self._sampler is not None:
            self._sampler.stop()
        if self._flop_probe is not None:
            tracer.remove_probe(self._flop_probe)
        if self._mem_probe is not None:
            tracer.remove_probe(self._mem_probe)
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        if self._counter is not None and not self._counter_was_enabled:
            self._counter.disable()
        if not self._tracer_was_enabled:
            tracer.disable()
        self.running = False
        report = ProfileReport(
            wall_clock_s=wall,
            spans=tracer.snapshot(),
            flops=self._counter.snapshot() if self._counter else {},
            span_flops=(
                self._flop_probe.summary() if self._flop_probe else {}
            ),
            memory=self._mem_probe.summary() if self._mem_probe else {},
            sampler=self._sampler.summary() if self._sampler else {},
            folded=self._sampler.folded() if self._sampler else {},
            config={
                "hz": self.config.hz,
                "mem": (
                    sorted(self.config.mem)
                    if isinstance(self.config.mem, set)
                    else ("all" if self.config.mem is None else "off")
                ),
                "flops": self.config.flops,
            },
        )
        return report

    def peek(self) -> dict:
        """The live ``profile`` section without stopping the session.

        Used by the bench conftest to embed FLOP / allocation figures in
        ``BENCH_telemetry.json`` while the env-installed session keeps
        running to write its own bundle at exit.
        """
        out: dict = {}
        if self._counter is not None:
            out["flops"] = self._counter.snapshot()
        if self._flop_probe is not None:
            out["span_flops"] = self._flop_probe.summary()
        if self._mem_probe is not None:
            out["memory"] = self._mem_probe.summary()
        if self._sampler is not None:
            out["sampler"] = self._sampler.summary()
        return out

    def __enter__(self) -> "ProfileSession":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


_ENV_SESSION: ProfileSession | None = None


def install_from_env(env=None) -> ProfileSession | None:
    """Start a process-wide session when ``REPRO_PROF`` is set.

    ``REPRO_PROF=1`` (or any truthy value) writes the report bundle to
    ``./profile`` at interpreter exit; a path-like value (contains a
    separator or names a directory) is used as the output directory.
    Returns the running session, or None when profiling is off. Called
    once from ``repro/__init__`` — a second call is a no-op.
    """
    global _ENV_SESSION
    env = os.environ if env is None else env
    raw = env.get("REPRO_PROF", "").strip()
    if not _truthy(raw):
        return None
    if _ENV_SESSION is not None:
        return _ENV_SESSION
    out_dir = (
        Path(raw)
        if raw.lower() not in ("1", "true", "yes", "on")
        else Path("profile")
    )
    session = ProfileSession(ProfileConfig.from_env(env))
    session.start()
    _ENV_SESSION = session

    def _finalize() -> None:
        global _ENV_SESSION
        if _ENV_SESSION is None or not _ENV_SESSION.running:
            return
        report = _ENV_SESSION.stop()
        _ENV_SESSION = None
        try:
            report.write(out_dir)
        except OSError:  # pragma: no cover - best-effort at exit
            pass

    atexit.register(_finalize)
    return session


def env_session() -> ProfileSession | None:
    """The session started by :func:`install_from_env`, if any."""
    return _ENV_SESSION
