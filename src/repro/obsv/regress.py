"""Regression watch over ``BENCH_telemetry.json`` snapshots.

``benchmarks/conftest.py`` writes one machine-readable perf snapshot per
bench session; committing one as a baseline makes the perf history
*enforceable*: :func:`compare_snapshots` flags wall-clock blow-ups,
per-span mean- and **self**-latency regressions (schema-2 snapshots carry
``self_mean_us`` from the tracer's child bookkeeping — a span that got
slower *itself* is flagged even when a fast child makes its inclusive
mean look fine), per-span allocation growth (when both snapshots carry a
``profile.memory`` section from ``REPRO_PROF_MEM``), and correctness
drift (collision counters appearing where the baseline had none). The
CLI (``python -m repro.obsv regress current baseline``) exits nonzero on
any breach; ``--json`` emits the machine-readable breach report for CI.

Thresholds are ratios, not absolutes — bench machines differ — and spans
with very few calls are skipped as noise. The default ratio can be set
via ``REPRO_OBSV_MAX_RATIO`` (a finite number > 0; anything else raises).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass


def check_ratio(value: object, knob: str) -> float:
    """``value`` as a breach ratio: a finite number > 0.

    Raises ``ValueError`` naming ``knob`` and the value otherwise (a NaN
    ratio would switch every ratio gate off: nothing is above it).
    """
    try:
        ratio = float(value)
    except (TypeError, ValueError):
        ratio = math.nan
    if not (math.isfinite(ratio) and ratio > 0):
        raise ValueError(f"{knob} must be a finite number > 0, got {value!r}")
    return ratio


def _env_ratio(default: float = 1.5) -> float:
    raw = os.environ.get("REPRO_OBSV_MAX_RATIO", "")
    return check_ratio(raw, "REPRO_OBSV_MAX_RATIO") if raw.strip() else default


@dataclass(frozen=True)
class RegressionThresholds:
    """What counts as a breach when comparing two bench snapshots."""

    #: Current/baseline session wall-clock ratio above which we fail.
    wall_clock_ratio: float = 1.5
    #: Current/baseline per-span mean-latency ratio above which we fail.
    span_mean_ratio: float = 1.5
    #: Current/baseline per-span *self*-latency ratio (schema-2 snapshots
    #: only; skipped when either side lacks ``self_mean_us``).
    span_self_ratio: float = 1.5
    #: Spans with fewer calls than this (in either snapshot) are noise.
    span_min_calls: int = 20
    #: Per-span allocation growth (``profile.memory`` sections, present
    #: when the snapshot was taken under ``REPRO_PROF_MEM``): fail when
    #: net KB/call or peak KB grew by more than this factor.
    alloc_ratio: float = 2.0
    #: Allocation figures below this (KB) are noise, never a breach.
    alloc_min_kb: float = 64.0
    #: Fail when a counter matching one of these prefixes grew by more
    #: than this factor (guards e.g. collision-rate drift, not just perf).
    counter_prefixes: tuple[str, ...] = ("collisions_total",)
    counter_ratio: float = 2.0

    @classmethod
    def from_env(cls) -> "RegressionThresholds":
        ratio = _env_ratio()
        return cls(
            wall_clock_ratio=ratio,
            span_mean_ratio=ratio,
            span_self_ratio=ratio,
        )


@dataclass(frozen=True)
class Breach:
    """One threshold violation."""

    kind: str  # "wall_clock" | "span" | "span_self" | "alloc" | "counter"
    name: str
    baseline: float
    current: float
    limit: float
    #: The compared metric ("wall_clock_s", "mean_us", "self_mean_us",
    #: "net_mean_kb", "peak_max_kb", counter name, ...).
    metric: str = ""

    @property
    def ratio(self) -> float:
        return (
            self.current / self.baseline if self.baseline else float("inf")
        )

    def __str__(self) -> str:
        metric = f" [{self.metric}]" if self.metric else ""
        return (
            f"{self.kind} {self.name}{metric}:"
            f" {self.baseline:g} -> {self.current:g}"
            f" (x{self.ratio:.2f}, limit x{self.limit:g})"
        )

    def to_json(self) -> dict:
        """One machine-readable breach row (the ``--json`` report)."""
        ratio = self.ratio
        return {
            "kind": self.kind,
            "span": self.name,
            "metric": self.metric or self.kind,
            "baseline": self.baseline,
            "current": self.current,
            "ratio": round(ratio, 4) if ratio != float("inf") else None,
            "threshold": self.limit,
        }


def compare_snapshots(
    current: dict,
    baseline: dict,
    thresholds: RegressionThresholds | None = None,
) -> list[Breach]:
    """All threshold breaches of ``current`` against ``baseline``."""
    thresholds = thresholds or RegressionThresholds.from_env()
    breaches: list[Breach] = []

    base_wall = float(baseline.get("wall_clock_s", 0.0))
    cur_wall = float(current.get("wall_clock_s", 0.0))
    if base_wall > 0.0 and cur_wall > base_wall * thresholds.wall_clock_ratio:
        breaches.append(
            Breach(
                "wall_clock", "wall_clock_s", base_wall, cur_wall,
                thresholds.wall_clock_ratio, metric="wall_clock_s",
            )
        )

    base_spans = baseline.get("spans", {})
    for name, cur_stats in current.get("spans", {}).items():
        base_stats = base_spans.get(name)
        if base_stats is None:
            continue
        if (
            int(cur_stats.get("count", 0)) < thresholds.span_min_calls
            or int(base_stats.get("count", 0)) < thresholds.span_min_calls
        ):
            continue
        base_mean = float(base_stats.get("mean_us", 0.0))
        cur_mean = float(cur_stats.get("mean_us", 0.0))
        if base_mean > 0.0 and cur_mean > base_mean * thresholds.span_mean_ratio:
            breaches.append(
                Breach(
                    "span", name, base_mean, cur_mean,
                    thresholds.span_mean_ratio, metric="mean_us",
                )
            )
        # Self-time budget (schema 2): a span slowed down in its *own*
        # frame even if cheaper children keep the inclusive mean flat.
        if "self_mean_us" in base_stats and "self_mean_us" in cur_stats:
            base_self = float(base_stats["self_mean_us"])
            cur_self = float(cur_stats["self_mean_us"])
            if (
                base_self > 0.0
                and cur_self > base_self * thresholds.span_self_ratio
            ):
                breaches.append(
                    Breach(
                        "span_self", name, base_self, cur_self,
                        thresholds.span_self_ratio, metric="self_mean_us",
                    )
                )

    base_memory = baseline.get("profile", {}).get("memory", {})
    for name, cur_mem in current.get("profile", {}).get("memory", {}).items():
        base_mem = base_memory.get(name)
        if base_mem is None:
            continue
        for metric in ("net_mean_kb", "peak_max_kb"):
            base_value = float(base_mem.get(metric, 0.0))
            cur_value = float(cur_mem.get(metric, 0.0))
            if (
                base_value >= thresholds.alloc_min_kb
                and cur_value > base_value * thresholds.alloc_ratio
            ):
                breaches.append(
                    Breach(
                        "alloc", name, base_value, cur_value,
                        thresholds.alloc_ratio, metric=metric,
                    )
                )

    base_counters = baseline.get("metrics", {}).get("counters", {})
    for name, value in current.get("metrics", {}).get("counters", {}).items():
        if not any(name.startswith(p) for p in thresholds.counter_prefixes):
            continue
        base_value = float(base_counters.get(name, 0.0))
        value = float(value)
        if base_value == 0.0:
            # A watched counter appearing from nothing is always a breach.
            if value > 0.0:
                breaches.append(
                    Breach(
                        "counter", name, base_value, value,
                        thresholds.counter_ratio, metric=name,
                    )
                )
        elif value > base_value * thresholds.counter_ratio:
            breaches.append(
                Breach(
                    "counter", name, base_value, value,
                    thresholds.counter_ratio, metric=name,
                )
            )
    return breaches


def report(breaches: list[Breach]) -> str:
    """Human-readable verdict for the CLI."""
    if not breaches:
        return "regress: OK — no threshold breaches\n"
    lines = [f"regress: {len(breaches)} breach(es)"]
    lines.extend(f"  BREACH {b}" for b in breaches)
    return "\n".join(lines) + "\n"


def report_json(breaches: list[Breach]) -> str:
    """Machine-readable verdict (``regress --json``): always a JSON
    object with ``ok`` and the ``breaches`` array, one row per breach."""
    payload = {
        "ok": not breaches,
        "breach_count": len(breaches),
        "breaches": [b.to_json() for b in breaches],
    }
    return json.dumps(payload, indent=2) + "\n"
