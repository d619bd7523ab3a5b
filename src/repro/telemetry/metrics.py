"""Process-wide metrics: counters, gauges, and numpy-backed histograms.

A :class:`MetricsRegistry` holds metric families keyed by name; each family
holds children keyed by their label set, so e.g. collision counts can be
split by :class:`~repro.sim.collision.CollisionKind`:

    get_registry().counter("collisions_total", kind="SIDE").inc()

``snapshot()`` flattens everything into a plain JSON-serializable dict
(keys rendered as ``name{k=v,...}``) and ``to_json`` exports it.  All
operations are O(1) dict lookups plus scalar arithmetic — cheap enough to
leave permanently enabled — and never touch an RNG.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

_PERCENTILES = (50.0, 90.0, 99.0)

#: Environment cap on stored histogram samples (0 / unset = unlimited).
_HIST_CAP_ENV = "REPRO_HIST_MAX_SAMPLES"


def _env_hist_cap() -> int:
    raw = os.environ.get(_HIST_CAP_ENV, "").strip()
    if not raw:
        return 0
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(
            f"{_HIST_CAP_ENV} must be a non-negative integer, got {raw!r}"
        )
    return cap


def _label_key(labels: dict[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class Counter:
    """A monotonically increasing scalar."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ValueError("counters only increase; use a gauge")
        self.value += amount


class Gauge:
    """A scalar that can move both ways (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Exact-value histogram in a growable numpy buffer, optionally capped.

    By default every observation is stored (float64, doubling growth) so
    the snapshot can report exact percentiles; intended for per-episode /
    per-update cadences, not per-physics-substep firehoses. Setting
    ``max_samples`` (or the ``REPRO_HIST_MAX_SAMPLES`` environment
    variable) bounds memory: beyond the cap the buffer switches to
    reservoir sampling (Algorithm R) driven by a private fixed-seed LCG,
    so the sample — and therefore every snapshot — stays deterministic
    for a given observation sequence and never touches the global RNG.
    """

    __slots__ = ("_data", "_size", "_seen", "_cap", "_lcg", "_sum", "_min",
                 "_max")

    #: splitmix64 golden-gamma seed for the private reservoir LCG.
    _LCG_SEED = 0x9E3779B97F4A7C15

    def __init__(
        self, initial_capacity: int = 256, max_samples: int | None = None
    ) -> None:
        self._cap = (
            _env_hist_cap() if max_samples is None else max(int(max_samples), 0)
        )
        capacity = max(int(initial_capacity), 1)
        if self._cap:
            capacity = min(capacity, self._cap)
        self._data = np.empty(capacity, dtype=np.float64)
        self._size = 0
        self._seen = 0
        self._lcg = self._LCG_SEED
        # Exact running moments, so a capped histogram still reports true
        # count/sum/min/max (only percentiles come from the reservoir).
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self._seen += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if self._cap and self._size >= self._cap:
            # Deterministic Algorithm R: keep each of the `seen` values
            # with probability cap/seen.
            self._lcg = (
                self._lcg * 6364136223846793005 + 1442695040888963407
            ) & 0xFFFFFFFFFFFFFFFF
            slot = self._lcg % self._seen
            if slot < self._cap:
                self._data[slot] = value
            return
        if self._size == len(self._data):
            grown_len = len(self._data) * 2
            if self._cap:
                grown_len = min(grown_len, self._cap)
            grown = np.empty(grown_len, dtype=np.float64)
            grown[: self._size] = self._data
            self._data = grown
        self._data[self._size] = value
        self._size += 1

    @property
    def count(self) -> int:
        """Total observations seen (not the stored-sample size)."""
        return self._seen

    @property
    def sample_size(self) -> int:
        """Observations currently stored (== ``count`` unless capped)."""
        return self._size

    @property
    def values(self) -> np.ndarray:
        """A copy of the stored observations, in buffer order."""
        return self._data[: self._size].copy()

    def summary(self) -> dict[str, float]:
        if self._seen == 0:
            return {"count": 0}
        data = self._data[: self._size]
        if self._size == self._seen:
            # Uncapped (or under the cap): exact stats from the buffer,
            # bit-identical to the historical unbounded behaviour.
            stats = {
                "count": int(self._size),
                "sum": float(data.sum()),
                "mean": float(data.mean()),
                "min": float(data.min()),
                "max": float(data.max()),
            }
        else:
            stats = {
                "count": int(self._seen),
                "sum": self._sum,
                "mean": self._sum / self._seen,
                "min": self._min,
                "max": self._max,
                #: Reservoir size backing the (estimated) percentiles.
                "samples": int(self._size),
            }
        for pct, val in zip(_PERCENTILES, np.percentile(data, _PERCENTILES)):
            stats[f"p{pct:g}"] = float(val)
        return stats


class MetricsRegistry:
    """Get-or-create store of labelled counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, dict[tuple, Counter]] = {}
        self._gauges: dict[str, dict[tuple, Gauge]] = {}
        self._histograms: dict[str, dict[tuple, Histogram]] = {}

    def _child(self, table: dict, name: str, labels: dict, factory):
        family = table.get(name)
        if family is None:
            family = table[name] = {}
        key = _label_key(labels)
        child = family.get(key)
        if child is None:
            child = family[key] = factory()
        return child

    def counter(self, name: str, **labels) -> Counter:
        return self._child(self._counters, name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._child(self._gauges, name, labels, Gauge)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._child(self._histograms, name, labels, Histogram)

    def reset(self) -> None:
        """Drop every metric (tests and fresh report runs)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def snapshot(self) -> dict[str, dict]:
        """Everything as a flat, JSON-serializable dict."""
        counters = {
            _render_key(name, key): child.value
            for name, family in sorted(self._counters.items())
            for key, child in sorted(family.items())
        }
        gauges = {
            _render_key(name, key): child.value
            for name, family in sorted(self._gauges.items())
            for key, child in sorted(family.items())
        }
        histograms = {
            _render_key(name, key): child.summary()
            for name, family in sorted(self._histograms.items())
            for key, child in sorted(family.items())
        }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self, path: str | Path | None = None, indent: int = 2) -> str:
        """The snapshot as JSON text; also written to ``path`` if given."""
        text = json.dumps(self.snapshot(), indent=indent, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY
