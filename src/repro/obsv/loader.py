"""Load JSONL traces and group their events into episodes.

A trace file may interleave events from many episodes (``run_episodes``
stamps consecutive seeds as episode ids) plus non-episode events
(``train_step``, ``alert``); :func:`split_episodes` keeps only the episode
vocabulary and buckets it by episode id. It is the one reader of the
trace-format-2 tick layout: each ``episode_end`` carries its episode's
tick fields as columns, which it expands into one dict per tick, in
tick order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.telemetry.trace import (
    count_invalid_event,
    format_1_error,
    read_trace,
    validate_event,
)


@dataclass
class EpisodeTrace:
    """One recorded episode: its start and end records and its ticks.

    ``ticks`` holds one dict per tick, the fields of that tick plus the
    ``event`` kind ``"tick"``, the ``episode`` id and the ``run`` label
    of the end record; a tick without a field (a ``null`` in its column)
    lacks the key. ``end`` is the ``episode_end`` record without its
    ``ticks`` columns.
    """

    episode: int | str
    start: dict | None = None
    ticks: list[dict] = field(default_factory=list)
    end: dict | None = None

    @property
    def seed(self) -> int | None:
        return None if self.start is None else self.start.get("seed")

    @property
    def victim(self) -> str:
        return "" if self.start is None else str(self.start.get("victim", ""))

    @property
    def attacker(self) -> str:
        return "" if self.start is None else str(self.start.get("attacker", ""))

    @property
    def budget(self) -> float | None:
        if self.start is None or "budget" not in self.start:
            return None
        return float(self.start["budget"])

    @property
    def scenario(self) -> str:
        # Traces predating the scenario field are assumed replayable.
        if self.start is None:
            return "unknown"
        return str(self.start.get("scenario", "default"))

    @property
    def collision(self) -> str | None:
        return None if self.end is None else self.end.get("collision")

    @property
    def complete(self) -> bool:
        """Start and end present with at least one tick in between."""
        return (
            self.start is not None and self.end is not None and bool(self.ticks)
        )

    def deltas(self) -> list[float]:
        """Per-tick injected |delta| magnitudes."""
        return [abs(float(t["delta"])) for t in self.ticks]

    def series(self, fld: str) -> list[float]:
        """One tick field over time, skipping ticks where it is absent."""
        return [float(t[fld]) for t in self.ticks if fld in t]


def tick_count(end: dict) -> int:
    """How many ticks an ``episode_end`` record carries."""
    columns = end.get("ticks") or {}
    return len(next(iter(columns.values()), ()))


def episode_ticks(end: dict) -> list[dict]:
    """An ``episode_end`` record's tick columns as one dict per tick
    (the :attr:`EpisodeTrace.ticks` layout)."""
    columns = end.get("ticks") or {}
    names = list(columns)
    sparse = [name for name, values in columns.items() if None in values]
    base = {"event": "tick", "episode": end.get("episode")}
    run = end.get("run")
    ticks = []
    for values in zip(*columns.values()):
        tick = dict(base)
        tick.update(zip(names, values))
        for name in sparse:
            if tick[name] is None:
                del tick[name]
        if run is not None:
            tick["run"] = run
        ticks.append(tick)
    return ticks


def split_episodes(events: Iterable[dict]) -> list[EpisodeTrace]:
    """Group decoded trace events into per-episode buckets.

    Episodes are returned in order of first appearance. Events that carry
    no episode id (``train_step``, ``alert``) are dropped. Episode ids may
    repeat within one file (e.g. several ``run_episodes`` sweeps sharing a
    seed): a fresh ``episode_start`` for an id that already has one opens a
    new bucket rather than merging two distinct episodes. A format-1
    ``tick`` record raises :class:`~repro.telemetry.trace.TraceFormatError`.
    """
    episodes: list[EpisodeTrace] = []
    open_buckets: dict[object, EpisodeTrace] = {}
    for index, event in enumerate(events):
        kind = event.get("event")
        if kind not in ("episode_start", "episode_end"):
            if kind == "tick":
                raise format_1_error(f"event {index}")
            continue
        key = event.get("episode")
        bucket = open_buckets.get(key)
        if bucket is None or (kind == "episode_start" and bucket.start is not None):
            bucket = open_buckets[key] = EpisodeTrace(episode=key)
            episodes.append(bucket)
        if kind == "episode_start":
            bucket.start = event
        else:
            bucket.ticks = episode_ticks(event)
            bucket.end = {k: v for k, v in event.items() if k != "ticks"}
    return episodes


def load_episodes(
    path: str | Path, strict: bool = False
) -> list[EpisodeTrace]:
    """Read a JSONL trace file into :class:`EpisodeTrace` buckets.

    ``strict=True`` raises on the first schema-invalid event; by default
    invalid events are skipped, and counted in
    ``trace_invalid_events_total``, so a partially corrupt trace still
    loads.
    A format-1 trace raises
    :class:`~repro.telemetry.trace.TraceFormatError` either way.
    """
    events = []
    for index, event in enumerate(read_trace(path)):
        errors = validate_event(event)
        if errors:
            if strict:
                raise ValueError(f"event {index}: " + "; ".join(errors))
            count_invalid_event()
            continue
        events.append(event)
    return split_episodes(events)


def select_episode(
    episodes: list[EpisodeTrace], episode_id: str | None = None
) -> EpisodeTrace:
    """Pick one episode by id (string-compared), or the first complete one."""
    if episode_id is not None:
        for episode in episodes:
            if str(episode.episode) == str(episode_id):
                return episode
        raise KeyError(f"episode {episode_id!r} not found in trace")
    for episode in episodes:
        if episode.complete:
            return episode
    if episodes:
        return episodes[0]
    raise ValueError("trace contains no episode events")
