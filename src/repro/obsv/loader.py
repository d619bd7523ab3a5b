"""Load JSONL traces and group their events into episodes.

A trace file may interleave events from many episodes (``run_episodes``
stamps consecutive seeds as episode ids) plus non-episode events
(``train_step``, ``alert``); :func:`split_episodes` keeps only the episode
vocabulary and buckets it by episode id. It is the one reader of the
trace-format-2 tick layout: each ``episode_end`` carries its episode's
tick fields as columns, which an :class:`EpisodeTrace` keeps as they
were decoded, behind the :class:`Ticks` view.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import eq
from pathlib import Path
from typing import Iterable

from repro.telemetry.trace import (
    count_invalid_event,
    format_1_error,
    read_trace,
    validate_event,
)


class Ticks(Sequence):
    """An ``episode_end`` record's tick columns, read as one dict per tick.

    The columns are kept as decoded. Indexing or iterating builds a
    tick's dict: the fields of that tick plus the ``event`` kind
    ``"tick"``, the ``episode`` id and the ``run`` label of the end
    record; a tick without a field (a ``null`` in its column) lacks the
    key. A slice is a view of the same ticks; :meth:`column` reads one
    field over every tick without building any dict.
    """

    __slots__ = ("columns", "_episode", "_run", "_len")

    def __init__(
        self,
        columns: dict[str, list] | None = None,
        episode: int | str | None = None,
        run: str | None = None,
    ) -> None:
        self.columns = columns or {}
        self._episode, self._run = episode, run
        self._len = len(next(iter(self.columns.values()), ()))

    @classmethod
    def of(cls, end: dict) -> "Ticks":
        """The ticks an ``episode_end`` record carries."""
        return cls(end.get("ticks"), end.get("episode"), end.get("run"))

    def column(self, name: str) -> list:
        """One tick field over every tick, ``None`` where a tick lacks it."""
        return self.columns.get(name) or [None] * self._len

    def series(self, name: str) -> list[float]:
        """One tick field over the ticks that hold it."""
        return [float(v) for v in self.column(name) if v is not None]

    def _row(self, index: int) -> dict:
        tick = {"event": "tick", "episode": self._episode}
        for name, values in self.columns.items():
            tick[name] = values[index]
            if tick[name] is None:
                del tick[name]
        if self._run is not None:
            tick["run"] = self._run
        return tick

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            columns = {name: c[index] for name, c in self.columns.items()}
            return Ticks(columns, self._episode, self._run)
        if not -self._len <= index < self._len:
            raise IndexError("tick index out of range")
        return self._row(index)

    def __iter__(self):
        return map(self._row, range(self._len))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class EpisodeTrace:
    """One recorded episode: its start and end records and its ticks.

    ``ticks`` is the :class:`Ticks` view of the end record's columns.
    ``end`` is the ``episode_end`` record without its ``ticks`` columns.
    """

    episode: int | str
    start: dict | None = None
    ticks: Ticks = field(default_factory=Ticks)
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
        return [abs(float(d)) for d in self.ticks.column("delta")]

    def series(self, fld: str) -> list[float]:
        """One tick field over time, skipping ticks where it is absent."""
        return self.ticks.series(fld)


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
            bucket.ticks = Ticks.of(event)
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
