"""JSONL event traces: per-episode records and per-step training records.

A :class:`TraceWriter` appends one JSON object per event either to a file
or to an in-memory list (``path=None``). The event vocabulary is small and
schema-checked (:func:`validate_event`), so downstream tooling — and the
tier-1 smoke test — can rely on field names and types:

* ``episode_start``  — episode id, seed, victim/attacker names.
* ``episode_end``    — steps, duration, collision kind (or ``null``),
  returns, NPCs passed, and the episode's per-control-step fields as
  columns (``ticks``: tick index, sim time, injected delta, ego pose
  (x, y, yaw, speed), reward terms; see :data:`TICK_COLUMNS`).
* ``train_step``     — per-environment-step training record: loop label,
  step index, reward, done flag, episode index (plus optional loss
  fields).

This is trace format 2 (:data:`TRACE_FORMAT`). Format 1 wrote one
``tick`` record per control step; readers refuse it
(:class:`TraceFormatError`) and never migrate it.

Setting the ``REPRO_TRACE`` environment variable to a path installs a
process-wide default writer that :func:`default_writer` hands to the
episode runner and the training loops, so any entry point emits a trace
without code changes. ``REPRO_RUN_ID`` labels every record a writer
emits with a ``run`` id, which the telemetry store keeps as the run's
label. :func:`decode_lines` is the one line decoder: :func:`read_trace`
reads a whole file through it and ``repro.obsv watch`` the lines a live
file appends.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro import knobs

_NUMBER = (int, float)

#: The trace format this build writes and reads. Format 2 carries an
#: episode's per-tick fields as columns on its ``episode_end`` record;
#: format 1 wrote one ``tick`` record per tick.
TRACE_FORMAT = 2

#: The columns of an ``episode_end`` record's ``ticks`` object, in the
#: order it lists them, with the types one value may take. Every column
#: holds one value per tick of the episode.
TICK_COLUMNS: dict[str, tuple] = {
    "tick": (int,),
    "t": _NUMBER,
    "delta": _NUMBER,
    "x": _NUMBER,
    "y": _NUMBER,
    "yaw": _NUMBER,
    "speed": _NUMBER,
    "reward_nominal": _NUMBER,
    "reward_adversarial": _NUMBER,
    #: Lateral deviation from the reference path, normalized by the lane
    #: width.
    "lateral": _NUMBER,
    #: Center-to-center distance to the nearest NPC, meters.
    "npc_gap": _NUMBER,
    #: Estimated time-to-collision against the nearest NPC from the gap
    #: closing rate, seconds (``null`` on ticks where it is not closing).
    "ttc": _NUMBER,
}

#: Columns that hold a value on every tick; in the others ``null`` marks
#: a tick without that field.
REQUIRED_TICK_COLUMNS = ("tick", "t", "delta", "x", "y", "yaw", "speed")

#: required / optional field -> accepted types, per event kind.
SCHEMAS: dict[str, dict[str, dict[str, tuple]]] = {
    "episode_start": {
        "required": {"episode": (int, str), "seed": (int,)},
        "optional": {
            "victim": (str,),
            "attacker": (str,),
            #: Attack budget epsilon the attacker operates under.
            "budget": _NUMBER,
            #: Scenario fingerprint: "default" for the paper's scenario,
            #: "custom" otherwise (custom scenarios are not replayable
            #: from the trace alone).
            "scenario": (str,),
        },
    },
    "episode_end": {
        "required": {
            "episode": (int, str),
            "steps": (int,),
            "duration": _NUMBER,
        },
        "optional": {
            "collision": (str, type(None)),
            #: Name of the actor the ego collided with ("barrier", "npc_3").
            "collision_with": (str, type(None)),
            "nominal_return": _NUMBER,
            "adversarial_return": _NUMBER,
            "passed_npcs": (int,),
            #: The episode's tick fields as columns (:data:`TICK_COLUMNS`).
            "ticks": (dict,),
        },
    },
    "train_step": {
        "required": {"loop": (str,), "step": (int,)},
        "optional": {
            "reward": _NUMBER,
            "done": (bool,),
            "episode": (int,),
            "episode_return": _NUMBER,
            "critic_loss": _NUMBER,
            "actor_loss": _NUMBER,
            "alpha": _NUMBER,
        },
    },
    "update_health": {
        #: Per-gradient-update learner health record (emitted every
        #: ``health_every`` updates by the SAC training loops). The live
        #: watchdogs (:mod:`repro.obsv.alerts`) key off these fields.
        "required": {"loop": (str,), "step": (int,), "update": (int,)},
        "optional": {
            "critic_loss": _NUMBER,
            "actor_loss": _NUMBER,
            "alpha_loss": _NUMBER,
            "alpha": _NUMBER,
            #: Mean of the Q1 critic's minibatch predictions, and the max
            #: |Q| across both critics (divergence indicator).
            "q_mean": _NUMBER,
            "q_max": _NUMBER,
            #: Policy entropy estimate, ``-mean(log_prob)`` over the batch.
            "entropy": _NUMBER,
            "actor_grad_norm": _NUMBER,
            "critic_grad_norm": _NUMBER,
            "buffer_size": (int,),
            "buffer_capacity": (int,),
            #: Environment steps per wall-clock second since the previous
            #: health record.
            "steps_per_s": _NUMBER,
        },
    },
    "alert": {
        #: A watchdog rule firing (written by ``repro.obsv watch``).
        "required": {"rule": (str,), "severity": (str,), "message": (str,)},
        "optional": {
            "loop": (str,),
            "step": (int,),
            "update": (int,),
            #: The observed value that tripped the rule and its threshold.
            "value": _NUMBER,
            "threshold": _NUMBER,
        },
    },
    "profile": {
        #: One profiled span path (written by ``repro.obsv profile``):
        #: self-time attribution plus optional allocation / FLOP figures.
        #: Ingesting these into the telemetry store lets ``obsv query``
        #: chart per-span self-time series across runs.
        "required": {
            "name": (str,),
            "calls": (int,),
            "total_s": _NUMBER,
            "self_s": _NUMBER,
        },
        "optional": {
            "mean_us": _NUMBER,
            "self_mean_us": _NUMBER,
            #: Share of the session's total self time, 0..1.
            "self_frac": _NUMBER,
            #: Net bytes allocated / peak traced bytes inside the span
            #: (present only for ``REPRO_PROF_MEM`` opted-in spans).
            "net_alloc_kb": _NUMBER,
            "peak_alloc_kb": _NUMBER,
            #: Floating-point work attributed to the span and the achieved
            #: rate over its inclusive wall-clock.
            "flops": _NUMBER,
            "mflops_per_s": _NUMBER,
            #: FLOPs per byte moved (arithmetic intensity).
            "intensity": _NUMBER,
        },
    },
    "provenance": {
        #: What produced this run (written once per trace, before the
        #: first ``episode_start``): git revision, scenario-config hash,
        #: checkpoint checksums, and the ``REPRO_*`` env snapshot. See
        #: :mod:`repro.telemetry.provenance`.
        "required": {
            "schema": (int,),
            "git_sha": (str,),
            "git_dirty": (bool,),
            "config_hash": (str,),
        },
        "optional": {
            #: Checkpoint name -> ``sha256:...`` content checksum.
            "weights": (dict,),
            #: ``REPRO_*`` environment variables at collection time.
            "env": (dict,),
            "python": (str,),
            "numpy": (str,),
        },
    },
}


#: Environment variable naming the run a writer labels its records with.
ENV_RUN_ID = "REPRO_RUN_ID"

# The run label is accepted, and type-checked, on every event kind.
for _schema in SCHEMAS.values():
    _schema["optional"]["run"] = (str,)
del _schema


class TraceFormatError(ValueError):
    """A trace written in a format this build does not read."""


def format_1_error(where: str) -> TraceFormatError:
    """The refusal of a format-1 ``tick`` record found at ``where``."""
    return TraceFormatError(
        f"{where}: a 'tick' record, so this is trace format 1; this build"
        f" reads trace format {TRACE_FORMAT}, where each episode_end"
        " carries its ticks as columns. Format-1 traces are not migrated:"
        " record the run again."
    )


def _tick_column_errors(ticks: dict, steps: object) -> list[str]:
    """Schema errors of an ``episode_end`` record's ``ticks`` columns.

    Every value is type-checked, one pass per column over the types it
    holds. Columns not in :data:`TICK_COLUMNS` are allowed (forward
    compatibility) but must be lists of the same length.
    """
    errors = []
    lengths = set()
    for name, column in ticks.items():
        if not isinstance(column, list):
            errors.append(
                f"episode_end: ticks column {name!r} is a"
                f" {type(column).__name__}, expected a list"
            )
            continue
        lengths.add(len(column))
        types = TICK_COLUMNS.get(name)
        if types is None:
            continue
        if name not in REQUIRED_TICK_COLUMNS:
            types = (*types, type(None))
        bad = sorted(
            found.__name__
            for found in set(map(type, column))
            if (found is bool and bool not in types)
            or not issubclass(found, types)
        )
        if bad:
            errors.append(
                f"episode_end: ticks column {name!r} holds {', '.join(bad)},"
                f" expected one of {tuple(t.__name__ for t in types)}"
            )
    missing = [name for name in REQUIRED_TICK_COLUMNS if name not in ticks]
    if missing:
        errors.append(f"episode_end: ticks lacks column(s) {missing}")
    if len(lengths) > 1:
        errors.append(
            f"episode_end: ticks columns differ in length {sorted(lengths)}"
        )
    elif isinstance(steps, int) and lengths and lengths != {steps}:
        errors.append(
            f"episode_end: ticks columns hold {lengths.pop()} values,"
            f" steps is {steps}"
        )
    return errors


def validate_event(event: object) -> list[str]:
    """Schema errors for one decoded event (empty list = valid).

    Unknown extra fields are allowed (forward compatibility); unknown
    event kinds, missing required fields, and wrong field types are not.
    An ``episode_end`` record's ``ticks`` columns are checked value by
    value.
    """
    if not isinstance(event, dict):
        return [f"event must be an object, got {type(event).__name__}"]
    kind = event.get("event")
    if kind not in SCHEMAS:
        return [f"unknown event kind {kind!r}"]
    errors = []
    schema = SCHEMAS[kind]
    for field, types in schema["required"].items():
        if field not in event:
            errors.append(f"{kind}: missing required field {field!r}")
        elif not isinstance(event[field], types) or (
            # bool is an int subclass; reject it where a number is expected.
            isinstance(event[field], bool) and bool not in types
        ):
            errors.append(
                f"{kind}: field {field!r} has type "
                f"{type(event[field]).__name__}, expected one of "
                f"{tuple(t.__name__ for t in types)}"
            )
    for field, types in schema["optional"].items():
        if field in event and (
            not isinstance(event[field], types)
            or (isinstance(event[field], bool) and bool not in types)
        ):
            errors.append(
                f"{kind}: field {field!r} has type "
                f"{type(event[field]).__name__}, expected one of "
                f"{tuple(t.__name__ for t in types)}"
            )
    ticks = event.get("ticks")
    if kind == "episode_end" and isinstance(ticks, dict):
        errors += _tick_column_errors(ticks, event.get("steps"))
    return errors


def count_invalid_event() -> None:
    """Count one record a reader dropped because :func:`validate_event`
    rejected it, in ``trace_invalid_events_total``. Every reader that
    drops records calls it: the telemetry store's ingest, non-strict
    ``load_episodes`` and ``obsv watch``."""
    from repro.telemetry.metrics import get_registry

    get_registry().counter("trace_invalid_events_total").inc()


def validate_trace(source: str | Path | Iterable[dict]) -> list[str]:
    """Validate a JSONL file (path) or an iterable of decoded events.

    A format-1 trace raises :class:`TraceFormatError`.
    """
    if isinstance(source, (str, Path)):
        events: Iterable = read_trace(source)
    else:
        events = source
    errors: list[str] = []
    for index, event in enumerate(events):
        if isinstance(event, dict) and event.get("event") == "tick":
            raise format_1_error(f"event {index}")
        for error in validate_event(event):
            errors.append(f"event {index}: {error}")
    return errors


def tick_columns(columns: dict) -> dict[str, list]:
    """The ``ticks`` object of an ``episode_end`` record.

    ``columns`` maps :data:`TICK_COLUMNS` names to one sequence or numpy
    array per field, one value per tick. The result lists them in
    :data:`TICK_COLUMNS` order as plain lists. In a column outside
    :data:`REQUIRED_TICK_COLUMNS` a ``None`` or NaN marks a tick without
    that field and is written as ``null``; such a column with no value
    on any tick is left out.
    """
    unknown = set(columns) - set(TICK_COLUMNS)
    if unknown:
        raise ValueError(f"unknown tick columns {sorted(unknown)}")
    ticks = {}
    for name in TICK_COLUMNS:
        if name not in columns:
            continue
        column = columns[name]
        values = column.tolist() if hasattr(column, "tolist") else list(column)
        if name not in REQUIRED_TICK_COLUMNS:
            values = [None if v is None or v != v else v for v in values]
            if values.count(None) == len(values):
                continue
        ticks[name] = values
    return ticks


def _json_default(value):
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


class TraceWriter:
    """Appends JSONL events to a file, stream, or in-memory list."""

    def __init__(
        self,
        path: str | Path | IO[str] | None = None,
        validate: bool = False,
    ) -> None:
        """``path=None`` keeps events in ``self.events`` (tests, tooling);
        ``validate=True`` schema-checks each event at emit time.

        ``REPRO_RUN_ID``, read here, labels every record as ``run`` (a
        field the caller passes wins); unset, records carry no label.
        """
        self.validate = validate
        self.run = knobs.get(ENV_RUN_ID)
        self.events: list[dict] = []
        self._own_handle = False
        self._handle: IO[str] | None = None
        if path is None:
            pass
        elif hasattr(path, "write"):
            self._handle = path  # caller-owned stream
        else:
            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            self._handle = target.open("a", encoding="utf-8")
            self._own_handle = True
        self.count = 0

    def emit(self, event: str, **fields) -> dict:
        """Write one event; returns the record that was emitted."""
        record = {"event": event, **fields}
        if self.run is not None:
            record.setdefault("run", self.run)
        if self.validate:
            errors = validate_event(json.loads(self._dumps(record)))
            if errors:
                raise ValueError("; ".join(errors))
        if self._handle is not None:
            self._handle.write(self._dumps(record) + "\n")
        else:
            self.events.append(record)
        self.count += 1
        return record

    @staticmethod
    def _dumps(record: dict) -> str:
        return json.dumps(record, separators=(",", ":"), default=_json_default)

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self._own_handle:
                self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_trace(path: str | Path, strict: bool = False) -> list[dict]:
    """Decode a JSONL trace file into a list of event dicts.

    Undecodable lines — the torn trailing line a crash mid-append leaves
    behind, or any other garbage — are skipped with a warning and counted
    in the ``trace_torn_lines_total`` metric, so post-mortem tooling can
    read the trace of the very crash it is investigating. ``strict=True``
    restores the raise-on-garbage behaviour. A format-1 ``tick`` record
    raises :class:`TraceFormatError`, strict or not.
    """
    return [event for event, _ in iter_trace(path, strict)]


def iter_trace(
    path: str | Path, strict: bool = False
) -> Iterator[tuple[object, str]]:
    """:func:`read_trace` as ``(event, line)`` pairs, ``line`` being the
    stripped text the event was decoded from."""
    with Path(path).open("r", encoding="utf-8") as handle:
        yield from decode_lines(handle, path, strict)


def decode_lines(
    lines: Iterable[str],
    source: str | Path,
    strict: bool = False,
    first: int = 1,
) -> Iterator[tuple[object, str]]:
    """Decode the JSONL ``lines`` of the trace ``source`` into
    ``(event, line)`` pairs; ``first`` is the number of the first line.

    Blank lines are skipped. An undecodable line is skipped with a
    ``trace.torn_line`` warning and counted in ``trace_torn_lines_total``
    (raised with ``strict=True``); a format-1 ``tick`` record raises
    :class:`TraceFormatError`.
    """
    for lineno, line in enumerate(lines, start=first):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            if strict:
                raise
            from repro.telemetry.log import get_logger
            from repro.telemetry.metrics import get_registry

            get_logger("telemetry.trace").warning(
                "trace.torn_line", path=str(source), line=lineno,
                error=str(error),
            )
            get_registry().counter("trace_torn_lines_total").inc()
            continue
        if isinstance(event, dict) and event.get("event") == "tick":
            raise format_1_error(f"{source}, line {lineno}")
        yield event, line


_DEFAULT_WRITER: TraceWriter | None = None
_DEFAULT_CHECKED = False


def default_writer() -> TraceWriter | None:
    """The process-wide writer installed via ``REPRO_TRACE`` (else None).

    The environment variable is read once; call :func:`reset_default_writer`
    to re-read it (tests).
    """
    global _DEFAULT_WRITER, _DEFAULT_CHECKED
    if not _DEFAULT_CHECKED:
        _DEFAULT_CHECKED = True
        target = knobs.get("REPRO_TRACE")
        if target:
            _DEFAULT_WRITER = TraceWriter(target)
    return _DEFAULT_WRITER


def reset_default_writer() -> None:
    """Close and forget the env-installed writer (re-reads env next call)."""
    global _DEFAULT_WRITER, _DEFAULT_CHECKED
    if _DEFAULT_WRITER is not None:
        _DEFAULT_WRITER.close()
    _DEFAULT_WRITER = None
    _DEFAULT_CHECKED = False
