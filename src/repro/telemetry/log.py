"""Structured logging built on the stdlib ``logging`` package.

Every module gets a child of the single ``repro`` root logger via
:func:`get_logger`; log calls name an *event* plus keyword fields, and the
installed formatter renders them either as ``key=value`` text (default) or
as one JSON object per line.

Environment switches (read once, at first use):

* ``REPRO_LOG_LEVEL`` — ``debug`` / ``info`` / ``warning`` / ``error``
  (default ``info``; any other value raises ``ValueError``).
* ``REPRO_LOG_JSON`` — an on/off knob (:func:`repro.knobs.env_flag`);
  on switches to JSON-lines output.

Disabled levels cost one ``isEnabledFor`` check — field rendering is never
performed for suppressed records.
"""

from __future__ import annotations

import json
import logging
import os
import sys

from repro.knobs import env_flag

ROOT_NAME = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "warn": logging.WARNING,
    "error": logging.ERROR,
}

_configured = False


def _render_value(value: object) -> str:
    """One field value as compact text (floats trimmed, strings quoted)."""
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, str):
        return json.dumps(value) if (" " in value or "=" in value) else value
    return str(value)


def _json_safe(value: object) -> object:
    """Coerce numpy scalars and other odd types for ``json.dumps``."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


class KeyValueFormatter(logging.Formatter):
    """``HH:MM:SS level logger event key=value ...`` lines."""

    def format(self, record: logging.LogRecord) -> str:
        fields: dict = getattr(record, "fields", None) or {}
        parts = [
            self.formatTime(record, "%H:%M:%S"),
            record.levelname.lower(),
            record.name,
            record.getMessage(),
        ]
        parts.extend(f"{key}={_render_value(val)}" for key, val in fields.items())
        return " ".join(parts)


class JsonFormatter(logging.Formatter):
    """One JSON object per record: ts, level, logger, event, then fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        payload.update(getattr(record, "fields", None) or {})
        return json.dumps(payload, default=_json_safe)


def configure(
    level: str | int | None = None,
    json_lines: bool | None = None,
    stream=None,
    force: bool = False,
) -> logging.Logger:
    """Install the repro handler/formatter once (idempotent).

    Explicit arguments override the ``REPRO_LOG_LEVEL`` / ``REPRO_LOG_JSON``
    environment switches; ``force=True`` replaces an existing handler (used
    by tests to re-point the stream).
    """
    global _configured
    root = logging.getLogger(ROOT_NAME)
    if _configured and not force:
        return root
    knob = "level"
    if level is None:
        knob = "REPRO_LOG_LEVEL"
        level = os.environ.get(knob, "").strip() or "info"
    if isinstance(level, str):
        name = level.strip().lower()
        if name not in _LEVELS:
            raise ValueError(
                f"{knob} must be one of {', '.join(_LEVELS)}, got {level!r}"
            )
        level = _LEVELS[name]
    if json_lines is None:
        json_lines = env_flag("REPRO_LOG_JSON")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(JsonFormatter() if json_lines else KeyValueFormatter())
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    _configured = True
    return root


class StructuredLogger:
    """A thin event+fields façade over one stdlib logger."""

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    @property
    def name(self) -> str:
        return self._logger.name

    def isEnabledFor(self, level: int) -> bool:
        return self._logger.isEnabledFor(level)

    def log(self, level: int, event: str, **fields) -> None:
        if self._logger.isEnabledFor(level):
            self._logger.log(level, event, extra={"fields": fields})

    def debug(self, event: str, **fields) -> None:
        self.log(logging.DEBUG, event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log(logging.INFO, event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.log(logging.WARNING, event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log(logging.ERROR, event, **fields)


def get_logger(name: str) -> StructuredLogger:
    """Structured child logger ``repro.<name>`` (configures on first use)."""
    configure()
    return StructuredLogger(logging.getLogger(f"{ROOT_NAME}.{name}"))
