"""Observability layer: structured logging, metrics, spans, and traces.

The submodules are intentionally dependency-free (stdlib + numpy) and
deterministic-safe — none of them ever touches an RNG or mutates simulation
state, so instrumented runs are bit-identical to uninstrumented ones.

* :mod:`repro.telemetry.log` — structured key=value / JSON-lines logging
  (``REPRO_LOG_LEVEL``, ``REPRO_LOG_JSON``).
* :mod:`repro.telemetry.metrics` — process-wide registry of counters,
  gauges and numpy-backed histograms with labels and JSON export.
* :mod:`repro.telemetry.spans` — nested wall-clock span tracer with a
  ``span("name")`` context manager and ``@timed`` decorator
  (``REPRO_SPANS`` enables at import time; near-free when disabled).
* :mod:`repro.telemetry.trace` — JSONL event writer for episode traces
  (each episode's ticks as columns on its ``episode_end`` record) and
  per-step training traces, with a schema validator and the one line
  decoder every trace reader uses (``REPRO_TRACE`` installs a default
  process-wide writer; ``REPRO_RUN_ID`` labels every record with a run
  id that ``obsv query --label`` and ``obsv compare --run-a`` select by).
* :mod:`repro.telemetry.provenance` — the git SHA, config hash, weights
  checksums and ``REPRO_*`` settings stamped at the top of each trace.
"""

from repro.telemetry.log import configure, get_logger
from repro.telemetry.metrics import MetricsRegistry, get_registry
from repro.telemetry.spans import get_tracer, span, timed
from repro.telemetry.trace import (
    TraceFormatError,
    TraceWriter,
    default_writer,
    read_trace,
    validate_event,
    validate_trace,
)

__all__ = [
    "configure",
    "get_logger",
    "MetricsRegistry",
    "get_registry",
    "get_tracer",
    "span",
    "timed",
    "TraceFormatError",
    "TraceWriter",
    "default_writer",
    "read_trace",
    "validate_event",
    "validate_trace",
]
