"""Post-mortem analysis and live monitoring of telemetry (consumer side).

``repro.telemetry`` produces JSONL episode traces, metrics snapshots, and
span timings; this package *reads* them:

* :mod:`repro.obsv.forensics` — per-episode post-mortems: lurk/strike
  phase segmentation, safety-margin timelines, collision geometry.
* :mod:`repro.obsv.replay` — re-simulates a recorded episode from its
  seed and diffs the regenerated tick stream against the trace.
* :mod:`repro.obsv.dashboard` — aggregates traces + metrics + bench
  telemetry into one markdown/HTML dashboard (JSONL- or store-backed).
* :mod:`repro.obsv.regress` — compares ``BENCH_telemetry.json`` files and
  flags perf/behaviour regressions against a committed baseline.
* :mod:`repro.obsv.store` — SQLite telemetry store: ingests traces and
  metrics snapshots into indexed tables with a filter/aggregate query API.
* :mod:`repro.obsv.alerts` — watchdog rules (NaN loss, Q divergence,
  entropy collapse, reward plateau, buffer starvation, throughput
  regression) over streaming trace events.
* :mod:`repro.obsv.watch` — live monitor that tails a growing training
  trace (or every trace in a run directory, multiplexed), renders a
  refreshing terminal view, and fires the watchdogs.
* :mod:`repro.obsv.serve` — localhost HTTP server fronting one run:
  live HTML dashboard, flamegraph, JSON query API, run comparison
  (``/compare``), and a Server-Sent-Events stream of new trace events
  and watchdog alerts.
* :mod:`repro.obsv.compare` — statistical A/B comparison of recorded
  runs (seeded bootstrap CIs, permutation tests, effect sizes, Holm
  correction) and the metric-snapshot regression gate behind
  ``obsv regress --metrics``.

Entry point: ``python -m repro.obsv
{forensics,replay,dashboard,compare,regress,ingest,query,watch,serve}``.
"""

from repro.obsv.alerts import Alert, WatchConfig, Watchdog
from repro.obsv.compare import (
    RunComparison,
    StatConfig,
    compare_metric_snapshots,
    compare_runs,
    load_run,
    metric_snapshot,
)
from repro.obsv.forensics import EpisodeForensics, Phase, analyze, segment_phases
from repro.obsv.loader import EpisodeTrace, load_episodes, split_episodes
from repro.obsv.regress import Breach, RegressionThresholds, compare_snapshots
from repro.obsv.replay import FieldDiff, ReplayError, ReplayReport, replay_episode
from repro.obsv.store import TelemetryStore, export_csv, is_store_path
from repro.obsv.watch import WatchState, watch_trace

__all__ = [
    "Alert",
    "Breach",
    "RunComparison",
    "StatConfig",
    "compare_metric_snapshots",
    "compare_runs",
    "load_run",
    "metric_snapshot",
    "EpisodeForensics",
    "EpisodeTrace",
    "FieldDiff",
    "Phase",
    "RegressionThresholds",
    "ReplayError",
    "ReplayReport",
    "TelemetryStore",
    "WatchConfig",
    "WatchState",
    "Watchdog",
    "analyze",
    "compare_snapshots",
    "export_csv",
    "is_store_path",
    "load_episodes",
    "replay_episode",
    "segment_phases",
    "split_episodes",
    "watch_trace",
]
