"""Post-mortem analysis and live monitoring of telemetry (consumer side).

``repro.telemetry`` produces JSONL episode traces, metrics snapshots, and
span timings; this package *reads* them:

* :mod:`repro.obsv.store` — SQLite telemetry store: a rebuildable index
  of trace files and snapshots with a filter/aggregate query API, plus
  the two functions every reader below goes through — ``open_run`` turns
  a trace file, run directory or store into a store, ``load_snapshot``
  reads a snapshot from a JSON file or a store.
* :mod:`repro.obsv.forensics` — per-episode post-mortems: lurk/strike
  phase segmentation, safety-margin timelines, collision geometry.
* :mod:`repro.obsv.replay` — re-simulates a recorded episode from its
  seed and diffs the regenerated tick stream against the trace.
* :mod:`repro.obsv.dashboard` — aggregates traces + metrics + bench
  telemetry of one run into one markdown/HTML dashboard.
* :mod:`repro.obsv.regress` — compares ``BENCH_telemetry.json`` files and
  flags perf/behaviour regressions against a committed baseline.
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

The package re-exports nothing, so importing one submodule (the training
loop imports :mod:`repro.obsv.alerts`) does not import the others.

Entry point: ``python -m repro.obsv
{forensics,replay,dashboard,compare,regress,profile,ingest,query,watch,serve,verify-artifacts}``.
"""
