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
  refreshing terminal view, fires the watchdogs, and annotates metric
  drift with the ``regress --metrics`` gate.
* :mod:`repro.obsv.compare` — statistical A/B comparison of recorded
  runs (seeded bootstrap CIs, permutation tests, effect sizes, Holm
  correction) and the metric-snapshot regression gate behind
  ``obsv regress --metrics``.

The package re-exports nothing, so importing one submodule (the training
loop imports :mod:`repro.obsv.alerts`) does not import the others.

Entry point, the one front end of every view: ``python -m repro.obsv
{forensics,replay,dashboard,compare,regress,profile,ingest,query,watch,verify-artifacts}``.
"""
