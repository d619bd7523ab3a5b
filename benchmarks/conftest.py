"""Benchmark-suite configuration.

Every figure/table of the paper's evaluation has one bench module. The
benches evaluate the shipped checkpoints in ``artifacts/`` (regenerate
with ``python examples/train_all.py``) and print the reproduced rows next
to the paper's reference values; pytest-benchmark records the wall-clock
of one full experiment run. A figure's bench runs the figure at the
protocol size of the claims registry (``repro.experiments.claims.SIZES``)
and asserts only that none of the figure's registry claims fails; the
registry, not the bench, defines each claim's rule.

Run:  pytest benchmarks/ --benchmark-only
      pytest benchmarks/ --benchmark-only -s   # also show the reproduced tables
(`examples/reproduce_all.py` writes the same tables into EXPERIMENTS.md.)

Telemetry artifact — ``BENCH_telemetry.json``
    Every bench session enables the span tracer and, on teardown, writes a
    machine-readable perf snapshot to ``BENCH_telemetry.json`` at the repo
    root so successive PRs have a trajectory to compare against. Layout::

        {
          "schema": 2,
          "wall_clock_s": <total session seconds>,
          "python": "...", "numpy": "...", "platform": "...",
          "spans":   {"<span path>": {count, total_s, self_total_s,
                                      mean_us, self_mean_us, p50_us,
                                      p90_us, p99_us, min_us, max_us}, ...},
          "metrics": {"counters": {...}, "gauges": {...},
                      "histograms": {...}},  # repro.telemetry snapshot
          "profile": {...}   # only under REPRO_PROF: FLOP counters,
                             # per-span MFLOP/s, tracemalloc figures
        }

    Span paths follow :mod:`repro.telemetry.spans` nesting (e.g.
    ``episode/world.tick``); durations are wall-clock microseconds.
    Schema 2 adds the exact self-time fields (inclusive minus direct
    children, from the tracer's child bookkeeping) that ``repro.obsv
    profile`` and the ``regress`` self-time budget gates consume, plus
    the optional ``profile`` section mirrored from the env-installed
    profiling session (:mod:`repro.obsv.prof`) when ``REPRO_PROF`` is
    set for the bench run.

    On teardown the fresh snapshot is diffed against a baseline (same
    thresholds as ``python -m repro.obsv regress``); breaches are printed
    as warnings but do not fail the bench session. The baseline is
    ``REPRO_BENCH_BASELINE`` when set (empty string disables the diff),
    else the committed ``benchmarks/BASELINE_telemetry.json``.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "experiment: full paper-experiment reproduction bench"
    )


@pytest.fixture(scope="session")
def artifacts_ready():
    """Skip experiment benches cleanly when checkpoints are missing."""
    from repro.experiments import registry

    required = [
        registry.E2E_DRIVER,
        registry.CAMERA_ATTACKER_E2E,
        registry.CAMERA_ATTACKER_MODULAR,
        registry.IMU_ATTACKER,
        registry.FINETUNED_RHO_11,
        registry.FINETUNED_RHO_2,
        registry.PNN_COLUMN,
    ]
    missing = [name for name in required if not registry.has_artifact(name)]
    if missing:
        pytest.skip(
            f"missing artifacts {missing}; run `python examples/train_all.py`"
        )
    return True


@pytest.fixture(scope="session", autouse=True)
def bench_telemetry(request):
    """Collect spans/metrics for the session; write BENCH_telemetry.json."""
    import numpy as np

    from repro.telemetry.metrics import get_registry
    from repro.telemetry.spans import get_tracer

    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.enable()
    started = time.perf_counter()
    yield
    payload = {
        "schema": 2,
        "wall_clock_s": round(time.perf_counter() - started, 3),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "spans": tracer.snapshot(),
        "metrics": get_registry().snapshot(),
    }
    from repro.obsv.prof import env_session

    profiling = env_session()
    if profiling is not None and profiling.running:
        payload["profile"] = profiling.peek()
    out = Path(str(request.config.rootpath)) / "BENCH_telemetry.json"
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if not was_enabled:
        tracer.disable()

    baseline = os.environ.get("REPRO_BENCH_BASELINE")
    if baseline is None:
        committed = Path(__file__).with_name("BASELINE_telemetry.json")
        if committed.exists():
            baseline = str(committed)
    if baseline:
        from repro.obsv.regress import compare_snapshots, report

        try:
            reference = json.loads(Path(baseline).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"\n[bench-regress] baseline {baseline!r} unreadable: {exc}")
        else:
            breaches = compare_snapshots(payload, reference)
            print(f"\n[bench-regress] vs {baseline}:")
            for line in report(breaches).splitlines():
                print(f"[bench-regress] {line}")
