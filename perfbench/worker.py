"""One workload in one process: set up, run whole cycles, report JSON.

Started by ``run.py`` with a cleaned environment; prints one JSON line.
With ``--setup-only`` it stops once the workload is ready for its first
op, which is how ``run.py`` takes extra ``setup_s`` samples. Otherwise it
warms up, then runs whole cycles of ops in a closed loop (one op at a
time, the next one issued when the last returns): as many cycles as make
about ``--seconds`` of work, so a seed always gets the same work. Every
op runs ``REPEATS`` times, a whole pass over the cycles apart, and its
fastest timing on the reference host counts. With ``--trace 1`` it runs half as many cycles
untraced, then the same cycles again under the layer tracer, and reports
the per-layer table; with ``--trace 0`` it reports the end-to-end metrics.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

from layers import LAYERS, LayerTracer  # noqa: E402
from outcomes import compare, load_reference, op_key  # noqa: E402
from workloads import WORKLOADS, Op, Outcome, Workload  # noqa: E402

#: Timings of each op per run. The host this benchmark was written on
#: slows down by up to half, for seconds to minutes at a time; slow-downs
#: only add time, so the fastest of timings taken a pass over the cycles
#: apart is the least disturbed one.
REPEATS = 3
#: The reference host's ``calib_ms``. Op times are scaled to this host
#: speed (see :meth:`Record.timing`), which follows the slow spells that
#: last longer than a run.
CALIB_REF_MS = 2.5
#: Fixed reference kernel for ``host.calib_ms``: a small matmul chain
#: plus a pure-Python loop, so both numpy and interpreter speed show.
_CALIB_MATRIX = np.random.default_rng(0).standard_normal((96, 96)) / 10.0


def calib_ms() -> float:
    """One timing of the reference kernel, in milliseconds."""
    start = time.perf_counter()
    a = _CALIB_MATRIX
    for _ in range(20):
        a = np.tanh(a @ _CALIB_MATRIX)
    total = 0
    for i in range(20_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def settled_calib_ms() -> float:
    """Median of a few kernel timings after one untimed warm-up call."""
    calib_ms()
    return statistics.median(calib_ms() for _ in range(5))


@dataclass
class Record:
    """One timed run of one op."""

    repeat: int
    cycle: int
    index: int
    seconds: float
    #: Mean of the settled kernel timings just before and after the op.
    calib: float
    outcome: Outcome | None
    problems: list[str]

    def timing(self, scaled: bool = True) -> float:
        """The op's wall-clock on the reference host, or with ``scaled``
        false as measured."""
        return self.seconds * CALIB_REF_MS / self.calib if scaled else self.seconds


def run_op(
    workload: Workload, op: Op, reference: dict | None
) -> tuple[float, Outcome | None, list[str]]:
    """Run and time one op; an exception is a failed op, not a crash."""
    start = time.perf_counter()
    try:
        outcome = workload.run(op)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, None, ["op raised"]
    elapsed = time.perf_counter() - start
    problems = list(outcome.problems)
    if reference is not None:
        problems.extend(compare(reference, outcome.digest))
    return elapsed, outcome, problems


def run_cycles(
    workload: Workload,
    seed: int,
    reference: dict[str, dict],
    cycles: int,
) -> list[Record]:
    """``REPEATS`` passes over cycles ``0 .. cycles - 1`` of ``seed``, one
    op at a time, with the reference kernel timed between ops. A repeat
    whose outcome differs from the first pass's is a failed op."""
    passes = [workload.cycle(seed, cycle) for cycle in range(cycles)]
    records: list[Record] = []
    first: dict[tuple[int, int], Outcome | None] = {}
    before = settled_calib_ms()
    for repeat in range(REPEATS):
        for cycle, ops in enumerate(passes):
            for index, op in enumerate(ops):
                elapsed, outcome, problems = run_op(
                    workload, op, reference.get(op_key(op))
                )
                after = settled_calib_ms()
                earlier = first.setdefault((cycle, index), outcome)
                if outcome and earlier and outcome.digest != earlier.digest:
                    problems.append("repeat outcome differs from the first run")
                records.append(
                    Record(
                        repeat, cycle, index, elapsed, (before + after) / 2,
                        outcome, problems,
                    )
                )
                before = after
    return records


def fastest(
    records: list[Record], scaled: bool = True
) -> dict[tuple[int, int], float]:
    """Each op's fastest timing, by ``(cycle, index)``."""
    best: dict[tuple[int, int], float] = {}
    for r in records:
        key = (r.cycle, r.index)
        best[key] = min(best.get(key, math.inf), r.timing(scaled))
    return best


def rate(records: list[Record], scaled: bool = True) -> float:
    """Ticks (or SAC steps) per second of op wall-clock, each op timed by
    its fastest repeat (on the reference host unless ``scaled`` is
    false)."""
    ticks = {
        (r.cycle, r.index): r.outcome.ticks
        for r in records
        if r.outcome is not None
    }
    return sum(ticks.values()) / sum(fastest(records, scaled).values())


def report_problems(records: list[Record]) -> int:
    failed = 0
    for record in records:
        if record.problems:
            failed += 1
            print(
                f"repeat {record.repeat} cycle {record.cycle} op "
                f"{record.index} failed: " + "; ".join(record.problems[:5]),
                file=sys.stderr,
            )
    return failed


def layer_metrics(
    tracer: LayerTracer, untraced: list[Record], traced: list[Record]
) -> dict[str, tuple[float, str]]:
    stats = tracer.stats
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (stats[name].calls, "count")
        metrics[f"{name}.self_s"] = (stats[name].self_s, "s")
    outcomes = [r.outcome for r in traced if r.outcome is not None]
    lockstep = [o for o in outcomes if o.slots]
    batched_rows = sum(o.episodes for o in lockstep)
    # Training ops report no episodes; each of theirs builds one world.
    episodes = sum(o.episodes for o in outcomes) or stats["sim.make_world"].calls
    ticks = stats["sim.BatchWorld.tick"].calls
    scalar = stats["eval.run_episode"].calls
    slots = sum(o.slots for o in lockstep)
    ingest_s = stats["obsv.TelemetryStore.ingest_trace"].total_s
    op_seconds = list(fastest(untraced).values())
    p50, p90 = np.percentile(op_seconds, [50, 90])
    metrics.update(
        {
            "sim.Road.straight.per_episode": (
                stats["sim.Road.straight"].calls / max(episodes, 1), "count"
            ),
            "sim.BatchWorld.ego_frenet.per_tick": (
                stats["sim.BatchWorld.ego_frenet"].calls / ticks if ticks else 0.0,
                "count",
            ),
            "eval.live_row_share": (
                sum(o.ticks for o in lockstep) / slots if slots else 0.0,
                "ratio",
            ),
            "eval.batched_share": (
                batched_rows / (batched_rows + scalar)
                if batched_rows + scalar
                else 0.0,
                "ratio",
            ),
            "eval.op_p50_s": (float(p50), "s"),
            "eval.op_p90_s": (float(p90), "s"),
            "eval.ops": (len(op_seconds), "count"),
            "telemetry.trace_bytes": (
                sum(o.trace_bytes for o in outcomes), "bytes"
            ),
            "obsv.ingest_events_per_s": (
                sum(o.ingested for o in outcomes) / ingest_s if ingest_s else 0.0,
                "1/s",
            ),
            "host.tracing_overhead": (rate(traced) / rate(untraced), "ratio"),
        }
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.import_modules()
    imported = time.perf_counter()
    workload.load()
    loaded = time.perf_counter()
    workload.first_world(workload.cycle(args.seed, 0)[0])
    report: dict = {
        # CLOCK_MONOTONIC is system-wide, so run.py can subtract its own
        # spawn time from this and count interpreter start-up too.
        "ready": time.monotonic(),
        "import_s": imported - _START,
        "load_s": loaded - imported,
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    reference = load_reference()
    warm = [run_op(workload, op, None) for op in workload.warmup(args.seed)]
    failed = sum(1 for _, _, problems in warm if problems)
    attempted = len(warm)

    # A fixed amount of work per run: the cycles whose repeats take about
    # ``--seconds`` (half of it untraced when tracing).
    seconds = args.seconds / 2 if args.trace else args.seconds
    cycles = max(1, round(seconds / (REPEATS * workload.cycle_seconds)))
    untraced = run_cycles(workload, args.seed, reference, cycles)
    attempted += len(untraced)
    failed += report_problems(untraced)
    if args.trace:
        with LayerTracer() as tracer:
            traced = run_cycles(workload, args.seed, reference, cycles)
        plain = {(r.cycle, r.index): r.outcome for r in untraced}
        for after in traced:
            before = plain[after.cycle, after.index]
            if before and after.outcome and (
                before.digest != after.outcome.digest
            ):
                after.problems.append("traced outcome differs from untraced")
        attempted += len(traced)
        failed += report_problems(traced)
        metrics = layer_metrics(tracer, untraced, traced)
    else:
        metrics = {
            "ticks_per_s": (rate(untraced), "ticks/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB",
            ),
        }
    metrics["host.calib_ms"] = (statistics.median(r.calib for r in untraced), "ms")
    report.update(
        attempted=attempted,
        failed=failed,
        cycles=cycles,
        timed_s=sum(fastest(untraced, False).values()),
        rates={
            "scaled" if s else "unscaled": [
                rate(untraced, s),
                *(
                    rate([r for r in untraced if r.repeat == k], s)
                    for k in range(REPEATS)
                ),
            ]
            for s in (True, False)
        },
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
