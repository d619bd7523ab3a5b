"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload attack_sweep --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15

Run from the repository root. Each workload runs in its own process
(``worker.py``) with BLAS/OpenMP pinned to one thread and every
``REPRO_*`` variable cleared, so what runs is a user's default run.
``setup_s`` is the median over several fresh interpreters: the worker
itself plus ``SETUP_PROBES`` processes that stop once set up.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name each
metric with its unit. With ``--workload all`` that last object holds one
such result per workload, keyed by workload name. ``--trace 1`` reports
the per-layer table instead of the end-to-end metrics. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("attack_sweep", "defense_sweep", "train_attacker", "traced_sweep")
#: Extra fresh interpreters timed for ``setup_s`` besides the worker.
SETUP_PROBES = 3
#: Generous per-process limit; a run is far shorter.
TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def clean_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run ``worker.py``; returns (raw setup seconds, its JSON report)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=clean_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    report = json.loads(lines[-1])
    return report["ready"] - spawned, report


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    # Probes before and after the measured worker, so the samples span
    # the run and one slow spell of the host does not hold them all.
    probes = SETUP_PROBES // 2
    samples = [worker([*common, "--setup-only"], 60) for _ in range(probes)]
    samples.append(
        worker(
            [*common, "--seconds", str(seconds), "--trace", str(trace)],
            TIMEOUT_S,
        )
    )
    report = samples[-1][1]
    samples += [
        worker([*common, "--setup-only"], 60)
        for _ in range(SETUP_PROBES - probes)
    ]
    metrics = report["metrics"]
    if trace:
        for metric, key in (
            ("setup.import_s", "import_s"),
            ("experiments.registry.load_s", "load_s"),
        ):
            metrics[metric] = {
                "value": statistics.median(r[key] for _, r in samples),
                "unit": "s",
            }
    else:
        calib = metrics.pop("host.calib_ms")
        metrics["setup_s"] = {
            "value": statistics.median(elapsed for elapsed, _ in samples),
            "unit": "s",
        }
    attempted, failed = report["attempted"], report["failed"]
    print(
        f"workload {name}  seed {seed}  cycles {report['cycles']}"
        f"  timed {report['timed_s']:.3f} s"
    )
    for metric, entry in metrics.items():
        print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} failed/attempted")
    if not trace:
        print(f"  {'host.calib_ms':<44} {calib['value']:>14.6g} ms")
    setups = " ".join(f"{elapsed:.4g}" for elapsed, _ in samples)
    print(f"  set-up samples (s): {setups}")
    for kind, (best, *alone) in report["rates"].items():
        print(
            f"  {kind} rate {best:.6g}; each repeat alone "
            + " ".join(f"{value:.6g}" for value in alone)
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        path
        for path in (ROOT / "src" / "repro", ROOT / "artifacts")
        if not path.is_dir()
    ]
    if missing:
        print(
            f"perfbench: {', '.join(map(str, missing))} missing; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [
            run_workload(name, args.seed, args.seconds, args.trace)
            for name in names
        ]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(dict(zip(names, results))))
    else:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
