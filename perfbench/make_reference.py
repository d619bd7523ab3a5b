"""Regenerate ``reference.json``: op digests of the default seeds.

    python3 perfbench/make_reference.py

Runs every op of the first ``REFERENCE_CYCLES`` cycles of each
``DEFAULT_SEEDS`` seed of the eval workloads and records its digest under
its op key. ``traced_sweep`` runs the modular ops of ``attack_sweep``,
so it needs no entries of its own.
Only regenerate when a change is meant to alter episode outcomes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from outcomes import DEFAULT_SEEDS, REFERENCE, REFERENCE_CYCLES, op_key  # noqa: E402
from workloads import AttackSweep, DefenseSweep  # noqa: E402

#: Significant digits kept per float sum: |error| < 5e-10 below 10^4,
#: inside the comparison tolerance of 1e-9 per episode.
DIGITS = 13


def main() -> int:
    reference: dict[str, dict] = {}
    for workload in (AttackSweep(), DefenseSweep()):
        workload.import_modules()
        workload.load()
        for seed in DEFAULT_SEEDS:
            for index in range(REFERENCE_CYCLES):
                for op in workload.cycle(seed, index):
                    outcome = workload.run(op)
                    if outcome.problems:
                        print(f"{op_key(op)}: {outcome.problems}", file=sys.stderr)
                        return 1
                    digest = outcome.digest
                    digest["sums"] = [
                        float(f"{value:.{DIGITS}g}") for value in digest["sums"]
                    ]
                    reference[op_key(op)] = digest
    with REFERENCE.open("w", encoding="utf-8") as handle:
        json.dump(reference, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    print(f"{len(reference)} ops written to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
