"""Output checks behind ``failed``: op digests and episode invariants.

Every episode is held to :func:`invariants`. An op whose cell and seeds
have a committed reference (``reference.json``, written by
``make_reference.py`` for the first cycles of the default workload
seeds) is also held to its :func:`digest`: the discrete outcome of every
episode (steps, NPCs passed, collision kind, struck actor and step) is
compared exactly, through a hash, and each float outcome is compared as
its sum over the op's episodes, to within ``FLOAT_TOL`` per episode — the
tolerance of ``tests/eval/test_batch_equivalence.py``. Sums rather than
per-episode floats keep the committed reference small.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

FLOAT_TOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference.json"
#: Workload seeds, and cycles of each, that ``make_reference.py`` records.
DEFAULT_SEEDS = range(5)
REFERENCE_CYCLES = 4
FLOAT_FIELDS = (
    "duration",
    "nominal_return",
    "adversarial_return",
    "mean_effort",
    "deviation_rmse",
    "deviation_max",
    "time_to_collision",
)


def digest(results) -> dict:
    """The comparable outcome of one op's ``EpisodeResult`` list."""
    discrete = [
        [
            r.steps,
            r.passed_npcs,
            None if r.collision is None else r.collision.kind.name,
            None if r.collision is None else r.collision.other,
            None if r.collision is None else r.collision.step,
        ]
        for r in results
    ]
    return {
        "episodes": len(results),
        "discrete": hashlib.sha256(
            json.dumps(discrete).encode()
        ).hexdigest()[:16],
        "sums": [
            math.fsum(getattr(r, name) or 0.0 for r in results)
            for name in FLOAT_FIELDS
        ],
    }


def compare(reference: dict, candidate: dict) -> list[str]:
    """Differences between two op digests (empty when they match)."""
    problems = []
    if reference["episodes"] != candidate["episodes"]:
        problems.append(
            f"{candidate['episodes']} episodes, reference has "
            f"{reference['episodes']}"
        )
    if reference["discrete"] != candidate["discrete"]:
        problems.append("discrete episode outcomes differ from the reference")
    tolerance = FLOAT_TOL * max(reference["episodes"], 1)
    for name, want, got in zip(
        FLOAT_FIELDS, reference["sums"], candidate["sums"]
    ):
        if not abs(want - got) <= tolerance:
            problems.append(f"sum of {name}: {got!r} != {want!r}")
    return problems


def invariants(result, max_steps: int) -> list[str]:
    """Checks every episode must pass, whatever its seed."""
    problems = []
    if not 1 <= result.steps <= max_steps:
        problems.append(f"steps {result.steps} outside [1, {max_steps}]")
    if result.passed_npcs < 0:
        problems.append(f"passed_npcs {result.passed_npcs} < 0")
    collision = result.collision
    if collision is not None and collision.step != result.steps:
        problems.append(
            f"collision at step {collision.step} but episode ran "
            f"{result.steps} steps"
        )
    for name in FLOAT_FIELDS:
        value = getattr(result, name)
        if value is None:
            continue
        if not math.isfinite(value):
            problems.append(f"{name} is {value}")
    if result.time_to_collision is not None and collision is None:
        problems.append("time_to_collision without a collision")
    return problems


def op_key(op) -> str:
    """Reference key of an op: its cell and its episode seeds."""
    cell = "/".join(str(part) for part in op.cell)
    return f"{cell}@{op.seeds[0]}+{len(op.seeds)}"


def load_reference() -> dict[str, dict]:
    """``{op key: op digest}``; empty when no reference exists."""
    if not REFERENCE.exists():
        return {}
    with REFERENCE.open(encoding="utf-8") as handle:
        return json.load(handle)
