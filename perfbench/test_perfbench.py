"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import LAYERS, LayerTracer  # noqa: E402
from outcomes import compare, digest, invariants, load_reference, op_key  # noqa: E402
from worker import Record, rate, run_op  # noqa: E402
from workloads import WORKLOADS, AttackSweep, Op, Outcome  # noqa: E402


@pytest.fixture(scope="module")
def sweep():
    workload = AttackSweep()
    workload.import_modules()
    workload.load()
    return workload


#: Small ops covering both victims and the nominal / attacked paths.
SMALL_OPS = [
    Op(("modular", 1.0), (11, 12, 13)),
    Op(("e2e", 0.5), (21, 22)),
    Op(("modular", 0.0), (5,)),
]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = WORKLOADS[name]()
    assert workload.cycle(7, 0) == workload.cycle(7, 0)
    assert workload.warmup(7) == workload.warmup(7)
    assert workload.cycle(7, 0) != workload.cycle(8, 0)
    assert workload.cycle(7, 0) != workload.cycle(7, 1)


def test_rate_times_each_op_by_its_fastest_repeat():
    def record(repeat, index, seconds, calib):
        return Record(repeat, 0, index, seconds, calib, Outcome(ticks=10), [])

    records = [
        record(0, 0, 2.0, 2.5),
        record(1, 0, 1.0, 5.0),
        record(0, 1, 1.0, 2.5),
        record(1, 1, 3.0, 2.5),
    ]
    assert rate(records, scaled=False) == 20 / (1.0 + 1.0)
    # Scaled to the reference kernel time: op 0 took 0.5 s there.
    assert rate(records, scaled=True) == 20 / (0.5 + 1.0)


def test_traced_sweep_runs_the_modular_ops_of_attack_sweep():
    modular = [op for op in AttackSweep().cycle(3, 1) if op.cell[0] == "modular"]
    assert WORKLOADS["traced_sweep"]().cycle(3, 1) == modular


def _targets():
    """Every object the tracer replaces, as found before installing it."""
    found = []
    for targets in LAYERS.values():
        for module_name, path in targets:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, name = path.split(".")
                cls = getattr(module, cls_name)
                found.append((cls, name, inspect.getattr_static(cls, name)))
            else:
                found.append((module, path, getattr(module, path)))
    return found


def test_traced_outcomes_equal_untraced_and_wrappers_are_removed(sweep):
    before = _targets()
    untraced = [sweep.run(op).digest for op in SMALL_OPS]
    with LayerTracer() as tracer:
        traced = [sweep.run(op).digest for op in SMALL_OPS]
    assert traced == untraced
    assert tracer.stats["eval.run_episode_batch"].calls == len(SMALL_OPS)
    assert tracer.stats["sim.BatchWorld.tick"].calls > 0
    for owner, name, original in before:
        assert inspect.getattr_static(owner, name) is original, name
    import repro.eval

    assert repro.eval.run_episode_batch is importlib.import_module(
        "repro.eval.batch"
    ).run_episode_batch
    assert not hasattr(repro.eval.run_episode_batch, "__wrapped__")


def test_layer_self_times_fit_in_op_wall_clock(sweep):
    with LayerTracer() as tracer:
        start = time.perf_counter()
        for op in SMALL_OPS:
            sweep.run(op)
        wall = time.perf_counter() - start
    self_total = sum(stat.self_s for stat in tracer.stats.values())
    assert 0 < self_total <= wall
    for name, stat in tracer.stats.items():
        assert 0 <= stat.self_s <= stat.total_s + 1e-12, name


def test_perturbed_episode_is_counted_as_failed(sweep):
    op = SMALL_OPS[0]
    results = sweep.eval.run_episode_batch(
        sweep.registry.modular_victim,
        attacker=sweep.registry.camera_attacker(1.0, victim="modular"),
        seeds=list(op.seeds),
    )
    assert all(invariants(r, sweep.scenario.max_steps) == [] for r in results)
    reference = digest(results)
    assert run_op(sweep, op, reference)[2] == []

    index = next(
        (i for i, r in enumerate(results) if r.collision is not None), 0
    )
    good = results[index]
    changes = [
        {"steps": good.steps + 1},
        {"passed_npcs": good.passed_npcs + 1},
        {"nominal_return": good.nominal_return + 1e-6},
        {"deviation_rmse": good.deviation_rmse - 1e-6},
    ]
    if good.collision is not None:
        changes.append({"collision": None})
    for change in changes:
        perturbed = list(results)
        perturbed[index] = dataclasses.replace(good, **change)
        # The op runner compares the fresh run against this reference.
        assert run_op(sweep, op, digest(perturbed))[2], change
    # Float noise inside the tolerance is not a failure.
    nudged = list(results)
    nudged[index] = dataclasses.replace(
        good, nominal_return=good.nominal_return + 1e-12
    )
    assert compare(reference, digest(nudged)) == []

    for broken in (
        dataclasses.replace(good, adversarial_return=float("nan")),
        dataclasses.replace(good, steps=sweep.scenario.max_steps + 1),
    ):
        assert invariants(broken, sweep.scenario.max_steps)


def test_reference_matches_a_fresh_run(sweep):
    reference = load_reference()
    if not reference:
        pytest.skip("reference.json not generated")
    op = min(
        (op for op in sweep.cycle(0, 0) if op_key(op) in reference),
        key=lambda op: op.cell[1] != 1.0,  # budget 1.0 ends soonest
    )
    assert run_op(sweep, op, reference[op_key(op)])[2] == []


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
