"""Chaos suite: real crashes against real training subprocesses.

Each test launches ``tests/chaos/_driver.py`` in a subprocess with a
deterministic fault plan in ``REPRO_FAULTS`` and asserts the advertised
recovery story: SIGKILL mid-training resumes bit-identically, a torn
checkpoint falls back to the previous snapshot, NaN gradients halt with
an emergency snapshot, and a full disk degrades to a warning.

Excluded from tier-1 runs; opt in with ``REPRO_CHAOS=1`` or ``-m chaos``.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.rl.checkpoint import load_state

pytestmark = pytest.mark.chaos

DRIVER = Path(__file__).with_name("_driver.py")
REPO = DRIVER.parents[2]
STEPS = 90
# Episode boundaries fall at steps 25/50/75 (SCENARIO.max_steps=25);
# every=20 makes each of them snapshot-due, so a kill at 61 leaves two
# snapshots behind and the disk-full test has a "previous" to survive.
EVERY = 20
KILL_AT = 61


def run_driver(loop, ckpt_dir, *, fault="", resume=False, halt=False,
               steps=STEPS, timeout=240):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    if fault:
        env["REPRO_FAULTS"] = fault
    else:
        env.pop("REPRO_FAULTS", None)
    cmd = [
        sys.executable, str(DRIVER), "--loop", loop,
        "--steps", str(steps), "--every", str(EVERY),
        "--ckpt-dir", str(ckpt_dir),
    ]
    if resume:
        cmd.append("--resume")
    if halt:
        cmd.append("--halt-on-alert")
    return subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=timeout
    )


def final_state(ckpt_dir, loop_label):
    snaps = sorted(Path(ckpt_dir, loop_label).glob("state_step*.npz"))
    assert snaps, f"no snapshots under {ckpt_dir}/{loop_label}"
    state = load_state(snaps[-1])
    assert state.final and state.step == STEPS
    return state


def assert_bit_identical(a, b):
    assert a.counters() == b.counters()
    assert a.rng_state == b.rng_state
    assert set(a.arrays) == set(b.arrays)
    for key in a.arrays:
        np.testing.assert_array_equal(a.arrays[key], b.arrays[key], err_msg=key)


class TestSigkillResume:
    @pytest.mark.parametrize(
        "loop,label", [("attack", "sac-attack"), ("driver", "sac-driver")]
    )
    def test_kill_then_resume_is_bit_identical(self, tmp_path, loop, label):
        control = run_driver(loop, tmp_path / "control")
        assert control.returncode == 0, control.stderr
        assert "DONE" in control.stdout

        crashed_dir = tmp_path / "crashed"
        crashed = run_driver(
            loop, crashed_dir, fault=f"kill@step={KILL_AT},loop={label}"
        )
        assert crashed.returncode == -signal.SIGKILL
        snaps = sorted(Path(crashed_dir, label).glob("state_step*.npz"))
        assert snaps, "SIGKILL left no snapshot to resume from"
        assert all(int(p.name[10:18]) <= KILL_AT for p in snaps)

        resumed = run_driver(loop, crashed_dir, resume=True)
        assert resumed.returncode == 0, resumed.stderr
        assert_bit_identical(
            final_state(tmp_path / "control", label),
            final_state(crashed_dir, label),
        )


class TestTornCheckpoint:
    def test_truncated_newest_snapshot_falls_back(self, tmp_path):
        label = "sac-attack"
        control = run_driver("attack", tmp_path / "control")
        assert control.returncode == 0, control.stderr

        crashed_dir = tmp_path / "crashed"
        crashed = run_driver(
            "attack", crashed_dir, fault=f"kill@step={KILL_AT},loop={label}"
        )
        assert crashed.returncode == -signal.SIGKILL
        snaps = sorted(Path(crashed_dir, label).glob("state_step*.npz"))
        assert len(snaps) >= 2, "need two snapshots to exercise fallback"
        faults.truncate_tail(snaps[-1], drop_bytes=256)

        resumed = run_driver("attack", crashed_dir, resume=True)
        assert resumed.returncode == 0, resumed.stderr
        # Fallback replays more steps but lands on the same trajectory.
        assert_bit_identical(
            final_state(tmp_path / "control", label),
            final_state(crashed_dir, label),
        )


class TestNanHalt:
    def test_nan_grads_halt_with_emergency_snapshot(self, tmp_path):
        result = run_driver(
            "attack", tmp_path, fault="nan_grads@update=3", halt=True
        )
        assert result.returncode == 3, result.stderr
        line = next(
            l for l in result.stdout.splitlines() if l.startswith("HALTED")
        )
        _, rule, ckpt = line.split(maxsplit=2)
        assert rule == "nan_loss"
        assert Path(ckpt).exists()
        assert Path(ckpt).name.startswith("state_alert_")


class TestDiskFull:
    def test_enospc_degrades_and_previous_snapshot_survives(self, tmp_path):
        label = "sac-attack"
        result = run_driver("attack", tmp_path, fault="enospc@save=1,count=1")
        assert result.returncode == 0, result.stderr
        assert "DONE" in result.stdout
        for snap in sorted(Path(tmp_path, label).glob("state_step*.npz")):
            load_state(snap)  # every surviving snapshot is intact
        assert final_state(tmp_path, label).step == STEPS
