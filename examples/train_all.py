#!/usr/bin/env python
"""Regenerate every shipped checkpoint in ``artifacts/``.

Pipeline (Section numbers refer to the paper):

1. End-to-end driver (Sec. III-C): behaviour cloning of the modular
   pipeline + optional SAC refinement on the shaped reward.
2. Camera attacker vs. the e2e driver (Sec. IV-D): behaviour cloning of
   the oracle baseline + SAC refinement on R_adv (kept only if better).
3. Camera attacker vs. the modular pipeline (for Fig. 5).
4. IMU attacker via learning-from-teacher (Sec. IV-E).
5. Adversarially fine-tuned drivers, rho = 1/11 and 1/2 (Sec. VI-A).
6. PNN second column (Sec. VI-B).

Run:  python examples/train_all.py [--fast] [--sac] [--health N]
  --fast    tiny budgets (smoke test, ~1 minute)
  --sac     enable the SAC refinement stages (slower; selection keeps the
            better checkpoint either way)
  --health  emit an ``update_health`` trace record every N SAC updates so
            ``python -m repro.obsv watch $REPRO_TRACE`` can monitor the
            run live (needs REPRO_TRACE pointing at a JSONL file)
  --checkpoint-every N
            snapshot resumable SAC training state every N env steps
            (rotated, keep-last-3 per stage; 0 = off)
  --checkpoint-dir  where snapshots go (default: <out>/checkpoints)
  --resume  continue each SAC stage from its newest snapshot; a run
            killed mid-stage picks up where it left off, bit-identically
  --halt-on-alert
            on a critical watchdog alert (nan_loss, q_divergence), write
            a forensic snapshot and stop with TrainingHalted
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.agents.e2e.agent import EndToEndAgent, save_progressive
from repro.agents.e2e.training import DriverTrainConfig, train_driver
from repro.agents.modular.agent import ModularAgent
from repro.core.training import (
    AttackTrainConfig,
    train_camera_attacker,
    train_imu_attacker,
)
from repro.defense.finetune import FinetuneConfig, adversarial_finetune
from repro.defense.pnn_defense import PnnTrainConfig, train_pnn_column
from repro.experiments import registry
from repro.rl.bc import BcConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smoke-test budgets")
    parser.add_argument("--sac", action="store_true", help="run SAC stages")
    parser.add_argument(
        "--out", default=None, help="output directory (default: ./artifacts)"
    )
    parser.add_argument(
        "--health", type=int, default=0, metavar="N",
        help="emit update_health trace records every N SAC updates"
             " (watch-compatible; 0 = off)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="snapshot resumable SAC state every N env steps (0 = off)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help="snapshot directory (default: <out>/checkpoints)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume each SAC stage from its newest snapshot",
    )
    parser.add_argument(
        "--halt-on-alert", action="store_true",
        help="snapshot and stop a SAC stage on a critical watchdog alert",
    )
    args = parser.parse_args()

    out = Path(args.out) if args.out else registry.artifacts_dir()
    out.mkdir(parents=True, exist_ok=True)
    ckpt_base = Path(args.checkpoint_dir) if args.checkpoint_dir else (
        out / "checkpoints"
    )
    started = time.time()

    def stamp(label: str) -> None:
        print(f"[{time.time() - started:7.1f}s] {label}", flush=True)

    def crash_safety(sac_cfg, stage: str) -> None:
        """Point one SAC stage's snapshots at its own subdirectory.

        Stages 2 and 3 share a loop label (``sac-attack``), so the
        per-stage directory is what keeps their snapshots apart.
        """
        sac_cfg.checkpoint_every = args.checkpoint_every
        sac_cfg.checkpoint_dir = str(ckpt_base / stage)
        sac_cfg.resume = args.resume
        sac_cfg.halt_on_alert = args.halt_on_alert

    # 1. End-to-end driver.
    stamp("training end-to-end driver (BC from modular expert)")
    driver_cfg = DriverTrainConfig(
        bc_episodes=10 if args.fast else 40,
        sac_steps=(500 if args.fast else 8_000) if args.sac else 0,
    )
    driver_cfg.sac.health_every = args.health
    crash_safety(driver_cfg.sac, "driver")
    driver, driver_metrics = train_driver(driver_cfg, progress=True)
    driver.save(out / registry.E2E_DRIVER, {"metrics": driver_metrics})
    stamp(f"driver: {driver_metrics}")

    def e2e_victim(world):
        return EndToEndAgent(driver.policy)

    def modular_victim(world):
        return ModularAgent(world.road)

    # 2. Camera attacker vs. e2e driver.
    stamp("training camera attacker vs e2e driver")
    attack_cfg = AttackTrainConfig(
        bc_episodes=8 if args.fast else 30,
        sac_steps=(500 if args.fast else 6_000) if args.sac else 0,
        eval_episodes=3 if args.fast else 8,
    )
    attack_cfg.sac.health_every = args.health
    crash_safety(attack_cfg.sac, "camera-e2e")
    camera, camera_metrics = train_camera_attacker(
        e2e_victim, attack_cfg, progress=True
    )
    camera.save(out / registry.CAMERA_ATTACKER_E2E, {"metrics": camera_metrics})
    stamp(f"camera attacker (e2e victim): {camera_metrics}")

    # 3. Camera attacker vs. modular pipeline.
    stamp("training camera attacker vs modular pipeline")
    crash_safety(attack_cfg.sac, "camera-modular")
    camera_mod, camera_mod_metrics = train_camera_attacker(
        modular_victim, attack_cfg, progress=True
    )
    camera_mod.save(
        out / registry.CAMERA_ATTACKER_MODULAR, {"metrics": camera_mod_metrics}
    )
    stamp(f"camera attacker (modular victim): {camera_mod_metrics}")

    # 4. IMU attacker (learning-from-teacher).
    stamp("training IMU attacker (learning-from-teacher)")
    crash_safety(attack_cfg.sac, "imu")
    imu, imu_metrics = train_imu_attacker(
        camera, e2e_victim, attack_cfg, progress=True
    )
    imu.save(out / registry.IMU_ATTACKER, {"metrics": imu_metrics})
    stamp(f"imu attacker: {imu_metrics}")

    # 5. Adversarial fine-tuning.
    for rho, filename in (
        (1.0 / 11.0, registry.FINETUNED_RHO_11),
        (0.5, registry.FINETUNED_RHO_2),
    ):
        stamp(f"adversarial fine-tuning rho={rho:.3f}")
        finetune_cfg = FinetuneConfig(
            rho=rho, episodes=12 if args.fast else 44
        )
        tuned = adversarial_finetune(driver, camera, finetune_cfg, progress=True)
        tuned.save(out / filename, {"rho": rho})

    # 6. PNN column.
    stamp("training PNN adversarial column")
    pnn_cfg = PnnTrainConfig(
        episodes=12 if args.fast else 120,
        bc=BcConfig(epochs=8 if args.fast else 30, lr=5e-4),
    )
    column = train_pnn_column(driver, camera, pnn_cfg, progress=True)
    save_progressive(column, out / registry.PNN_COLUMN)

    stamp(f"done — artifacts in {out}")


if __name__ == "__main__":
    main()
