"""Subprocess entry point for the chaos suite.

Runs one SAC training loop end-to-end with crash-safety options taken
from the command line; fault injection arrives via ``REPRO_FAULTS`` in
the environment. Invoked by ``tests/chaos/test_chaos.py`` as::

    PYTHONPATH=src python tests/chaos/_driver.py --loop attack \
        --steps 90 --every 30 --ckpt-dir /tmp/ckpt [--resume]

Prints ``DONE`` on normal completion. A watchdog halt exits with code 3
after printing ``HALTED <rule> <checkpoint-path>``.
"""

import argparse
import sys

import numpy as np

from repro.rl.checkpoint import TrainingHalted
from repro.rl.policy import SquashedGaussianPolicy
from repro.rl.sac import SacConfig
from repro.sim.config import ScenarioConfig
from repro.telemetry.trace import TraceWriter

SCENARIO = ScenarioConfig(max_steps=25)


def tiny_sac(args) -> SacConfig:
    return SacConfig(
        hidden=(16, 16),
        batch_size=16,
        buffer_capacity=2_000,
        update_every=4,
        checkpoint_every=args.every,
        checkpoint_dir=args.ckpt_dir,
        checkpoint_keep=10,
        resume=args.resume,
        halt_on_alert=args.halt_on_alert,
    )


def run_attack(args) -> None:
    from repro.agents.modular import ModularAgent
    from repro.core import CameraAttackObservation
    from repro.core.attack_env import AttackEnv
    from repro.rl.checkpoint import run_sac_loop
    from repro.rl.sac import Sac

    rng = np.random.default_rng(42)
    env = AttackEnv(
        lambda w: ModularAgent(w.road),
        CameraAttackObservation(),
        budget=1.0,
        scenario=SCENARIO,
        rng=rng,
    )
    policy = SquashedGaussianPolicy(
        env.observation_dim, 1, (16, 16), np.random.default_rng(2)
    )
    sac = Sac(env.observation_dim, env.action_dim, tiny_sac(args), rng=rng,
              actor=policy)
    run_sac_loop(sac, env, args.steps, rng, "sac-attack", trace=TraceWriter())


def run_driver(args) -> None:
    from repro.agents.e2e.observation import DrivingObservation
    from repro.agents.e2e.training import DriverTrainConfig, refine_driver_sac

    rng = np.random.default_rng(42)
    policy = SquashedGaussianPolicy(
        DrivingObservation().observation_dim, 2, (16, 16),
        np.random.default_rng(2),
    )
    config = DriverTrainConfig(sac_steps=args.steps, eval_episodes=1)
    config.sac = tiny_sac(args)
    refine_driver_sac(policy, config, rng, trace=TraceWriter(), scenario=SCENARIO)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--loop", choices=("attack", "driver"), required=True)
    parser.add_argument("--steps", type=int, default=90)
    parser.add_argument("--every", type=int, default=30)
    parser.add_argument("--ckpt-dir", required=True)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--halt-on-alert", action="store_true")
    args = parser.parse_args()
    try:
        {"attack": run_attack, "driver": run_driver}[args.loop](args)
    except TrainingHalted as halt:
        print(f"HALTED {halt.alert.rule} {halt.checkpoint}")
        return 3
    print("DONE")
    return 0


if __name__ == "__main__":
    sys.exit(main())
