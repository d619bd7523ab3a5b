"""Shipped-artifact registry.

The benchmark harness evaluates pre-trained checkpoints from the
``artifacts/`` directory (regenerate them with ``examples/train_all.py``).
This module locates that directory and lazily constructs the agents and
attackers each experiment needs.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from repro import knobs
from repro.agents.base import DrivingAgent
from repro.agents.e2e.agent import EndToEndAgent, load_progressive
from repro.agents.modular.agent import ModularAgent
from repro.core.attackers import LearnedAttacker
from repro.defense.pnn_defense import SimplexSwitchedAgent
from repro.rl.pnn import ProgressivePolicy
from repro.sim.world import World

#: Artifact file names produced by examples/train_all.py.
E2E_DRIVER = "e2e_driver.npz"
CAMERA_ATTACKER_E2E = "camera_attacker.npz"
CAMERA_ATTACKER_MODULAR = "camera_attacker_modular.npz"
IMU_ATTACKER = "imu_attacker.npz"
FINETUNED_RHO_11 = "driver_finetuned_rho11.npz"
FINETUNED_RHO_2 = "driver_finetuned_rho2.npz"
PNN_COLUMN = "driver_pnn.npz"


def artifacts_dir() -> Path:
    """Locate the artifacts directory.

    Order: ``$REPRO_ARTIFACTS``, ``./artifacts`` under the current
    directory, then ``artifacts/`` next to the repository's source tree.
    """
    env = knobs.get("REPRO_ARTIFACTS")
    if env:
        return Path(env)
    local = Path.cwd() / "artifacts"
    if local.exists():
        return local
    # src/repro/experiments/registry.py -> repository root is parents[3].
    return Path(__file__).resolve().parents[3] / "artifacts"


def artifact_path(name: str) -> Path:
    path = artifacts_dir() / name
    if not path.exists():
        raise FileNotFoundError(
            f"artifact {name!r} not found under {artifacts_dir()} — run "
            "`python examples/train_all.py` to generate the checkpoints"
        )
    return path


def has_artifact(name: str) -> bool:
    try:
        artifact_path(name)
        return True
    except FileNotFoundError:
        return False


#: Every artifact name a full reproduction uses (provenance default).
ALL_ARTIFACTS = (
    E2E_DRIVER,
    CAMERA_ATTACKER_E2E,
    CAMERA_ATTACKER_MODULAR,
    IMU_ATTACKER,
    FINETUNED_RHO_11,
    FINETUNED_RHO_2,
    PNN_COLUMN,
)


def artifact_checksums(names: tuple[str, ...] | None = None) -> dict[str, str]:
    """``{artifact name: "sha256:..."}`` for every present checkpoint.

    Missing artifacts are silently omitted (a nominal-only run has no
    weights to attest). Feed the result to
    :func:`repro.telemetry.provenance.collect` so run provenance pins the
    exact checkpoint bytes an experiment evaluated.
    """
    from repro.telemetry.provenance import checkpoint_checksum

    checksums: dict[str, str] = {}
    for name in names if names is not None else ALL_ARTIFACTS:
        if not has_artifact(name):
            continue
        checksum = checkpoint_checksum(artifacts_dir() / name)
        if checksum is not None:
            checksums[name] = checksum
    return checksums


# -- victims ---------------------------------------------------------------------


def modular_victim(world: World) -> DrivingAgent:
    """A fresh modular-pipeline victim for ``world``."""
    return ModularAgent(world.road)


@lru_cache(maxsize=1)
def _e2e_state() -> tuple:
    agent = EndToEndAgent.load(artifact_path(E2E_DRIVER))
    return (agent.policy,)


def e2e_victim(world: World) -> EndToEndAgent:
    """A fresh end-to-end victim (shared weights, fresh frame stack)."""
    (policy,) = _e2e_state()
    return EndToEndAgent(policy)


@lru_cache(maxsize=1)
def finetuned_victim_rho11_policy():
    return EndToEndAgent.load(artifact_path(FINETUNED_RHO_11)).policy


@lru_cache(maxsize=1)
def finetuned_victim_rho2_policy():
    return EndToEndAgent.load(artifact_path(FINETUNED_RHO_2)).policy


def finetuned_victim_rho11(world: World) -> EndToEndAgent:
    agent = EndToEndAgent(finetuned_victim_rho11_policy())
    agent.name = "adv-finetuned(rho=1/11)"
    return agent


def finetuned_victim_rho2(world: World) -> EndToEndAgent:
    agent = EndToEndAgent(finetuned_victim_rho2_policy())
    agent.name = "adv-finetuned(rho=1/2)"
    return agent


@lru_cache(maxsize=1)
def pnn_column() -> ProgressivePolicy:
    return load_progressive(artifact_path(PNN_COLUMN))


def pnn_victim(world: World, sigma: float, budget: float) -> SimplexSwitchedAgent:
    """The Simplex-switched PNN agent, informed of the attack budget."""
    agent = SimplexSwitchedAgent(
        EndToEndAgent(_e2e_state()[0]), pnn_column(), sigma=sigma
    )
    agent.inform_budget(budget)
    return agent


# -- attackers ---------------------------------------------------------------------


@lru_cache(maxsize=4)
def _attacker_template(name: str) -> LearnedAttacker:
    return LearnedAttacker.load(artifact_path(name), budget=1.0)


def camera_attacker(budget: float = 1.0, victim: str = "e2e") -> LearnedAttacker:
    """The learned camera attacker trained against ``victim``."""
    name = (
        CAMERA_ATTACKER_MODULAR if victim == "modular" else CAMERA_ATTACKER_E2E
    )
    return _attacker_template(name).with_budget(budget)


def imu_attacker(budget: float = 1.0) -> LearnedAttacker:
    """The learned IMU attacker (distilled from the camera teacher)."""
    return _attacker_template(IMU_ATTACKER).with_budget(budget)
