"""repro — reproduction of "Susceptibility of Autonomous Driving Agents to
Learning-Based Action-Space Attacks" (DSN 2023).

Subpackages:
    sim: freeway driving simulator (CARLA substitute).
    sensors: semantic-segmentation camera and IMU models.
    agents: modular PID pipeline and end-to-end DRL driving agents.
    rl: numpy DRL substrate (closed-form gradients, SAC, behaviour
        cloning, PNN).
    core: the paper's contribution — learning-based action-space attacks.
    defense: adversarial fine-tuning and PNN enhancement with a switcher.
    eval: episode runner and metrics.
    experiments: drivers regenerating every figure in the evaluation.
"""

import os as _os

__version__ = "1.0.0"

# REPRO_PROF opts the whole process into the profiling layer
# (repro.obsv.prof): span self-time, optional stack sampling and
# allocation tracking, FLOP accounting, with the PROFILE_* report bundle
# written at interpreter exit. One env check when unset — nothing is
# imported and nothing runs.
if _os.environ.get("REPRO_PROF", "").strip().lower() not in (
    "", "0", "false", "no", "off"
):
    from repro.obsv.prof import install_from_env as _install_prof

    _install_prof()

