"""Observation encoding for the end-to-end driving policy.

The paper's agent consumes stacked semantic-segmentation panoramas. Our
substrate replaces the GPU CNN with an MLP, so the camera is a compact
bird's-eye semantic grid (3 stacked frames) concatenated with normalized
ego measurements (speed, current actuation, lateral position, heading) —
the proprioceptive signals any deployed stack exposes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sensors.base import FrameStack
from repro.sensors.camera import BevCamera, BevCameraConfig
from repro.sim.world import World

#: Camera geometry used by learned policies (driver and camera attacker).
POLICY_CAMERA = BevCameraConfig(
    forward=45.0, backward=5.0, half_width=8.75, rows=15, cols=10
)

_N_EGO_FEATURES = 5


class DrivingObservation:
    """Stateful encoder: camera frame stack + ego measurements."""

    def __init__(
        self,
        camera_config: BevCameraConfig | None = None,
        frames: int = 3,
        reference_speed: float = 16.0,
    ) -> None:
        self._stack = FrameStack(
            BevCamera(camera_config or POLICY_CAMERA), k=frames
        )
        self.reference_speed = float(reference_speed)

    @property
    def observation_dim(self) -> int:
        return self._stack.observation_dim + _N_EGO_FEATURES

    def reset(self) -> None:
        self._stack.reset()

    def observe(self, world: World) -> np.ndarray:
        """The full policy observation for the current tick."""
        frames = self._stack.observe(world)
        state = world.ego.state
        _, d, _ = world.geometry().ego
        ego = np.array(
            [
                state.speed / self.reference_speed,
                state.steer_actuation,
                state.thrust_actuation,
                d / world.road.half_width,
                state.yaw / math.pi,
            ]
        )
        return np.concatenate([frames, ego])

    def observe_batch(self, batch) -> np.ndarray:
        """Policy observations for every episode of a batch, ``[N, dim]``."""
        frames = self._stack.frames_batch(batch)
        _, d, _ = batch.geometry().ego
        ego = np.stack(
            [
                batch.speed[:, 0] / self.reference_speed,
                batch.steer_act[:, 0],
                batch.thrust_act[:, 0],
                d / batch.road.half_width,
                batch.yaw[:, 0] / math.pi,
            ],
            axis=1,
        )
        return np.concatenate([*frames, ego], axis=1)
