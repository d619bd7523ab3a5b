"""Vehicle dynamics: kinematic bicycle model with Eq. (1) actuation smoothing.

Controls are normalized: ``steer`` in ``[-1, 1]`` maps to the road-wheel
angle (positive = right turn, matching the paper's sign convention), and
``thrust`` in ``[-1, 1]`` maps to throttle (positive) or brake (negative).
Per the paper, agents command the *variation* ``nu`` (steer) and ``gamma``
(thrust); the applied actuation is the exponential blend of Eq. (1):

    a_t = (1 - alpha) * nu_t + alpha * a_{t-1}
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.sim.config import EPSILON_MECH, VehicleConfig
from repro.utils.geometry import OrientedBox, clamp, normalize_angle


@dataclass(frozen=True)
class Control:
    """A raw control command: steering and thrust variations, Eq. (1) inputs."""

    steer: float = 0.0
    thrust: float = 0.0

    def clipped(self, limit: float = EPSILON_MECH) -> "Control":
        """Clamp both channels to the mechanical limit ``[-limit, limit]``."""
        return Control(
            steer=clamp(self.steer, -limit, limit),
            thrust=clamp(self.thrust, -limit, limit),
        )


@dataclass
class VehicleState:
    """Full kinematic state of a vehicle."""

    x: float = 0.0
    y: float = 0.0
    yaw: float = 0.0
    speed: float = 0.0
    #: Smoothed actuation values a_{t-1} of Eq. (1).
    steer_actuation: float = 0.0
    thrust_actuation: float = 0.0

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def velocity(self) -> np.ndarray:
        return self.speed * np.array([math.cos(self.yaw), math.sin(self.yaw)])

    def copy(self) -> "VehicleState":
        return replace(self)


@dataclass(frozen=True)
class ImuSample:
    """One inertial sample: body-frame longitudinal accel and yaw rate."""

    accel_long: float
    accel_lat: float
    yaw_rate: float


class Vehicle:
    """A simulated vehicle advanced by the kinematic bicycle model.

    Attributes:
        name: identifier used by the world and collision reports.
        config: physical parameters.
        state: mutable kinematic state.
        imu_trace: inertial samples recorded during the last ``step`` call,
            one per physics sub-step (consumed by :class:`repro.sensors.Imu`).
    """

    def __init__(
        self,
        name: str,
        config: VehicleConfig | None = None,
        state: VehicleState | None = None,
    ) -> None:
        self.name = name
        self.config = config or VehicleConfig()
        self.state = state or VehicleState()
        self.imu_trace: list[ImuSample] = []
        self._pending = Control()

    # -- control -------------------------------------------------------------

    def apply_control(self, control: Control) -> None:
        """Queue the control variations for the next :meth:`step`.

        The command is clamped to the mechanical limit before use, mirroring
        the paper's ``nu, gamma in [-epsilon, epsilon]``.
        """
        self._pending = control.clipped()

    @property
    def pending_control(self) -> Control:
        """The command queued for the next step (post mechanical clamp)."""
        return self._pending

    def smoothed_actuation(self, control: Control) -> tuple[float, float]:
        """Eq. (1): blend ``control`` with the previous actuation values."""
        cfg = self.config
        steer = (1.0 - cfg.steer_retain) * control.steer + (
            cfg.steer_retain * self.state.steer_actuation
        )
        thrust = (1.0 - cfg.thrust_retain) * control.thrust + (
            cfg.thrust_retain * self.state.thrust_actuation
        )
        return steer, thrust

    # -- dynamics --------------------------------------------------------------

    def step(self, dt: float, substeps: int = 1) -> None:
        """Advance the vehicle by ``dt`` seconds using the pending control.

        Integration runs in ``substeps`` sub-intervals; each sub-step appends
        one :class:`ImuSample` to :attr:`imu_trace` (the trace is reset at the
        start of every call).
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        steer_act, thrust_act = self.smoothed_actuation(self._pending)
        self.state.steer_actuation = steer_act
        self.state.thrust_actuation = thrust_act
        self.imu_trace = []
        sub_dt = dt / substeps
        for _ in range(substeps):
            self._integrate(steer_act, thrust_act, sub_dt)

    def _integrate(self, steer_act: float, thrust_act: float, dt: float) -> None:
        cfg = self.config
        state = self.state
        if thrust_act >= 0.0:
            accel = thrust_act * cfg.max_accel
        else:
            accel = thrust_act * cfg.max_brake
        accel -= cfg.drag * state.speed * state.speed
        new_speed = clamp(state.speed + accel * dt, 0.0, cfg.max_speed)
        achieved_accel = (new_speed - state.speed) / dt

        # Positive steer = right turn = negative (clockwise) yaw rate.
        wheel_angle = steer_act * cfg.max_steer_angle
        yaw_rate = -new_speed / cfg.wheelbase * math.tan(wheel_angle)
        if new_speed > 1e-6:
            limit = cfg.max_lateral_accel / new_speed
            yaw_rate = clamp(yaw_rate, -limit, limit)
        lateral_accel = yaw_rate * new_speed

        mid_yaw = state.yaw + 0.5 * yaw_rate * dt
        mid_speed = 0.5 * (state.speed + new_speed)
        state.x += mid_speed * math.cos(mid_yaw) * dt
        state.y += mid_speed * math.sin(mid_yaw) * dt
        state.yaw = normalize_angle(state.yaw + yaw_rate * dt)
        state.speed = new_speed
        self.imu_trace.append(
            ImuSample(
                accel_long=achieved_accel,
                accel_lat=lateral_accel,
                yaw_rate=yaw_rate,
            )
        )

    # -- queries ---------------------------------------------------------------

    def footprint(self) -> OrientedBox:
        """The vehicle's oriented bounding box in the world frame."""
        return OrientedBox(
            center=(self.state.x, self.state.y),
            yaw=self.state.yaw,
            length=self.config.length,
            width=self.config.width,
        )

    def teleport(
        self, x: float, y: float, yaw: float = 0.0, speed: float = 0.0
    ) -> None:
        """Reset pose and speed; clears actuation state and pending control."""
        self.state = VehicleState(x=x, y=y, yaw=yaw, speed=speed)
        self._pending = Control()
        self.imu_trace = []
