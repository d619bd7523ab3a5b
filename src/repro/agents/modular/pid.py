"""PID controllers for the modular driving pipeline (Section III-B).

The pipeline uses a longitudinal PID (speed -> thrust variation) and a
lateral PID (bearing to a lookahead point on the reference path -> steering
variation), mirroring CARLA Autopilot's ``VehiclePIDController``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.geometry import clamp, clamp_array


@dataclass(frozen=True)
class PidGains:
    """Proportional / integral / derivative gains."""

    kp: float
    ki: float = 0.0
    kd: float = 0.0


class Pid:
    """A scalar PID loop with integral clamping and output saturation."""

    def __init__(
        self,
        gains: PidGains,
        dt: float,
        output_limit: float = 1.0,
        integral_limit: float = 1.0,
    ) -> None:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.gains = gains
        self.dt = dt
        self.output_limit = float(output_limit)
        self.integral_limit = float(integral_limit)
        self._integral = 0.0
        self._last_error: float | None = None

    def step(self, error: float) -> float:
        """Advance the loop by one tick and return the saturated output."""
        self._integral = clamp(
            self._integral + error * self.dt,
            -self.integral_limit,
            self.integral_limit,
        )
        derivative = 0.0
        if self._last_error is not None:
            derivative = (error - self._last_error) / self.dt
        self._last_error = error
        g = self.gains
        output = g.kp * error + g.ki * self._integral + g.kd * derivative
        return clamp(output, -self.output_limit, self.output_limit)

    def reset(self) -> None:
        self._integral = 0.0
        self._last_error = None


class BatchPid:
    """``[K, N]`` independent :class:`Pid` loops as one array expression.

    Row ``(k, i)`` reproduces a scalar ``Pid`` with ``gains[k]`` fed
    episode ``i``'s errors: the integral clamp, first-step derivative
    suppression, and output saturation all evaluate per row.
    """

    def __init__(
        self,
        gains: tuple[PidGains, ...],
        dt: float,
        n: int,
        output_limit: float = 1.0,
        integral_limit: float = 1.0,
    ) -> None:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.gains = tuple(gains)
        self.dt = dt
        self.output_limit = float(output_limit)
        self.integral_limit = float(integral_limit)
        self._kp, self._ki, self._kd = (  # [K, 1] columns
            np.array([[getattr(g, name)] for g in self.gains], dtype=float)
            for name in ("kp", "ki", "kd")
        )
        shape = (len(self.gains), n)
        self._integral = np.zeros(shape)
        self._last_error = np.zeros(shape)
        # Every row resets and steps together, so one flag serves them all.
        self._has_last = False

    def step(self, error: np.ndarray) -> np.ndarray:
        """Advance all loops one tick; returns the saturated outputs."""
        error = np.asarray(error, dtype=float)
        integral = np.multiply(error, self.dt)
        integral += self._integral
        self._integral = clamp_array(
            integral, -self.integral_limit, self.integral_limit, out=integral
        )
        derivative = (
            (error - self._last_error) / self.dt
            if self._has_last
            else np.zeros_like(error)
        )
        self._last_error = error.copy()
        self._has_last = True
        output = self._kp * error + self._ki * integral + self._kd * derivative
        return clamp_array(output, -self.output_limit, self.output_limit)

    def reset(self) -> None:
        self._integral[:] = 0.0
        self._last_error[:] = 0.0
        self._has_last = False


#: Default gains tuned for the paper's aggressive freeway configuration.
LATERAL_GAINS = PidGains(kp=1.9, ki=0.05, kd=0.25)
LONGITUDINAL_GAINS = PidGains(kp=0.55, ki=0.08, kd=0.0)
