"""Residual-based action-space attack detection.

The paper's Simplex switcher makes an *idealized* assumption: it knows the
attack budget (Section VI-B notes that in practice "the magnitude of a
detected perturbation" could serve as a proxy). This module implements
that proxy, removing the idealization.

Physics: the applied steering actuation follows Eq. (1),

    a_t = (1 - alpha) * nu'_t + alpha * a_{t-1},

where ``nu'_t = clip(nu_t + delta_t)`` is the perturbed variation. The
driving agent knows its own command ``nu_t`` and can read back the applied
actuation ``a_t`` (wheel-angle encoders are standard). Inverting Eq. (1)
recovers ``nu'_t`` and therefore the injected perturbation

    delta_t = (a_t - alpha * a_{t-1}) / (1 - alpha) - nu_t

exactly (up to the mechanical clamp). The detector tracks a decaying peak
of ``|delta_t|`` as its budget estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents.base import DrivingAgent
from repro.agents.e2e.agent import EndToEndAgent
from repro.defense.pnn_defense import SimplexSwitchedAgent
from repro.rl.pnn import ProgressivePolicy
from repro.sim.vehicle import Control
from repro.sim.world import World
from repro.telemetry.metrics import get_registry
from repro.utils.geometry import clamp


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning of the residual detector."""

    #: Residual magnitudes below this are attributed to numerics/noise.
    noise_floor: float = 0.02
    #: Per-step decay of the peak estimate (1.0 = never forget).
    decay: float = 0.995
    #: Consecutive above-floor residuals required before reporting.
    min_consecutive: int = 2


class ResidualAttackDetector:
    """Estimates the attack budget from steering-actuation residuals.

    Telemetry: every *trip* — the streak of above-floor residuals first
    reaching ``min_consecutive`` — increments the
    ``detector_trips_total{context=...}`` counter; a trip in a
    ``context="nominal"`` episode additionally counts as
    ``detector_false_trips_total`` (there is no attack to detect). The
    ``detector_latency_ticks`` gauge records the detection latency of the
    latest trip: update() calls from the first above-floor residual of the
    bout to the trip (the residual itself already lags the injection by
    one control tick).
    """

    def __init__(
        self,
        config: DetectorConfig | None = None,
        context: str = "unlabeled",
    ) -> None:
        #: Evaluation context stamped on trip counters — set to
        #: ``"nominal"`` when evaluating attack-free episodes so trips
        #: there are countable as false positives.
        self.context = context
        self.config = config or DetectorConfig()
        self._last_command: float | None = None
        self._last_actuation: float | None = None
        self._estimate = 0.0
        self._streak = 0
        self._ticks = 0
        self._bout_start: int | None = None
        self._tripped = False

    def reset(self) -> None:
        self._last_command = None
        self._last_actuation = None
        self._estimate = 0.0
        self._streak = 0
        self._ticks = 0
        self._bout_start = None
        self._tripped = False

    @property
    def estimate(self) -> float:
        """The current attack-budget estimate (0 when no attack seen)."""
        return self._estimate

    def residual(self, world: World) -> float:
        """The injected perturbation recovered from the last tick.

        Call after the world ticked, before issuing the next command.
        Returns 0.0 until one full command/actuation pair is available.
        """
        if self._last_command is None or self._last_actuation is None:
            return 0.0
        vehicle = world.ego
        retain = vehicle.config.steer_retain
        applied = vehicle.state.steer_actuation
        perturbed_variation = (applied - retain * self._last_actuation) / (
            1.0 - retain
        )
        return float(perturbed_variation - self._last_command)

    def observe_command(self, world: World, command: Control) -> None:
        """Record the command about to be issued (pre-tick)."""
        self._last_command = clamp(command.steer, -1.0, 1.0)
        self._last_actuation = world.ego.state.steer_actuation

    def update(self, world: World) -> float:
        """Fold the last tick's residual into the estimate (post-tick)."""
        cfg = self.config
        residual = abs(self.residual(world))
        self._ticks += 1
        self._estimate *= cfg.decay
        if residual > cfg.noise_floor:
            if self._streak == 0:
                self._bout_start = self._ticks
            self._streak += 1
            if self._streak >= cfg.min_consecutive:
                if not self._tripped:
                    self._tripped = True
                    self._record_trip()
                self._estimate = max(self._estimate, residual)
        else:
            self._streak = 0
            self._bout_start = None
            self._tripped = False
        return self._estimate

    def _record_trip(self) -> None:
        registry = get_registry()
        registry.counter("detector_trips_total", context=self.context).inc()
        if self.context == "nominal":
            registry.counter("detector_false_trips_total").inc()
        onset = self._bout_start if self._bout_start is not None else self._ticks
        registry.gauge("detector_latency_ticks").set(self._ticks - onset)


class DetectorSwitchedAgent(DrivingAgent):
    """Simplex agent whose switcher is driven by the residual detector.

    Unlike :class:`~repro.defense.pnn_defense.SimplexSwitchedAgent` this
    agent needs no external knowledge of the attack budget: it infers it
    from its own steering residuals, one control tick behind reality.
    """

    def __init__(
        self,
        original: EndToEndAgent,
        hardened_policy: ProgressivePolicy,
        sigma: float = 0.2,
        detector: ResidualAttackDetector | None = None,
        context: str = "unlabeled",
    ) -> None:
        self.simplex = SimplexSwitchedAgent(original, hardened_policy, sigma)
        self.detector = detector or ResidualAttackDetector(context=context)
        self.name = f"pnn-detector(sigma={sigma:.1f})"

    @property
    def believed_budget(self) -> float:
        return self.detector.estimate

    def reset(self, world: World) -> None:
        self.simplex.reset(world)
        self.detector.reset()

    def act(self, world: World) -> Control:
        estimate = self.detector.update(world)
        self.simplex.inform_budget(estimate)
        control = self.simplex.act(world)
        self.detector.observe_command(world, control)
        return control
