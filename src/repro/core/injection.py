"""The action-space injection channel (Sections IV-B and IV-C).

Models the physical pathway the paper describes — CAN-bus message
manipulation or intentional electromagnetic interference (IEMI) on the
steering servo's analog line — as an additive perturbation of the steering
*variation* ``nu`` before the mechanical clamp:

    nu' = clip(nu + delta, -eps_mech, eps_mech),   delta in [-budget, budget]

The channel owns the attack *budget* (the paper's ``epsilon``), converts a
normalized policy output in ``[-1, 1]`` to a physical perturbation, and can
optionally model channel imperfections (quantization of CAN payloads,
zero-mean analog noise for IEMI).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.config import EPSILON_MECH
from repro.utils.geometry import clamp, clamp_array

#: Smallest |delta| that counts as a meaningful injection: below this the
#: attacker is considered to be lurking (used for the attack-effort
#: denominator and for dating attack initiation).
ACTIVE_THRESHOLD = 0.05


@dataclass(frozen=True)
class InjectionChannelConfig:
    """Physical properties of the injection pathway."""

    #: Attack budget epsilon: max |delta| injectable per step.
    budget: float = 1.0
    #: Quantization step of the injected value (CAN payloads are discrete);
    #: 0 disables quantization.
    quantization: float = 0.0
    #: Std of zero-mean analog noise on the injected value (IEMI); 0 = none.
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if self.budget < 0.0 or self.budget > 1.5 * EPSILON_MECH:
            raise ValueError(
                f"budget must be in [0, {1.5 * EPSILON_MECH}], got {self.budget}"
            )
        if self.quantization < 0.0 or self.noise_std < 0.0:
            raise ValueError("quantization and noise_std must be non-negative")


class InjectionChannel:
    """Converts normalized attack actions into physical steering deltas."""

    def __init__(
        self,
        config: InjectionChannelConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or InjectionChannelConfig()
        self.rng = rng or np.random.default_rng(0)
        #: Total |delta| injected since the last reset.
        self.total_effort = 0.0
        self.steps = 0
        #: Steps with a non-negligible injection (the "attack attempt"),
        #: and the |delta| injected during those steps (the numerator of
        #: the paper's *attack effort* metric).
        self.active_steps = 0
        self.active_effort = 0.0

    def reset(self) -> None:
        self.total_effort = 0.0
        self.steps = 0
        self.active_steps = 0
        self.active_effort = 0.0

    @property
    def budget(self) -> float:
        return self.config.budget

    def inject(self, normalized_action: float) -> float:
        """Physical steering perturbation for a policy output in [-1, 1]."""
        cfg = self.config
        delta = clamp(normalized_action, -1.0, 1.0) * cfg.budget
        if cfg.quantization > 0.0:
            delta = round(delta / cfg.quantization) * cfg.quantization
        if cfg.noise_std > 0.0:
            delta += float(self.rng.normal(0.0, cfg.noise_std))
        delta = clamp(delta, -cfg.budget, cfg.budget)
        self.total_effort += abs(delta)
        self.steps += 1
        if abs(delta) > ACTIVE_THRESHOLD:
            self.active_steps += 1
            self.active_effort += abs(delta)
        return delta

    @property
    def mean_effort(self) -> float:
        """Mean |delta| over the steps of the attack attempt (Fig. 5 x-axis).

        Per Section V-B the effort is "the total amount of perturbation
        injected during the attack attempt ... averaged over the number of
        steps in each attack attempt" — i.e. the average over the steps in
        which the attacker actually injected, not over the whole episode.
        Sub-threshold (lurking) perturbations count toward neither the
        numerator nor the denominator, so the mean never exceeds the budget.
        """
        if self.active_steps == 0:
            return 0.0
        return self.active_effort / self.active_steps


class BatchInjectionChannel:
    """N independent :class:`InjectionChannel` lanes advanced per tick.

    Lane ``i`` reproduces a scalar channel fed episode ``i``'s actions:
    the clip → quantize → noise → clip pipeline and the effort
    bookkeeping all evaluate per row. Finished episodes are excluded via
    the ``active`` mask — neither their noise streams nor their effort
    counters advance, matching a scalar channel that simply stops being
    called.
    """

    def __init__(
        self,
        config: InjectionChannelConfig | None = None,
        n: int = 1,
        rngs: list[np.random.Generator] | None = None,
    ) -> None:
        self.config = config or InjectionChannelConfig()
        self.n = int(n)
        if rngs is not None and len(rngs) != self.n:
            raise ValueError(
                f"need one rng per lane: got {len(rngs)} for n={self.n}"
            )
        self.rngs = rngs
        self.total_effort = np.zeros(self.n)
        self.steps = np.zeros(self.n, dtype=np.int64)
        self.active_steps = np.zeros(self.n, dtype=np.int64)
        self.active_effort = np.zeros(self.n)

    def reset(self) -> None:
        self.total_effort[:] = 0.0
        self.steps[:] = 0
        self.active_steps[:] = 0
        self.active_effort[:] = 0.0

    @property
    def budget(self) -> float:
        return self.config.budget

    def inject(
        self, normalized_actions: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """Per-episode perturbations for policy outputs in [-1, 1], ``[N]``.

        Rows where ``active`` is False return 0 and leave all bookkeeping
        (and noise generators) untouched.
        """
        cfg = self.config
        delta = clamp_array(normalized_actions, -1.0, 1.0) * cfg.budget
        if cfg.quantization > 0.0:
            delta = np.round(delta / cfg.quantization) * cfg.quantization
        if cfg.noise_std > 0.0:
            if self.rngs is None:
                raise ValueError("noise_std > 0 requires per-lane rngs")
            for i in np.flatnonzero(active):
                delta[i] += float(self.rngs[i].normal(0.0, cfg.noise_std))
        delta = clamp_array(delta, -cfg.budget, cfg.budget)
        delta = np.where(active, delta, 0.0)
        magnitude = np.abs(delta)
        # An inactive row adds 0.0 to a sum that is never -0.0: unchanged.
        self.total_effort += magnitude
        self.steps += active
        hot = active & (magnitude > ACTIVE_THRESHOLD)
        self.active_steps += hot
        np.add(
            self.active_effort, magnitude, out=self.active_effort, where=hot
        )
        return delta

    @property
    def mean_effort(self) -> np.ndarray:
        """Per-episode mean |delta| over active steps (0 where none)."""
        return np.where(
            self.active_steps > 0,
            self.active_effort / np.maximum(self.active_steps, 1),
            0.0,
        )
