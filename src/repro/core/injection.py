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
from repro.utils.geometry import clamp, clamp_array, count_nonzero

#: A tick injects when its |delta| is above this; at or below it the
#: attacker is lurking. Only injecting ticks count toward the attack
#: effort, the active ticks and the activations.
ACTIVE_THRESHOLD = 0.05


def strike_level(budget: float, fraction: float = 0.5) -> float:
    """The |delta| from which an injection is a strike, not lurk-phase
    dithering: ``fraction`` of the attack budget, floored at
    :data:`ACTIVE_THRESHOLD`."""
    return max(ACTIVE_THRESHOLD, fraction * float(budget))


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
    """Converts normalized attack actions into physical steering deltas.

    Stateless but for the noise generator: the runner books the effort of
    the deltas it is handed (:class:`~repro.eval.episodes.EpisodeLedger`).
    """

    def __init__(
        self,
        config: InjectionChannelConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or InjectionChannelConfig()
        self.rng = rng or np.random.default_rng(0)

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
        return clamp(delta, -cfg.budget, cfg.budget)


class BatchInjectionChannel:
    """N independent :class:`InjectionChannel` lanes advanced per tick.

    Lane ``i`` reproduces a scalar channel fed episode ``i``'s actions:
    the clip → quantize → noise → clip pipeline evaluates per row.
    Finished episodes are excluded via the ``active`` mask: they inject 0
    and their noise streams do not advance, matching a scalar channel
    that simply stops being called.
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

    @property
    def budget(self) -> float:
        return self.config.budget

    def inject(
        self, normalized_actions: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """Per-episode perturbations for policy outputs in [-1, 1], ``[N]``.

        Rows where ``active`` is False return 0 and leave their noise
        generators untouched.
        """
        cfg = self.config
        delta = clamp_array(normalized_actions, -1.0, 1.0)
        delta *= cfg.budget
        if cfg.quantization > 0.0:
            delta = np.round(delta / cfg.quantization) * cfg.quantization
        if cfg.noise_std > 0.0:
            if self.rngs is None:
                raise ValueError("noise_std > 0 requires per-lane rngs")
            for i in np.flatnonzero(active):
                delta[i] += float(self.rngs[i].normal(0.0, cfg.noise_std))
        clamp_array(delta, -cfg.budget, cfg.budget, out=delta)
        if count_nonzero(active) < self.n:
            np.copyto(delta, 0.0, where=~active)
        return delta
