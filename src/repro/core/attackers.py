"""Attack policies: the scripted oracle baseline and the learned attacker.

Every attacker implements the :class:`~repro.agents.e2e.env.SteerInjector`
protocol — ``reset(world)`` then ``delta(world, control)`` once per tick —
so victims and evaluation protocols never see attack internals.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.injection import (
    BatchInjectionChannel,
    InjectionChannel,
    InjectionChannelConfig,
)
from repro.core.observations import CameraAttackObservation, ImuAttackObservation
from repro.core.rewards import BETA
from repro.rl.policy import SquashedGaussianPolicy
from repro.sensors.base import Sensor
from repro.sim.batch import NoBatchTwin
from repro.sim.vehicle import Control
from repro.sim.world import World
from repro.utils.serialization import load_checkpoint, save_checkpoint

#: Hidden widths used by all shipped attack policies.
ATTACKER_HIDDEN = (128, 128)


class NullAttacker:
    """No attack: the epsilon = 0 baseline."""

    name = "none"
    budget = 0.0

    def reset(self, world: World) -> None:
        """Nothing to prepare."""

    def delta(self, world: World, control: Control) -> float:
        return 0.0

    @property
    def mean_effort(self) -> float:
        return 0.0


class OracleAttacker:
    """Geometry-aware scripted attacker (model-based baseline).

    Uses privileged world state: inside the critical window of Section IV-D
    it steers the ego toward the nearest NPC at full budget; outside it
    stays silent. Serves both as the comparison baseline and as the
    behaviour-cloning teacher that warm-starts the learned camera attacker.
    """

    name = "oracle"

    def __init__(
        self,
        budget: float = 1.0,
        beta: float = BETA,
        #: Only act when the target NPC is within this range, meters.
        max_range: float = 25.0,
    ) -> None:
        self.channel = InjectionChannel(InjectionChannelConfig(budget=budget))
        self.beta = float(beta)
        self.max_range = float(max_range)

    @property
    def budget(self) -> float:
        return self.channel.budget

    @property
    def mean_effort(self) -> float:
        return self.channel.mean_effort

    def reset(self, world: World) -> None:
        self.channel.reset()

    def normalized_action(self, world: World) -> float:
        """The oracle's decision in [-1, 1] (before budget scaling)."""
        nearest = world.geometry().nearest
        if nearest is None or nearest.distance > self.max_range:
            return 0.0
        if nearest.omega is None or abs(nearest.omega) > self.beta:
            return 0.0
        # Steer toward the target: positive steer turns right (toward
        # negative lateral offsets in the ego frame).
        npc = world.npcs[nearest.index]
        local = world.ego.footprint().to_local(npc.vehicle.state.position)
        return -1.0 if local[1] > 0.0 else 1.0

    def delta(self, world: World, control: Control) -> float:
        return self.channel.inject(self.normalized_action(world))


class LearnedAttacker:
    """A DRL attack policy behind a sensor and the injection channel."""

    def __init__(
        self,
        policy: SquashedGaussianPolicy,
        sensor: Sensor,
        channel: InjectionChannel | None = None,
        name: str = "learned",
        deterministic: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.policy = policy
        self.sensor = sensor
        self.channel = channel or InjectionChannel()
        self.name = name
        self.deterministic = deterministic
        self.rng = rng or np.random.default_rng(0)

    @property
    def budget(self) -> float:
        return self.channel.budget

    @property
    def mean_effort(self) -> float:
        return self.channel.mean_effort

    def with_budget(self, budget: float) -> "LearnedAttacker":
        """A copy of this attacker operating under a different budget."""
        return LearnedAttacker(
            policy=self.policy,
            sensor=self.sensor,
            channel=InjectionChannel(InjectionChannelConfig(budget=budget)),
            name=self.name,
            deterministic=self.deterministic,
            rng=self.rng,
        )

    def reset(self, world: World) -> None:
        self.sensor.reset()
        self.channel.reset()

    def normalized_action(self, world: World) -> float:
        obs = self.sensor.observe(world)
        action = self.policy.act(
            obs, deterministic=self.deterministic, rng=self.rng
        )
        return float(action[0])

    def delta(self, world: World, control: Control) -> float:
        return self.channel.inject(self.normalized_action(world))

    # -- persistence ---------------------------------------------------------------

    def save(self, path: str | Path, extra_meta: dict | None = None) -> Path:
        meta = {
            "kind": f"attacker-{self.name}",
            "obs_dim": self.policy.obs_dim,
            "action_dim": self.policy.action_dim,
            "hidden": list(self.policy.hidden),
            "sensor": type(self.sensor).__name__,
        }
        meta.update(extra_meta or {})
        return save_checkpoint(path, self.policy.state_dict(), meta)

    @classmethod
    def load(
        cls, path: str | Path, budget: float = 1.0, **kwargs
    ) -> "LearnedAttacker":
        """Restore an attacker; the sensor is rebuilt from metadata."""
        arrays, meta = load_checkpoint(path)
        policy = SquashedGaussianPolicy(
            int(meta["obs_dim"]),
            int(meta["action_dim"]),
            tuple(meta.get("hidden", ATTACKER_HIDDEN)),
        )
        policy.load_state_dict(arrays)
        sensor_name = meta.get("sensor", "CameraAttackObservation")
        if sensor_name == "ImuAttackObservation":
            sensor: Sensor = ImuAttackObservation()
            name = "imu"
        else:
            sensor = CameraAttackObservation()
            name = "camera"
        return cls(
            policy,
            sensor,
            channel=InjectionChannel(InjectionChannelConfig(budget=budget)),
            name=meta.get("name", name),
            **kwargs,
        )


# -- batched twins ---------------------------------------------------------------
#
# Each scalar attacker has a lockstep counterpart exposing
# ``deltas(batch) -> [N]`` (called once per tick, before ``batch.tick``).
# Rows that are already done inject 0 and freeze their effort bookkeeping,
# so per-episode statistics match a scalar run of the same seed.


class BatchNullAttacker:
    """Batched epsilon = 0 baseline."""

    name = "none"
    budget = 0.0

    def __init__(self, n: int) -> None:
        self.n = int(n)

    def deltas(self, batch) -> np.ndarray:
        return np.zeros(self.n)

    @property
    def mean_effort(self) -> np.ndarray:
        return np.zeros(self.n)


class BatchOracleAttacker:
    """Vectorized :class:`OracleAttacker`: one geometry pass for N episodes."""

    name = "oracle"

    def __init__(
        self,
        n: int,
        budget: float = 1.0,
        beta: float = BETA,
        max_range: float = 25.0,
    ) -> None:
        self.channel = BatchInjectionChannel(
            InjectionChannelConfig(budget=budget), n=n
        )
        self.beta = float(beta)
        self.max_range = float(max_range)

    @property
    def budget(self) -> float:
        return self.channel.budget

    @property
    def mean_effort(self) -> np.ndarray:
        return self.channel.mean_effort

    def normalized_actions(self, batch) -> np.ndarray:
        """The oracle's per-episode decisions in [-1, 1]."""
        if batch.m == 0:
            return np.zeros(batch.n)
        geometry = batch.geometry()
        nearest = geometry.nearest
        window = (
            (nearest.distance <= self.max_range)
            & nearest.moving
            & (np.abs(nearest.omega) <= self.beta)
        )
        # Ego-frame lateral offset of the target (footprint().to_local y).
        rows = np.arange(batch.n)
        dx, dy = (a[rows, nearest.index] for a in geometry.npc_offsets)
        cos_yaw, sin_yaw = geometry.ego_heading
        local_y = -dx * sin_yaw + dy * cos_yaw
        side = np.where(local_y > 0.0, -1.0, 1.0)
        return np.where(window, side, 0.0)

    def deltas(self, batch) -> np.ndarray:
        return self.channel.inject(self.normalized_actions(batch), ~batch.done)


class BatchLearnedAttacker:
    """Batched deterministic rollout of one :class:`LearnedAttacker` per row.

    Rebuilds the camera observation pipeline with batch support and runs
    the policy through its fused inference plan. Rows share the first
    attacker's policy and channel configuration; row ``i`` draws channel
    noise from attacker ``i``'s rng. Only deterministic camera attackers
    are supported: the IMU trace sensor has no batched observation path,
    and stochastic evaluation is done on the scalar path where noise
    streams are per-episode by construction.
    """

    def __init__(self, attackers: Sequence[LearnedAttacker]) -> None:
        attacker = attackers[0]
        sensor = attacker.sensor
        if not isinstance(sensor, CameraAttackObservation):
            raise NoBatchTwin(
                "batched attack rollout requires a camera sensor; "
                f"got {type(sensor).__name__}"
            )
        if not attacker.deterministic:
            raise NoBatchTwin(
                "batched attack rollout supports deterministic policies only"
            )
        self.name = attacker.name
        self.policy = attacker.policy
        self.sensor = CameraAttackObservation(
            camera_config=sensor._stack.inner.config,
            frames=sensor._stack.k,
        )
        rngs = [a.channel.rng for a in attackers]
        config = attacker.channel.config
        if config.noise_std > 0.0 and len({id(r) for r in rngs}) < len(rngs):
            raise NoBatchTwin(
                "a noisy channel needs its own rng per episode; "
                "build one attacker per episode"
            )
        self.channel = BatchInjectionChannel(
            config, n=len(attackers), rngs=rngs
        )
        self.plan = self.policy.inference_plan(len(attackers))

    @property
    def budget(self) -> float:
        return self.channel.budget

    @property
    def mean_effort(self) -> np.ndarray:
        return self.channel.mean_effort

    def normalized_actions(self, batch) -> np.ndarray:
        obs = self.sensor.observe_batch(batch)
        actions = self.policy.act_batch(
            obs, deterministic=True, plan=self.plan
        )
        return actions[:, 0]

    def deltas(self, batch) -> np.ndarray:
        return self.channel.inject(self.normalized_actions(batch), ~batch.done)


def as_batch_attacker(attackers: Sequence):
    """The lockstep twin of one scalar attacker per batch row.

    ``attackers[i]`` is episode ``i``'s attacker (``None`` = nominal);
    rows share the first one's type and configuration. Raises
    :class:`~repro.sim.batch.NoBatchTwin` for attackers with no batched
    path (IMU sensors, stochastic policies, custom injectors, a noisy
    channel shared by several rows).
    """
    n = len(attackers)
    attacker = attackers[0]
    if attacker is None or isinstance(attacker, NullAttacker):
        return BatchNullAttacker(n)
    if isinstance(attacker, OracleAttacker):
        return BatchOracleAttacker(
            n,
            budget=attacker.budget,
            beta=attacker.beta,
            max_range=attacker.max_range,
        )
    if isinstance(attacker, LearnedAttacker):
        return BatchLearnedAttacker(attackers)
    raise NoBatchTwin(
        f"no batched twin for attacker type {type(attacker).__name__}"
    )
