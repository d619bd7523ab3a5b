"""Sensor base types.

A sensor observes a :class:`~repro.sim.world.World` once per control tick
and produces a numpy observation. Sensors are stateful (frame stacks, IMU
ring buffers) and must be ``reset`` between episodes.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.sim.world import World


class Sensor(abc.ABC):
    """Interface shared by all sensors."""

    @abc.abstractmethod
    def observe(self, world: World) -> np.ndarray:
        """Sample the world and return the current observation."""

    def observe_batch(self, batch) -> np.ndarray:
        """Observations for every episode of a batch world, ``[N, dim]``.

        Optional: only sensors wired into the batch engine implement it
        (the IMU ring buffer, for instance, stays scalar-only).
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no batched observation path"
        )

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear internal state (buffers, stacks) for a new episode."""

    @property
    @abc.abstractmethod
    def observation_dim(self) -> int:
        """Length of the flattened observation vector."""


class FrameStack(Sensor):
    """Stack the last ``k`` frames of an inner sensor (paper: 3 frames).

    Before the first full window the earliest frame is repeated, matching
    the common DRL convention.
    """

    def __init__(self, inner: Sensor, k: int = 3) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.inner = inner
        self.k = k
        self._frames: list[np.ndarray] = []

    def observe(self, world: World) -> np.ndarray:
        frame = self.inner.observe(world)
        if not self._frames:
            self._frames = [frame] * self.k
        else:
            self._frames = self._frames[1:] + [frame]
        return np.concatenate(self._frames)

    def observe_batch(self, batch) -> np.ndarray:
        """Stacked frames per episode, ``[N, k * inner_dim]``."""
        return np.concatenate(self.frames_batch(batch), axis=1)

    def frames_batch(self, batch) -> list[np.ndarray]:
        """The ``k`` frames :meth:`observe_batch` stacks, oldest first,
        ``[N, inner_dim]`` each, for a caller that joins them itself."""
        frame = self.inner.observe_batch(batch)
        if not self._frames:
            self._frames = [frame] * self.k
        else:
            self._frames = self._frames[1:] + [frame]
        return self._frames

    def reset(self) -> None:
        self._frames = []
        self.inner.reset()

    @property
    def observation_dim(self) -> int:
        return self.k * self.inner.observation_dim
