"""Experience replay buffer with preallocated storage."""

from __future__ import annotations

import numpy as np


class ReplayBuffer:
    """A fixed-capacity FIFO buffer of transitions.

    Observations are stored as ``float32`` to halve memory (the default
    camera observation is ~400 floats per frame stack); samples are
    returned as ``float64`` for the SAC update.
    """

    def __init__(self, capacity: int, obs_dim: int, action_dim: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.obs = np.zeros((capacity, obs_dim), dtype=np.float32)
        self.actions = np.zeros((capacity, action_dim), dtype=np.float32)
        self.rewards = np.zeros(capacity, dtype=np.float32)
        self.next_obs = np.zeros((capacity, obs_dim), dtype=np.float32)
        self.dones = np.zeros(capacity, dtype=np.float32)
        self._index = 0
        self._size = 0

    def add(
        self,
        obs: np.ndarray,
        action: np.ndarray,
        reward: float,
        next_obs: np.ndarray,
        done: bool,
    ) -> None:
        """Append one transition, evicting the oldest when full.

        ``done`` should reflect *environment termination* (collision), not
        time-limit truncation, so bootstrapping stays correct at horizon.
        """
        i = self._index
        self.obs[i] = obs
        self.actions[i] = np.atleast_1d(action)
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = float(done)
        self._index = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def __len__(self) -> int:
        return self._size

    def state_dict(self) -> dict[str, np.ndarray]:
        """Stored transitions plus write cursor, trimmed to live size.

        Only the first ``len(self)`` rows are persisted — for a buffer
        that never filled, that keeps checkpoints proportional to the
        experience actually collected, not the capacity.
        """
        n = self._size
        return {
            "obs": self.obs[:n].copy(),
            "actions": self.actions[:n].copy(),
            "rewards": self.rewards[:n].copy(),
            "next_obs": self.next_obs[:n].copy(),
            "dones": self.dones[:n].copy(),
            "index": np.asarray(self._index, dtype=np.int64),
            "size": np.asarray(n, dtype=np.int64),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        n = int(state["size"])
        if n > self.capacity:
            raise ValueError(
                f"checkpointed buffer holds {n} transitions but capacity "
                f"is {self.capacity}"
            )
        if state["obs"].shape[1:] != self.obs.shape[1:]:
            raise ValueError(
                f"checkpointed obs dim {state['obs'].shape[1:]} does not "
                f"match buffer {self.obs.shape[1:]}"
            )
        for name in ("obs", "actions", "rewards", "next_obs", "dones"):
            getattr(self, name)[:n] = state[name][:n]
        self._index = int(state["index"])
        self._size = n

    def sample(
        self, batch_size: int, rng: np.random.Generator
    ) -> dict[str, np.ndarray]:
        """Uniformly sample a batch of transitions."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        return {
            "obs": self.obs[idx].astype(np.float64),
            "actions": self.actions[idx].astype(np.float64),
            "rewards": self.rewards[idx].astype(np.float64),
            "next_obs": self.next_obs[idx].astype(np.float64),
            "dones": self.dones[idx].astype(np.float64),
        }
