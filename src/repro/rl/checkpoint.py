"""The crash-safe SAC training loop and its resumable state.

:func:`run_sac_loop` is the one SAC loop in the repo: attacker
refinement (``sac-attack``, ``sac-imu``), driver refinement
(``sac-driver``) and adversarial fine-tuning (``sac-finetune``) all run
it on their own environment and learner.

A :class:`TrainState` captures everything the loop needs to continue
*bit-identically* after a crash: actor/critic/target weights,
optimizer moments, the replay buffer contents, the shared RNG stream
state, and the loop counters. Snapshots are taken at episode boundaries
only — between an episode's final ``update`` and the next ``env.reset``
the simulation world is dead and the loop state is exactly this tuple,
so a resumed run replays the same RNG draws the uninterrupted run would
have made.

:class:`Snapshotter` handles the disk side (periodic cadence,
keep-last-K rotation, corrupt-snapshot fallback), and
:class:`SacLoopGuard` packages the whole protocol — resume, fault
hooks, periodic snapshots, and watchdog checkpoint-and-halt — behind
the four calls the loop makes.

The run settings are :class:`repro.rl.sac.SacConfig` fields and
nothing else: ``health_every``, ``checkpoint_every``,
``checkpoint_dir``, ``checkpoint_keep``, ``resume`` and
``halt_on_alert``. :func:`run_sac_loop` refuses an out-of-range one
before its first step.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import faults
from repro.obsv.alerts import Alert, Watchdog
from repro.rl.health import HealthEmitter
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import span
from repro.telemetry.trace import default_writer
from repro.utils.serialization import (
    CheckpointCorruptError,
    load_checkpoint,
    save_checkpoint,
)

log = get_logger("rl.checkpoint")

#: Periodic/final snapshots eligible for rotation and auto-resume.
_SNAPSHOT_RE = re.compile(r"^state_step(\d{8})\.npz$")
#: Emergency snapshots are captured mid-episode, so they are *not*
#: resume-safe; they get a distinct name that auto-resume skips.
_ALERT_PREFIX = "state_alert_"

#: ``update_health`` fields forwarded to the in-loop watchdog.
_WATCH_FIELDS = (
    "critic_loss", "actor_loss", "alpha", "q_mean", "q_max", "entropy",
)


# -- state capture ------------------------------------------------------------------


@dataclass
class TrainState:
    """A complete, serializable snapshot of a SAC loop's live state."""

    loop: str
    #: The next environment-step index the loop will execute.
    step: int
    #: Episodes finished so far.
    episode: int
    total_updates: int
    #: ``rng.bit_generator.state`` — a JSON-able dict of Python ints.
    rng_state: dict
    #: Flattened arrays, prefixed ``sac:``, ``opt:<name>:``, ``replay:``.
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    final: bool = False

    def counters(self) -> dict:
        return {
            "loop": self.loop,
            "step": self.step,
            "episode": self.episode,
            "total_updates": self.total_updates,
            "final": self.final,
        }


def capture(
    sac,
    loop: str,
    step: int,
    episode: int,
    rng: np.random.Generator,
    final: bool = False,
) -> TrainState:
    """Snapshot a learner + loop counters into a :class:`TrainState`.

    Must be called at an episode boundary (after the step's update,
    before the next ``env.reset``) for the resulting state to resume
    bit-identically; ``step`` is the index of the next step to run.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, value in sac.state_dict().items():
        arrays[f"sac:{name}"] = np.array(value, copy=True)
    for opt_name, opt in (
        ("actor", sac.actor_opt),
        ("critic", sac.critic_opt),
        ("alpha", sac.alpha_opt),
    ):
        for name, value in opt.state_dict().items():
            arrays[f"opt:{opt_name}:{name}"] = np.array(value, copy=True)
    for name, value in sac.replay.state_dict().items():
        arrays[f"replay:{name}"] = np.array(value, copy=True)
    return TrainState(
        loop=loop,
        step=int(step),
        episode=int(episode),
        total_updates=int(sac.total_updates),
        rng_state=rng.bit_generator.state,
        arrays=arrays,
        final=final,
    )


def restore(state: TrainState, sac, rng: np.random.Generator) -> None:
    """Load a :class:`TrainState` back into a live learner and RNG.

    The RNG stream is restored in place, so every object sharing the
    generator (env, learner, injector) continues the original sequence.
    """

    def split(prefix: str) -> dict[str, np.ndarray]:
        return {
            name[len(prefix):]: value
            for name, value in state.arrays.items()
            if name.startswith(prefix)
        }

    sac.load_state_dict(split("sac:"))
    sac.actor_opt.load_state_dict(split("opt:actor:"))
    sac.critic_opt.load_state_dict(split("opt:critic:"))
    sac.alpha_opt.load_state_dict(split("opt:alpha:"))
    sac.replay.load_state_dict(split("replay:"))
    sac.total_updates = state.total_updates
    rng.bit_generator.state = state.rng_state


def save_state(state: TrainState, path: str | Path) -> Path:
    """Write a :class:`TrainState` through the atomic checkpoint writer."""
    meta = {"train_state": dict(state.counters(), rng_state=state.rng_state)}
    return save_checkpoint(path, state.arrays, meta)


def load_state(path: str | Path) -> TrainState:
    """Read a snapshot written by :func:`save_state` (verified).

    Counters this version does not keep are ignored, so snapshots
    written by older versions still load and resume.
    """
    arrays, meta = load_checkpoint(path)
    info = meta.get("train_state")
    if not isinstance(info, dict):
        raise CheckpointCorruptError(
            path, "missing train_state metadata (not a training snapshot)"
        )
    return TrainState(
        loop=str(info.get("loop", "")),
        step=int(info["step"]),
        episode=int(info.get("episode", 0)),
        total_updates=int(info.get("total_updates", 0)),
        rng_state=info["rng_state"],
        arrays=arrays,
        final=bool(info.get("final", False)),
    )


# -- disk management ----------------------------------------------------------------


class Snapshotter:
    """Periodic snapshot writer with rotation and corrupt-file fallback."""

    def __init__(
        self, directory: str | Path, every: int, keep: int, loop: str
    ) -> None:
        self.directory = Path(directory)
        self.every = int(every)
        self.keep = int(keep)
        self.loop = loop
        self._last_step: int | None = None
        self._failures = get_registry().counter("checkpoint_write_failures_total")

    def maybe_save(self, state: TrainState) -> Path | None:
        """Save if a snapshot is due (call at episode boundaries only)."""
        if self.every <= 0:
            return None
        last = self._last_step if self._last_step is not None else 0
        if not state.final and state.step - last < self.every:
            return None
        return self.save(state)

    def save(self, state: TrainState, tag: str | None = None) -> Path | None:
        """Write one snapshot; a full disk degrades to a warning.

        The atomic writer guarantees the previous snapshot survives a
        failed write untouched, so training continues on ``OSError``
        rather than dying with progress unsaved in memory.
        """
        prefix = _ALERT_PREFIX if tag == "alert" else "state_"
        path = self.directory / f"{prefix}step{state.step:08d}.npz"
        try:
            save_state(state, path)
        except OSError as error:
            self._failures.inc()
            log.warning(
                "checkpoint.write_failed", loop=self.loop, step=state.step,
                path=str(path), error=str(error),
            )
            return None
        if tag != "alert":
            self._last_step = state.step
            self._rotate()
        log.info(
            "checkpoint.saved", loop=self.loop, step=state.step,
            path=str(path), final=state.final,
        )
        return path

    def _rotate(self) -> None:
        periodic = sorted(
            p for p in self.directory.iterdir() if _SNAPSHOT_RE.match(p.name)
        )
        for stale in periodic[: max(0, len(periodic) - self.keep)]:
            stale.unlink(missing_ok=True)

    def snapshots(self) -> list[Path]:
        """Periodic snapshots on disk, oldest first (alert files excluded)."""
        if not self.directory.is_dir():
            return []
        return sorted(
            p for p in self.directory.iterdir() if _SNAPSHOT_RE.match(p.name)
        )

    def latest_state(self) -> TrainState | None:
        """Newest loadable snapshot, skipping corrupt files with a warning.

        This is the torn-tail recovery path: if the newest snapshot was
        truncated by a crash (or failed verification), fall back to the
        previous one rather than refusing to resume.
        """
        for path in reversed(self.snapshots()):
            try:
                state = load_state(path)
            except CheckpointCorruptError as error:
                log.warning(
                    "checkpoint.skipping_corrupt", loop=self.loop,
                    path=str(path), reason=error.reason,
                )
                continue
            self._last_step = state.step
            return state
        return None


# -- the loop-facing protocol -------------------------------------------------------


class TrainingHalted(RuntimeError):
    """A critical watchdog alert stopped training.

    Carries the triggering :class:`~repro.obsv.alerts.Alert` and the
    emergency snapshot path (``None`` if snapshotting was off or the
    write failed), so callers can inspect the run post-mortem.
    """

    def __init__(self, alert: Alert, checkpoint: Path | None) -> None:
        self.alert = alert
        self.checkpoint = checkpoint
        where = f"; state saved to {checkpoint}" if checkpoint else ""
        super().__init__(
            f"training halted by {alert.rule} alert on loop "
            f"{alert.loop or '?'}: {alert.message}{where}"
        )


class SacLoopGuard:
    """Crash-safety protocol for one run of :func:`run_sac_loop`.

    :meth:`start` resumes (returning the first step to run),
    :meth:`on_step` is the fault-injection hook, :meth:`at_boundary`
    takes periodic snapshots before each ``env.reset``,
    :meth:`after_update` feeds the watchdog, and :meth:`finish` writes
    the final snapshot.
    """

    def __init__(
        self, sac, loop: str, rng: np.random.Generator, trace=None
    ) -> None:
        cfg = sac.config
        self.sac = sac
        self.loop = loop
        self.rng = rng
        self.trace = trace
        self.every = cfg.checkpoint_every
        self.resume = cfg.resume
        self.halt = cfg.halt_on_alert
        self.snapshotter: Snapshotter | None = None
        if self.every > 0 or self.resume or self.halt:
            self.snapshotter = Snapshotter(
                Path(cfg.checkpoint_dir) / loop, self.every,
                cfg.checkpoint_keep, loop,
            )
        self._watchdog = Watchdog() if self.halt else None
        #: Finished episodes as of the last boundary (or resumed snapshot).
        self.episode = 0

    def start(self) -> int:
        """Resume from the newest snapshot if configured; returns the
        environment-step index the loop should start from."""
        if self.resume and self.snapshotter is not None:
            state = self.snapshotter.latest_state()
            if state is not None:
                restore(state, self.sac, self.rng)
                self.episode = state.episode
                log.info(
                    "checkpoint.resumed", loop=self.loop, step=state.step,
                    episode=state.episode, updates=state.total_updates,
                )
                return state.step
            log.info("checkpoint.no_snapshot", loop=self.loop)
        return 0

    def on_step(self, step: int) -> None:
        """Call at the top of every loop iteration (fault hook)."""
        plan = faults.active_plan()
        if plan is not None:
            plan.on_train_step(self.loop, step)

    def at_boundary(self, step: int, episode: int) -> None:
        """Call at each episode boundary, before the next ``env.reset``."""
        self.episode = episode
        if self.snapshotter is not None and self.every > 0:
            self.snapshotter.maybe_save(
                capture(self.sac, self.loop, step, episode, self.rng)
            )

    def after_update(self, step: int, stats: dict) -> None:
        """Feed update stats to the in-loop watchdog; halt on critical."""
        if self._watchdog is None:
            return
        event = {
            "event": "update_health",
            "loop": self.loop,
            "step": int(step),
            "update": int(self.sac.total_updates),
        }
        for name in _WATCH_FIELDS:
            if name in stats:
                event[name] = float(stats[name])
        critical = [
            a for a in self._watchdog.observe(event)
            if a.severity == "critical"
        ]
        if not critical:
            return
        alert = critical[0]
        # Mid-episode capture: forensic only, excluded from auto-resume.
        path = None
        if self.snapshotter is not None:
            path = self.snapshotter.save(
                capture(self.sac, self.loop, step, self.episode, self.rng),
                tag="alert",
            )
        if self.trace is not None:
            self.trace.emit("alert", **alert.to_event())
        raise TrainingHalted(alert, path)

    def finish(self, step: int, episode: int) -> None:
        """Write the final snapshot after the loop completes."""
        if self.snapshotter is not None and self.every > 0:
            self.snapshotter.save(
                capture(
                    self.sac, self.loop, step, episode, self.rng, final=True
                )
            )


# -- the loop -----------------------------------------------------------------------


def run_sac_loop(
    sac,
    env,
    steps: int,
    rng: np.random.Generator,
    loop: str,
    trace=None,
    progress: bool = False,
) -> None:
    """Train ``sac`` in place for ``steps`` environment steps of ``env``.

    ``env`` follows ``reset() -> obs`` / ``step(action) -> (obs, reward,
    done, info)`` with ``info["truncated"]`` marking time-limit ends,
    which are not bootstrapping terminals. The reset is deferred to the
    top of the next iteration, so an episode boundary is pure learner
    state: :class:`SacLoopGuard` snapshots there when
    ``sac.config.checkpoint_every`` is set, and ``sac.config.resume``
    continues bit-identically from the newest snapshot. Snapshots
    capture ``rng``, so for an exact resume it must be the generator the
    env and the learner draw from.

    ``trace`` (or the ``REPRO_TRACE`` default writer) receives one
    ``train_step`` record per step, tagged ``loop`` and with the index
    of the ``episode`` it belongs to, plus ``update_health`` records
    every ``sac.config.health_every`` updates.

    Raises:
        ValueError: before the first step, naming the field, when
            ``checkpoint_every`` or ``health_every`` is negative or
            ``checkpoint_keep`` is below 1.
    """
    config = sac.config
    for name, least in (
        ("checkpoint_every", 0), ("health_every", 0), ("checkpoint_keep", 1),
    ):
        value = getattr(config, name)
        if value < least:
            raise ValueError(
                f"SacConfig.{name} must be >= {least}, got {value!r}"
            )
    trace = trace if trace is not None else default_writer()
    health = HealthEmitter(trace, loop, every=config.health_every)
    guard = SacLoopGuard(sac, loop, rng, trace=trace)
    start = guard.start()
    episode = guard.episode
    obs = None
    episode_return = 0.0
    with span("train.sac"):
        for step in range(start, steps):
            guard.on_step(step)
            if obs is None:  # episode boundary: snapshot, then reset
                guard.at_boundary(step, episode)
                obs = env.reset()
                episode_return = 0.0
            action = sac.act(obs)
            next_obs, reward, done, info = env.step(action)
            sac.observe(
                obs, action, reward, next_obs, done and not info["truncated"]
            )
            episode_return += reward
            obs = next_obs
            if trace is not None:
                trace.emit(
                    "train_step", loop=loop, step=step,
                    reward=float(reward), done=bool(done), episode=episode,
                )
            if done:
                episode += 1
                if episode % 20 == 0:
                    (log.info if progress else log.debug)(
                        "sac.episode", loop=loop, step=step,
                        episode=episode, episode_return=episode_return,
                    )
                obs = None
            if step % config.update_every == 0 and len(sac.replay) >= (
                config.batch_size
            ):
                stats = sac.update()
                health.after_update(sac, step, stats)
                guard.after_update(step, stats)
    guard.finish(steps, episode)
    if trace is not None:
        trace.flush()
