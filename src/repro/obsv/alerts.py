"""Watchdog rules over live training telemetry.

A :class:`Watchdog` consumes trace events incrementally (as the ``watch``
monitor tails a growing file) and fires :class:`Alert` objects when a
training run shows one of the classic RL failure signatures:

========================  ======================================  =========
rule                      trips when                              severity
========================  ======================================  =========
``nan_loss``              any loss/alpha/Q stat goes NaN or inf   critical
``q_divergence``          max |Q| exceeds ``q_limit``             critical
``entropy_collapse``      policy entropy below ``entropy_floor``  warning
                          for ``entropy_patience`` consecutive
                          health records
``reward_plateau``        no new best episode return for          warning
                          ``plateau_window`` episodes
``buffer_starvation``     replay buffer stops growing (while      warning
                          not full) across ``starvation_updates``
                          consecutive health records
``throughput_regression`` env steps/sec below ``throughput_ratio``  warning
                          x the run's peak for
                          ``throughput_patience`` records
========================  ======================================  =========

The loss/Q/entropy/buffer/throughput rules read the ``update_health``
records the SAC loops emit (:mod:`repro.rl.health`); the plateau rule
reconstructs episode returns from plain ``train_step`` events. Every rule
fires at most once per (rule, loop) pair, and ``alert`` events already in
the trace (a previous watch session) pre-arm the dedup, so re-watching a
file never duplicates alerts.

All thresholds live in :class:`WatchConfig`. ``obsv watch`` sets them
from its flags; ``WatchConfig.from_env()`` reads ``REPRO_WATCH_Q_LIMIT``,
the one threshold of the critical rules, which the SAC loop's in-loop
halt (``SacConfig.halt_on_alert``) acts on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro import knobs

#: Severity levels, mild to fatal.
SEVERITIES = ("warning", "critical")

@dataclass(frozen=True)
class WatchConfig:
    """Thresholds for the watchdog rule-set."""

    #: ``q_divergence`` fires when max |Q| exceeds this.
    q_limit: float = 1e3
    #: ``entropy_collapse`` fires below this policy entropy...
    entropy_floor: float = -8.0
    #: ...sustained for this many consecutive health records.
    entropy_patience: int = 3
    #: ``reward_plateau`` fires after this many episodes with no new best
    #: return (needs at least ``plateau_window + 1`` finished episodes).
    plateau_window: int = 30
    #: ``buffer_starvation`` fires when the replay buffer is not full yet
    #: stays the same size across this many consecutive health records.
    starvation_updates: int = 50
    #: ``throughput_regression`` fires when steps/sec drops below this
    #: fraction of the run's peak...
    throughput_ratio: float = 0.5
    #: ...for this many consecutive health records (after the first
    #: ``throughput_warmup`` records establish a peak).
    throughput_patience: int = 3
    throughput_warmup: int = 5

    @classmethod
    def from_env(cls, **overrides) -> "WatchConfig":
        """Defaults, with ``q_limit`` from ``REPRO_WATCH_Q_LIMIT`` if set,
        overridden by the keyword arguments that are not None."""
        values = {"q_limit": knobs.get("REPRO_WATCH_Q_LIMIT")}
        values.update({k: v for k, v in overrides.items() if v is not None})
        return replace(
            cls(), **{k: v for k, v in values.items() if v is not None}
        )


@dataclass(frozen=True)
class Alert:
    """One watchdog firing; converts 1:1 into an ``alert`` trace event."""

    rule: str
    severity: str
    message: str
    loop: str = ""
    step: int | None = None
    update: int | None = None
    value: float | None = None
    threshold: float | None = None

    def to_event(self) -> dict:
        """Fields for ``TraceWriter.emit("alert", **fields)``."""
        fields: dict = {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        if self.loop:
            fields["loop"] = self.loop
        if self.step is not None:
            fields["step"] = int(self.step)
        if self.update is not None:
            fields["update"] = int(self.update)
        if self.value is not None:
            fields["value"] = float(self.value)
        if self.threshold is not None:
            fields["threshold"] = float(self.threshold)
        return fields


@dataclass
class _LoopState:
    """Per-loop accumulators the rules read."""

    entropy_low_streak: int = 0
    last_buffer_size: int | None = None
    buffer_stall: int = 0
    throughput_peak: float = 0.0
    throughput_records: int = 0
    throughput_low_streak: int = 0
    episode_returns: list = field(default_factory=list)
    best_return: float = -math.inf
    episodes_since_best: int = 0
    running_return: float = 0.0


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class Watchdog:
    """Streaming evaluation of the rule-set over trace events."""

    #: ``update_health`` fields scanned by the ``nan_loss`` rule.
    NAN_FIELDS = ("critic_loss", "actor_loss", "alpha", "q_mean", "q_max")

    def __init__(self, config: WatchConfig | None = None) -> None:
        self.config = config or WatchConfig.from_env()
        self._loops: dict[str, _LoopState] = {}
        self._fired: set[tuple[str, str]] = set()
        self.alerts: list[Alert] = []

    def _state(self, loop: str) -> _LoopState:
        state = self._loops.get(loop)
        if state is None:
            state = self._loops[loop] = _LoopState()
        return state

    def _fire(self, alert: Alert) -> Alert | None:
        key = (alert.rule, alert.loop)
        if key in self._fired:
            return None
        self._fired.add(key)
        self.alerts.append(alert)
        return alert

    def observe(self, event: dict) -> list[Alert]:
        """Feed one decoded trace event; returns any newly fired alerts."""
        kind = event.get("event")
        if kind == "alert":
            # A previous watch session already recorded this; arm dedup.
            self._fired.add((str(event.get("rule")), str(event.get("loop", ""))))
            return []
        if kind == "update_health":
            return self._observe_health(event)
        if kind == "train_step":
            return self._observe_train_step(event)
        return []

    # -- update_health rules --------------------------------------------------------

    def _observe_health(self, event: dict) -> list[Alert]:
        cfg = self.config
        loop = str(event.get("loop", ""))
        state = self._state(loop)
        step = event.get("step")
        update = event.get("update")
        fired: list[Alert] = []

        def fire(rule, severity, message, value=None, threshold=None):
            alert = self._fire(
                Alert(
                    rule=rule, severity=severity, message=message, loop=loop,
                    step=step, update=update, value=value, threshold=threshold,
                )
            )
            if alert is not None:
                fired.append(alert)

        for name in self.NAN_FIELDS:
            value = event.get(name)
            if value is not None and not _finite(value):
                fire(
                    "nan_loss", "critical",
                    f"{name} is non-finite ({value})", value=float(value),
                )
                break

        q_max = event.get("q_max")
        if _finite(q_max) and q_max > cfg.q_limit:
            fire(
                "q_divergence", "critical",
                f"max |Q| {q_max:.3g} exceeds limit {cfg.q_limit:g}",
                value=float(q_max), threshold=cfg.q_limit,
            )

        entropy = event.get("entropy")
        if _finite(entropy):
            if entropy < cfg.entropy_floor:
                state.entropy_low_streak += 1
                if state.entropy_low_streak >= cfg.entropy_patience:
                    fire(
                        "entropy_collapse", "warning",
                        f"policy entropy {entropy:.3g} below floor "
                        f"{cfg.entropy_floor:g} for "
                        f"{state.entropy_low_streak} consecutive records",
                        value=float(entropy), threshold=cfg.entropy_floor,
                    )
            else:
                state.entropy_low_streak = 0

        buffer_size = event.get("buffer_size")
        buffer_capacity = event.get("buffer_capacity")
        if isinstance(buffer_size, int):
            full = (
                isinstance(buffer_capacity, int)
                and buffer_size >= buffer_capacity
            )
            if state.last_buffer_size == buffer_size and not full:
                state.buffer_stall += 1
                if state.buffer_stall >= cfg.starvation_updates:
                    fire(
                        "buffer_starvation", "warning",
                        f"replay buffer stuck at {buffer_size} transitions "
                        f"across {state.buffer_stall} update-health records",
                        value=float(buffer_size),
                    )
            else:
                state.buffer_stall = 0
            state.last_buffer_size = buffer_size

        steps_per_s = event.get("steps_per_s")
        if _finite(steps_per_s) and steps_per_s > 0.0:
            state.throughput_records += 1
            if state.throughput_records <= self.config.throughput_warmup:
                state.throughput_peak = max(
                    state.throughput_peak, steps_per_s
                )
            else:
                floor = state.throughput_peak * cfg.throughput_ratio
                if steps_per_s < floor:
                    state.throughput_low_streak += 1
                    if state.throughput_low_streak >= cfg.throughput_patience:
                        fire(
                            "throughput_regression", "warning",
                            f"{steps_per_s:.3g} steps/s is below "
                            f"{cfg.throughput_ratio:g}x the run peak "
                            f"({state.throughput_peak:.3g} steps/s)",
                            value=float(steps_per_s), threshold=floor,
                        )
                else:
                    state.throughput_low_streak = 0
                    state.throughput_peak = max(
                        state.throughput_peak, steps_per_s
                    )
        return fired

    # -- train_step rules -----------------------------------------------------------

    def _observe_train_step(self, event: dict) -> list[Alert]:
        cfg = self.config
        loop = str(event.get("loop", ""))
        state = self._state(loop)
        reward = event.get("reward")
        if _finite(reward):
            state.running_return += float(reward)
        if not event.get("done"):
            return []
        episode_return = state.running_return
        state.running_return = 0.0
        state.episode_returns.append(episode_return)
        if episode_return > state.best_return:
            state.best_return = episode_return
            state.episodes_since_best = 0
            return []
        state.episodes_since_best += 1
        if state.episodes_since_best < cfg.plateau_window:
            return []
        alert = self._fire(
            Alert(
                rule="reward_plateau", severity="warning",
                message=(
                    f"no new best episode return for "
                    f"{state.episodes_since_best} episodes "
                    f"(best {state.best_return:.3g} over "
                    f"{len(state.episode_returns)} episodes)"
                ),
                loop=loop, step=event.get("step"),
                value=float(episode_return), threshold=state.best_return,
            )
        )
        return [alert] if alert is not None else []
