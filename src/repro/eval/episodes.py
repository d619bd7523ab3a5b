"""The canonical episode runner used by training, experiments and benches.

Runs one victim agent (modular or end-to-end) under an optional attacker
and records every metric the paper reports: nominal shaped driving reward,
cumulative adversarial reward, collision outcome, NPCs passed, trajectory
deviation from the privileged reference path, attack effort, and the time
from attack initiation to collision. Those measures are worked out in one
place, :class:`EpisodeLedger`, which the lockstep runner
(:mod:`repro.eval.batch`) feeds too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.agents.base import DrivingAgent
from repro.agents.e2e.reward import DrivingReward, DrivingRewardConfig
from repro.agents.modular.behavior import BehaviorPlanner
from repro.core.attackers import NullAttacker
from repro.core.injection import ACTIVE_THRESHOLD, strike_level
from repro.core.rewards import AdversarialReward, AdversarialRewardConfig
from repro.sim.batch import NoBatchTwin
from repro.sim.collision import Collision, CollisionKind
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import make_world
from repro.sim.world import World
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import get_registry
from repro.telemetry.provenance import stamp_provenance
from repro.telemetry.spans import span
from repro.telemetry.trace import (
    TICK_COLUMNS,
    TraceWriter,
    default_writer,
    tick_columns,
)

VictimFactory = Callable[[World], DrivingAgent]

#: Most seeds one lockstep pass advances: throughput flattens past it
#: (README, "Batched evaluation").
LOCKSTEP_SEEDS = 64

log = get_logger("eval.episodes")


@dataclass(frozen=True)
class EpisodeResult:
    """Everything measured in one evaluation episode."""

    steps: int
    duration: float
    collision: Collision | None
    passed_npcs: int
    nominal_return: float
    adversarial_return: float
    #: The attack effort (Section V-B, Fig. 5 / 7 x-axis): mean |delta|
    #: over the steps of the attack attempt, the ticks whose |delta|
    #: exceeds :data:`~repro.core.injection.ACTIVE_THRESHOLD` (0.0 when
    #: none does). Lurking ticks count in neither the sum nor the count.
    mean_effort: float
    #: RMSE of lateral deviation from the reference path, normalized by
    #: the lane width (Fig. 5 / 7 y-axis).
    deviation_rmse: float
    #: Largest instantaneous normalized deviation.
    deviation_max: float
    #: Seconds from the first injected perturbation to the collision
    #: (None when no attack was injected or no collision happened).
    time_to_collision: float | None

    @property
    def side_collision(self) -> bool:
        return (
            self.collision is not None
            and self.collision.kind is CollisionKind.SIDE
        )

    @property
    def attack_successful(self) -> bool:
        """The attacker's definition of success: a side collision."""
        return self.side_collision


class EpisodeLedger:
    """The books of ``n`` episodes that tick together, one row each.

    :func:`run_episode` keeps one row here and
    :class:`~repro.eval.batch.Lockstep` one per seed. Every row is booked
    by the same arithmetic whoever calls, so its :class:`EpisodeResult`
    and trace records depend neither on the runner nor on the other rows.
    Running totals are always kept; the per-tick log only while a trace
    writer is attached (``trace``, by default the process-wide one).
    ``episodes`` are the rows' trace ids (default: their seeds); the
    victim's and attacker's names and the attacker's budget go on each
    ``episode_start``, and the budget sets the strike level. An attacker
    without a ``name`` or a ``budget`` is refused with ``TypeError``:
    it could not be told apart from nominal driving in the trace.
    """

    def __init__(
        self,
        seeds: Sequence[int],
        victim,
        attacker,
        scenario: ScenarioConfig,
        trace: TraceWriter | None = None,
        episodes: Sequence[int | str] | None = None,
    ) -> None:
        for label in ("name", "budget"):
            if not hasattr(attacker, label):
                raise TypeError(
                    f"attacker {type(attacker).__name__} has no {label!r}"
                    " to label its trace records with"
                )
        self.seeds = list(seeds)
        self.episodes = self.seeds if episodes is None else list(episodes)
        self.victim = str(getattr(victim, "name", "agent"))
        self.attacker = str(attacker.name)
        self.budget = float(attacker.budget)
        self.scenario = scenario
        self.trace = trace if trace is not None else default_writer()
        self.n = n = len(self.seeds)
        self._strike_level = strike_level(self.budget)
        # Running sums, [6, n]: the nominal and adversarial returns, the
        # squared deviation, the active ticks, the activations and the
        # active ticks' |delta|; and a buffer for one tick's increments.
        self._sums, self._increments = np.zeros((6, n)), np.empty((6, n))
        self._deviation_max = np.zeros(n)
        self._first_strike, self._gap = np.full(n, np.inf), np.full(n, np.nan)
        self._was_active = np.zeros(n, dtype=bool)
        # Traced: each tick's TICK_COLUMNS ([C, n]) and live rows ([n]).
        self._ticks: list[np.ndarray] = []
        self._live: list[np.ndarray] = []

    def start(self) -> None:
        """Stamp provenance and emit each row's ``episode_start``."""
        if self.trace is None:
            return
        stamp_provenance(self.trace, self.scenario)
        default = self.scenario == ScenarioConfig()
        for episode, seed in zip(self.episodes, self.seeds):
            self.trace.emit(
                "episode_start", episode=episode, seed=seed,
                victim=self.victim, attacker=self.attacker,
                budget=self.budget,
                scenario="default" if default else "custom",
            )

    def tick(
        self, live, step, time, delta, pose, nominal, adversarial,
        deviation, gap,
    ) -> None:
        """Book one control step: each argument is an ``[n]`` array or a
        scalar for every row. ``live`` marks the rows the tick advanced
        (a frozen row books nothing); ``step`` and ``time`` are after the
        tick, ``delta`` the injected perturbation, ``pose`` the ego's
        ``(x, y, yaw, speed)``, ``nominal`` and ``adversarial`` the step
        rewards, ``deviation`` the lateral deviation from the reference
        path in lane widths and ``gap`` the distance to the nearest NPC
        (NaN without NPCs)."""
        magnitude = np.abs(delta)
        striking = live & (magnitude >= self._strike_level)
        active = magnitude > ACTIVE_THRESHOLD
        dt = self.scenario.dt
        if np.count_nonzero(striking):
            # Time only grows, so the least strike time is the first.
            np.minimum(
                self._first_strike, time - dt, out=self._first_strike,
                where=striking,
            )
        increments = self._increments
        increments[0] = nominal
        increments[1] = adversarial
        np.multiply(deviation, deviation, out=increments[2])
        increments[3] = active
        # A frozen row never books again, so its flag from the tick before
        # no longer matters.
        np.greater(active, self._was_active, out=increments[4])
        self._was_active = active
        np.multiply(magnitude, active, out=increments[5])
        # The one live mask of every sum.
        np.add(self._sums, increments, out=self._sums, where=live)
        np.maximum(
            self._deviation_max, deviation, out=self._deviation_max, where=live
        )
        if self.trace is None:
            return
        # Time to collision from the gap's closing rate, where it closes.
        closing = (self._gap - gap) / dt
        ttc = np.full(self.n, np.nan)
        np.divide(gap, closing, out=ttc, where=closing > 1e-6)
        np.copyto(self._gap, gap, where=live)
        columns = (
            step, time, delta, *pose, nominal, adversarial, deviation, gap,
            ttc,
        )
        row = np.empty((len(columns), self.n))
        for k, column in enumerate(columns):
            row[k] = column
        self._ticks.append(row)
        self._live.append(np.full(self.n, live))

    def finish(
        self, collisions: Sequence[Collision | None], passed_npcs, steps,
        duration,
    ) -> list[EpisodeResult]:
        """Update the metrics registry, emit each ``episode_end`` (its
        live ticks as columns) and return each row's result, in order.
        ``collisions`` lists each row's collision or None; the others are
        ``[n]`` arrays or scalars."""
        n = self.n
        steps = np.full(n, steps)
        (
            nominal, adversarial, deviation_sq, active_ticks, activations,
            active_effort,
        ) = self._sums
        rmse = np.sqrt(deviation_sq / np.maximum(steps, 1))
        effort = np.zeros(n)
        np.divide(
            active_effort, active_ticks, out=effort, where=active_ticks > 0
        )
        to_collision = [
            None if c is None or strike == np.inf else c.time - strike
            for c, strike in zip(collisions, self._first_strike.tolist())
        ]
        results = [
            EpisodeResult(*row)
            for row in zip(
                steps.tolist(), np.full(n, duration, dtype=float).tolist(),
                collisions, np.full(n, passed_npcs).tolist(),
                nominal.tolist(), adversarial.tolist(), effort.tolist(),
                rmse.tolist(),
                self._deviation_max.tolist(), to_collision,
            )
        ]
        registry = get_registry()
        for result, activations, active_ticks in zip(
            results, activations.astype(np.int64).tolist(),
            active_ticks.astype(np.int64).tolist(),
        ):
            registry.counter("episodes_total").inc()
            if activations:
                registry.counter("attack_activations_total").inc(activations)
            if active_ticks:
                registry.counter("attack_active_ticks_total").inc(active_ticks)
            registry.histogram("episode_steps").observe(result.steps)
            registry.histogram("episode_nominal_return").observe(
                result.nominal_return
            )
            registry.histogram("episode_adversarial_return").observe(
                result.adversarial_return
            )
        if self.trace is None:
            return results
        logged = np.stack(self._ticks)  # [ticks, C, n]
        was_live = np.stack(self._live)  # [ticks, n]
        for i, (episode, result) in enumerate(zip(self.episodes, results)):
            collision = result.collision
            columns = dict(zip(TICK_COLUMNS, logged[was_live[:, i], :, i].T))
            columns["tick"] = columns["tick"].astype(np.int64)
            self.trace.emit(
                "episode_end", episode=episode, steps=result.steps,
                duration=result.duration,
                collision=None if collision is None else collision.kind.name,
                collision_with=None if collision is None else collision.other,
                nominal_return=result.nominal_return,
                adversarial_return=result.adversarial_return,
                passed_npcs=result.passed_npcs, ticks=tick_columns(columns),
            )
        self.trace.flush()
        return results


def run_episode(
    victim_factory: VictimFactory,
    attacker=None,
    seed: int = 0,
    scenario: ScenarioConfig | None = None,
    reward_config: DrivingRewardConfig | None = None,
    adversarial_config: AdversarialRewardConfig | None = None,
    trace: TraceWriter | None = None,
    episode_id: int | str | None = None,
) -> EpisodeResult:
    """Run one full episode and measure it.

    Args:
        victim_factory: builds the victim for the fresh world.
        attacker: a ``SteerInjector`` (``None`` = nominal driving) that
            also has a ``name`` and a ``budget``, which label its trace
            records; one without either raises ``TypeError`` before any
            record is written.
        seed: controls spawn jitter; equal seeds give equal worlds.
        trace: optional JSONL event writer receiving ``episode_start``
            and ``episode_end`` records (the latter carries the tick
            fields as columns); defaults to the process-wide writer
            installed via ``REPRO_TRACE`` (usually none). Telemetry is
            read-only: it never changes the episode.
        episode_id: id stamped on trace events (defaults to ``seed``).
    """
    return _run_episode(
        victim_factory, attacker, seed, scenario, reward_config,
        adversarial_config, trace, episode_id,
    )[0]


def _run_episode(
    victim_factory: VictimFactory,
    attacker,
    seed: int,
    scenario: ScenarioConfig | None,
    reward_config: DrivingRewardConfig | None,
    adversarial_config: AdversarialRewardConfig | None,
    trace: TraceWriter | None,
    episode_id: int | str | None,
    observe: Callable[[World, float], None] | None = None,
) -> tuple[EpisodeResult, World]:
    """:func:`run_episode`, also returning the final world.

    ``observe(world, delta)`` sees the fresh world (``delta`` 0) and the
    world after every tick with that tick's injected delta; it must only
    read the world.
    """
    scenario = scenario or ScenarioConfig()
    world = make_world(scenario, rng=np.random.default_rng(seed))
    victim = victim_factory(world)
    victim.reset(world)
    attacker = attacker if attacker is not None else NullAttacker()
    attacker.reset(world)
    planner = BehaviorPlanner(world.road)
    planner.reset(world)
    nominal_reward = DrivingReward(reward_config)
    adversarial_reward = AdversarialReward(adversarial_config)
    ledger = EpisodeLedger(
        [seed], victim, attacker, scenario, trace,
        episodes=[seed if episode_id is None else episode_id],
    )
    ledger.start()

    if observe is not None:
        observe(world, 0.0)
    with span("episode"):
        while not world.done:
            plan = planner.update(world)
            control = victim.act(world)
            delta = float(attacker.delta(world, control))
            result = world.tick(control, steer_delta=delta)
            if observe is not None:
                observe(world, delta)
            nominal = nominal_reward.step(world, plan, result.collision)
            nearest, state = world.geometry().nearest, world.ego.state
            ledger.tick(
                True, result.step, result.time, delta,
                (state.x, state.y, state.yaw, state.speed), nominal.total,
                adversarial_reward.step(world, delta, result.collision).total,
                nominal.lateral,
                np.nan if nearest is None else nearest.distance,
            )

    (episode,) = ledger.finish(
        [result.collision], world.passed_npcs, result.step, result.time
    )
    return episode, world


def run_seeds(
    victim_factory: VictimFactory,
    attacker_factory: Callable[[], object] | None,
    seeds: Iterable[int],
    scenario: ScenarioConfig | None = None,
    reward_config: DrivingRewardConfig | None = None,
    adversarial_config: AdversarialRewardConfig | None = None,
    trace: TraceWriter | None = None,
) -> list[EpisodeResult]:
    """Run one episode per seed on the engine the input allows.

    Seeds run in chunks of up to :data:`LOCKSTEP_SEEDS`. A chunk of two or
    more seeds advances in lockstep (:class:`~repro.eval.batch.Lockstep`)
    when the victim and the attacker both have a batched twin; any other
    chunk runs :func:`run_episode` per seed. Only the twin lookup picks
    the engine: it raises :class:`~repro.sim.batch.NoBatchTwin` before the
    first tick. Any other error propagates.

    ``attacker_factory`` is called once per episode so attackers with
    internal state (sensors, channels) start fresh each time; lockstep
    row ``i`` draws channel noise from episode ``i``'s attacker. Trace
    records carry each episode's seed as its id. Episodes run on the
    scalar engine count into ``eval_scalar_episodes_total``, labelled
    ``reason=no_twin`` or ``reason=one_seed``.
    """
    # Imported here: repro.eval.batch builds on this module.
    from repro.eval.batch import Lockstep

    seeds = list(seeds)
    results: list[EpisodeResult] = []
    for start in range(0, len(seeds), LOCKSTEP_SEEDS):
        chunk = seeds[start : start + LOCKSTEP_SEEDS]
        attackers = [
            attacker_factory() if attacker_factory is not None else None
            for _ in chunk
        ]
        reason = "one_seed"
        if len(chunk) >= 2:
            try:
                lockstep = Lockstep(victim_factory, attackers, chunk, scenario)
            except NoBatchTwin as error:
                reason = "no_twin"
                log.debug("eval.scalar_engine", reason=str(error))
            else:
                results += lockstep.run(
                    reward_config, adversarial_config, trace
                )
                continue
        get_registry().counter(
            "eval_scalar_episodes_total", reason=reason
        ).inc(len(chunk))
        results += [
            run_episode(
                victim_factory, attacker, seed, scenario, reward_config,
                adversarial_config, trace,
            )
            for seed, attacker in zip(chunk, attackers)
        ]
    return results


def run_episodes(
    victim_factory: VictimFactory,
    attacker_factory: Callable[[], object] | None = None,
    n_episodes: int = 10,
    seed: int = 0,
    **kwargs,
) -> list[EpisodeResult]:
    """Run ``n_episodes`` with consecutive seeds from ``seed``.

    Forwards to :func:`run_seeds`, which picks the engine and calls
    ``attacker_factory`` once per episode.
    """
    return run_seeds(
        victim_factory, attacker_factory, range(seed, seed + n_episodes),
        **kwargs,
    )
