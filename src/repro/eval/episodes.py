"""The canonical episode runner used by training, experiments and benches.

Runs one victim agent (modular or end-to-end) under an optional attacker
and records every metric the paper reports: nominal shaped driving reward,
cumulative adversarial reward, collision outcome, NPCs passed, trajectory
deviation from the privileged reference path, attack effort, and the time
from attack initiation to collision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.agents.base import DrivingAgent
from repro.agents.e2e.reward import DrivingReward, DrivingRewardConfig
from repro.agents.modular.behavior import BehaviorPlanner
from repro.core.attackers import NullAttacker
from repro.core.injection import ACTIVE_THRESHOLD
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
    #: Mean |delta| over active attack steps (Fig. 5 / 7 x-axis).
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
        attacker: a ``SteerInjector`` (``None`` = nominal driving).
        seed: controls spawn jitter; equal seeds give equal worlds.
        trace: optional JSONL event writer receiving ``episode_start``
            and ``episode_end`` records (the latter carries the tick
            fields as columns); defaults to the
            process-wide writer installed via ``REPRO_TRACE`` (usually
            none). Telemetry is read-only: it never changes the episode.
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

    trace = trace if trace is not None else default_writer()
    episode_id = episode_id if episode_id is not None else seed
    if trace is not None:
        stamp_provenance(trace, scenario)
        trace.emit(
            "episode_start",
            episode=episode_id,
            seed=seed,
            victim=str(getattr(victim, "name", "agent")),
            attacker=str(getattr(attacker, "name", "none")),
            budget=float(getattr(attacker, "budget", 0.0)),
            scenario=(
                "default" if scenario == ScenarioConfig() else "custom"
            ),
        )

    nominal_total = 0.0
    adversarial_total = 0.0
    deviations: list[float] = []
    first_attack_time: float | None = None
    result = None
    # The attack *strike* begins when the injection reaches half the
    # attacker's budget; smaller values are lurk-phase dithering.
    strike_level = max(
        ACTIVE_THRESHOLD, 0.5 * float(getattr(attacker, "budget", 0.0))
    )
    active_ticks = 0
    activations = 0
    previously_active = False
    previous_gap: float | None = None
    ticks: list[tuple] = []  # traced: one row of TICK_COLUMNS per tick

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
            if abs(delta) >= strike_level and first_attack_time is None:
                first_attack_time = result.time - scenario.dt

            nominal_step = nominal_reward.step(
                world, plan, result.collision
            ).total
            adversarial_step = adversarial_reward.step(
                world, delta, result.collision
            ).total
            nominal_total += nominal_step
            adversarial_total += adversarial_step
            geometry = world.geometry()
            ego_s, ego_d, _ = geometry.ego
            deviation = abs(ego_d - plan.reference_offset(ego_s))
            deviations.append(deviation / world.road.config.lane_width)

            is_active = abs(delta) >= ACTIVE_THRESHOLD
            if is_active:
                active_ticks += 1
                if not previously_active:
                    activations += 1
            previously_active = is_active

            if trace is not None:
                state = world.ego.state
                gap = ttc = None
                if geometry.nearest is not None:
                    gap = geometry.nearest.distance
                    if previous_gap is not None:
                        closing = (previous_gap - gap) / scenario.dt
                        if closing > 1e-6:
                            ttc = gap / closing
                    previous_gap = gap
                ticks.append((
                    result.step, result.time, delta, state.x, state.y,
                    state.yaw, state.speed, nominal_step, adversarial_step,
                    deviations[-1], gap, ttc,
                ))

    time_to_collision = None
    if result.collision is not None and first_attack_time is not None:
        time_to_collision = result.collision.time - first_attack_time

    registry = get_registry()
    registry.counter("episodes_total").inc()
    if activations:
        registry.counter("attack_activations_total").inc(activations)
    if active_ticks:
        registry.counter("attack_active_ticks_total").inc(active_ticks)
    registry.histogram("episode_steps").observe(result.step)
    registry.histogram("episode_nominal_return").observe(nominal_total)
    registry.histogram("episode_adversarial_return").observe(adversarial_total)

    if trace is not None:
        trace.emit(
            "episode_end",
            episode=episode_id,
            steps=result.step,
            duration=result.time,
            collision=(
                result.collision.kind.name
                if result.collision is not None
                else None
            ),
            collision_with=(
                result.collision.other
                if result.collision is not None
                else None
            ),
            nominal_return=nominal_total,
            adversarial_return=adversarial_total,
            passed_npcs=world.passed_npcs,
            ticks=tick_columns(dict(zip(TICK_COLUMNS, zip(*ticks)))),
        )
        trace.flush()

    episode = EpisodeResult(
        steps=result.step,
        duration=result.time,
        collision=result.collision,
        passed_npcs=world.passed_npcs,
        nominal_return=nominal_total,
        adversarial_return=adversarial_total,
        mean_effort=float(getattr(attacker, "mean_effort", 0.0)),
        deviation_rmse=float(np.sqrt(np.mean(np.square(deviations)))),
        deviation_max=float(np.max(deviations)),
        time_to_collision=time_to_collision,
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
        lockstep = None
        reason = "one_seed"
        if len(chunk) >= 2:
            try:
                lockstep = Lockstep(victim_factory, attackers, chunk, scenario)
            except NoBatchTwin as error:
                reason = "no_twin"
                log.debug("eval.scalar_engine", reason=str(error))
        if lockstep is not None:
            results += lockstep.run(reward_config, adversarial_config, trace)
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
