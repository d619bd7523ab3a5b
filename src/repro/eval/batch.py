"""Lockstep batch-episode runner: N seeds per pass through the tick loop.

The vectorized twin of :func:`repro.eval.episodes.run_episode`. One
:class:`~repro.sim.batch.BatchWorld` advances every episode together;
victims and attackers run through their batched actors
(:func:`repro.agents.batch.as_batch_actor`,
:func:`repro.core.attackers.as_batch_attacker`); rewards, deviations and
attack bookkeeping accumulate as masked array expressions. Finished
episodes freeze in place until the slowest seed ends, so per-episode
results match scalar runs of the same seeds (see :mod:`repro.sim.batch`
for the determinism contract).

Trace records carry the same fields and schema as the scalar runner —
only the order differs (every ``episode_start`` precedes the loop and
every ``episode_end`` follows it). The loop logs each tick's ``[N]``
arrays and each episode's ``episode_end`` carries its live rows as tick
columns. Diff by episode id, e.g. via ``repro.obsv.replay.diff_ticks``.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.agents.batch import as_batch_actor
from repro.agents.e2e.reward import DrivingReward, DrivingRewardConfig
from repro.agents.modular.behavior import BatchBehaviorPlanner
from repro.core.attackers import as_batch_attacker
from repro.core.injection import ACTIVE_THRESHOLD
from repro.core.rewards import AdversarialReward, AdversarialRewardConfig
from repro.eval.episodes import EpisodeResult, VictimFactory
from repro.sim.batch import make_batch_world
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import make_world
from repro.telemetry.metrics import get_registry
from repro.telemetry.provenance import stamp_provenance
from repro.telemetry.spans import get_tracer, span
from repro.telemetry.trace import (
    TICK_COLUMNS,
    TraceWriter,
    default_writer,
    tick_columns,
)


def run_episode_batch(
    victim_factory: VictimFactory,
    attacker=None,
    seeds: Sequence[int] = (0,),
    scenario: ScenarioConfig | None = None,
    reward_config: DrivingRewardConfig | None = None,
    adversarial_config: AdversarialRewardConfig | None = None,
    trace: TraceWriter | None = None,
) -> list[EpisodeResult]:
    """Run one episode per seed in lockstep and measure each.

    Args:
        victim_factory: builds the (scalar) victim; its batched twin
            drives every episode.
        attacker: a scalar attacker template (``None`` = nominal); its
            batched twin injects per episode.
        seeds: spawn-jitter seeds, one episode per seed — the same seeds
            passed to :func:`~repro.eval.episodes.run_episode` give the
            same spawns. Trace records carry them as episode ids.
        trace: optional JSONL event writer (defaults to the process-wide
            writer); records match the scalar runner's schema.

    Returns:
        One :class:`~repro.eval.episodes.EpisodeResult` per seed, in
        seed order.

    Raises:
        NoBatchTwin: a :class:`TypeError`; the victim or attacker has no
            batched twin (see :class:`Lockstep`).
    """
    seeds = list(seeds)
    if not seeds:
        return []
    twins = Lockstep(victim_factory, [attacker] * len(seeds), seeds, scenario)
    return twins.run(reward_config, adversarial_config, trace)


class Lockstep:
    """One lockstep pass: a batch world and the batched twins driving it.

    Building one is the twin lookup: it raises
    :class:`~repro.sim.batch.NoBatchTwin` before any tick when the victim
    or the attackers (``attackers[i]`` is episode ``i``'s, ``None`` =
    nominal) have no batched twin. :meth:`run` then plays the episodes,
    once.
    """

    def __init__(
        self,
        victim_factory: VictimFactory,
        attackers: Sequence,
        seeds: Sequence[int],
        scenario: ScenarioConfig | None = None,
    ) -> None:
        self.scenario = scenario or ScenarioConfig()
        self.seeds = list(seeds)
        # The attacker lookup needs no world, so it runs first.
        self.attacker = as_batch_attacker(attackers)
        self.batch = make_batch_world(self.scenario, seeds=self.seeds)
        template = make_world(
            self.scenario,
            rng=np.random.default_rng(self.seeds[0]),
            road=self.batch.road,
        )
        self.victim = victim_factory(template)
        self.actor = as_batch_actor(self.victim, self.batch)

    def run(
        self,
        reward_config: DrivingRewardConfig | None = None,
        adversarial_config: AdversarialRewardConfig | None = None,
        trace: TraceWriter | None = None,
    ) -> list[EpisodeResult]:
        """Play the episodes; one result per seed, in seed order."""
        scenario, seeds, batch = self.scenario, self.seeds, self.batch
        victim, actor, battacker = self.victim, self.actor, self.attacker
        n = batch.n
        actor.reset(batch)

        planner = BatchBehaviorPlanner(batch.road)
        planner.reset(batch)
        nominal_reward = DrivingReward(reward_config)
        adversarial_reward = AdversarialReward(adversarial_config)

        trace = trace if trace is not None else default_writer()
        if trace is not None:
            stamp_provenance(trace, scenario)
            for i in range(n):
                trace.emit(
                    "episode_start",
                    episode=seeds[i],
                    seed=seeds[i],
                    victim=str(getattr(victim, "name", "agent")),
                    attacker=str(getattr(battacker, "name", "none")),
                    budget=float(getattr(battacker, "budget", 0.0)),
                    scenario=(
                        "default" if scenario == ScenarioConfig() else "custom"
                    ),
                )

        nominal_total = np.zeros(n)
        adversarial_total = np.zeros(n)
        deviation_sq_sum = np.zeros(n)
        deviation_max = np.zeros(n)
        deviation_ticks = np.zeros(n, dtype=np.int64)
        first_attack_time = np.full(n, np.nan)
        strike_level = max(
            ACTIVE_THRESHOLD, 0.5 * float(getattr(battacker, "budget", 0.0))
        )
        active_ticks = np.zeros(n, dtype=np.int64)
        activations = np.zeros(n, dtype=np.int64)
        previously_active = np.zeros(n, dtype=bool)
        previous_gap = np.full(n, np.nan)
        lane_width = batch.road.config.lane_width
        # Traced, per tick: the first C of TICK_COLUMNS for every row
        # ([C, N]), and which rows were live.
        tick_log: list[np.ndarray] = []
        live_log: list[np.ndarray] = []

        tracer = get_tracer()
        batch_path = ""
        batch_start = time.perf_counter()
        with span("episode_batch"):
            if tracer.enabled:
                batch_path = tracer.current_path()
            while not batch.all_done:
                live = ~batch.done
                plan = planner.update(batch)
                steer, thrust = actor.act_batch(batch, plan)
                delta = battacker.deltas(batch)
                result = batch.tick(steer, thrust, steer_delta=delta)

                magnitude = np.abs(delta)
                striking = live & (magnitude >= strike_level)
                stamp = striking & np.isnan(first_attack_time)
                np.subtract(
                    result.time, scenario.dt, out=first_attack_time,
                    where=stamp,
                )

                geometry = batch.geometry()
                ego_s, ego_d, _ = geometry.ego
                reference = plan.reference_offset(ego_s)
                deviation = np.abs(ego_d - reference) / lane_width
                nominal_step = nominal_reward.step_batch(
                    batch, plan, result.collided, deviation=deviation
                )
                adversarial_step = adversarial_reward.step_batch(
                    batch, delta, result.collision_kind
                )
                np.add(
                    nominal_total, nominal_step, out=nominal_total, where=live
                )
                np.add(
                    adversarial_total, adversarial_step,
                    out=adversarial_total, where=live,
                )

                np.add(
                    deviation_sq_sum, deviation ** 2, out=deviation_sq_sum,
                    where=live,
                )
                np.maximum(
                    deviation_max, deviation, out=deviation_max, where=live
                )
                deviation_ticks += live

                # A frozen row is never active again, so its flag from
                # the tick before no longer matters.
                is_active = live & (magnitude >= ACTIVE_THRESHOLD)
                active_ticks += is_active
                activations += is_active & ~previously_active
                previously_active = is_active

                if trace is not None:
                    columns = [
                        result.step, result.time, delta, *batch.pose[:, 0],
                        nominal_step, adversarial_step, deviation,
                    ]
                    if batch.m:
                        gap = geometry.nearest.distance
                        closing = (previous_gap - gap) / scenario.dt
                        ttc = np.full(n, np.nan)
                        np.divide(gap, closing, out=ttc, where=closing > 1e-6)
                        np.copyto(previous_gap, gap, where=live)
                        columns += [gap, ttc]
                    tick_log.append(np.stack(columns))
                    live_log.append(live)

        if batch_path:
            # Scalar-path parity: credit each episode its share of the batch
            # wall-clock as a child span, weighted by the steps it ran. The
            # lockstep loop advances all rows together, so per-step cost is
            # the fairest per-episode attribution available without timing
            # each row separately (which the vectorized loop cannot do).
            batch_total = time.perf_counter() - batch_start
            steps = np.maximum(batch.step_count.astype(float), 1.0)
            shares = steps / steps.sum()
            for i in range(n):
                # No parent child_total credit: the tick spans inside the
                # batch already credited it, and double-counting would zero
                # out episode_batch's self time in profiles.
                tracer.record(
                    f"{batch_path}/episode", float(batch_total * shares[i])
                )

        if trace is not None:
            logged = np.stack(tick_log)  # [ticks, C, N]
            was_live = np.stack(live_log)  # [ticks, N]
            names = tuple(TICK_COLUMNS)[: logged.shape[1]]
        registry = get_registry()
        passed_npcs = batch.passed_npcs
        effort = getattr(battacker, "mean_effort", 0.0)
        results: list[EpisodeResult] = []
        for i in range(n):
            registry.counter("episodes_total").inc()
            if activations[i]:
                registry.counter("attack_activations_total").inc(
                    int(activations[i])
                )
            if active_ticks[i]:
                registry.counter("attack_active_ticks_total").inc(
                    int(active_ticks[i])
                )
            registry.histogram("episode_steps").observe(int(batch.step_count[i]))
            registry.histogram("episode_nominal_return").observe(
                float(nominal_total[i])
            )
            registry.histogram("episode_adversarial_return").observe(
                float(adversarial_total[i])
            )

            collision = batch.collision(i)
            time_to_collision = None
            if collision is not None and not np.isnan(first_attack_time[i]):
                time_to_collision = collision.time - float(first_attack_time[i])

            if trace is not None:
                trace.emit(
                    "episode_end",
                    episode=seeds[i],
                    steps=int(batch.step_count[i]),
                    duration=float(batch.time[i]),
                    collision=(
                        collision.kind.name if collision is not None else None
                    ),
                    collision_with=(
                        collision.other if collision is not None else None
                    ),
                    nominal_return=float(nominal_total[i]),
                    adversarial_return=float(adversarial_total[i]),
                    passed_npcs=int(passed_npcs[i]),
                    ticks=_episode_ticks(names, logged, was_live, i),
                )

            mean_effort = (
                effort[i] if isinstance(effort, np.ndarray) else effort
            )
            results.append(
                EpisodeResult(
                    steps=int(batch.step_count[i]),
                    duration=float(batch.time[i]),
                    collision=collision,
                    passed_npcs=int(passed_npcs[i]),
                    nominal_return=float(nominal_total[i]),
                    adversarial_return=float(adversarial_total[i]),
                    mean_effort=float(mean_effort),
                    deviation_rmse=float(
                        np.sqrt(deviation_sq_sum[i] / max(deviation_ticks[i], 1))
                    ),
                    deviation_max=float(deviation_max[i]),
                    time_to_collision=time_to_collision,
                )
            )
        if trace is not None:
            trace.flush()
        return results


def _episode_ticks(
    names: Sequence[str], logged: np.ndarray, was_live: np.ndarray, i: int
) -> dict[str, list]:
    """Episode ``i``'s tick columns from the loop's ``[ticks, C, N]`` log
    and its ``[ticks, N]`` live mask."""
    rows = logged[was_live[:, i], :, i]
    columns = dict(zip(names, rows.T))
    columns["tick"] = columns["tick"].astype(np.int64)
    return tick_columns(columns)
