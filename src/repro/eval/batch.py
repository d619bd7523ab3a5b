"""Lockstep batch-episode runner: N seeds per pass through the tick loop.

The vectorized twin of :func:`repro.eval.episodes.run_episode`. One
:class:`~repro.sim.batch.BatchWorld` advances every episode together;
victims and attackers run through their batched actors
(:func:`repro.agents.batch.as_batch_actor`,
:func:`repro.core.attackers.as_batch_attacker`), and one
:class:`~repro.eval.episodes.EpisodeLedger` row per seed keeps each
episode's books, as it does for the scalar runner. Finished episodes
freeze in place until the slowest seed ends, so per-episode results match
scalar runs of the same seeds (see :mod:`repro.sim.batch` for the
determinism contract).

Trace records carry the same fields and schema as the scalar runner —
only the order differs (every ``episode_start`` precedes the loop and
every ``episode_end`` follows it), and each episode's ``episode_end``
carries its live ticks as columns. Diff by episode id, e.g. via
``repro.obsv.replay.diff_ticks``.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.agents.batch import as_batch_actor
from repro.agents.e2e.reward import DrivingReward, DrivingRewardConfig
from repro.agents.modular.behavior import BatchBehaviorPlanner
from repro.core.attackers import as_batch_attacker
from repro.core.rewards import AdversarialReward, AdversarialRewardConfig
from repro.eval.episodes import EpisodeLedger, EpisodeResult, VictimFactory
from repro.sim.batch import make_batch_world
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import make_world
from repro.telemetry.spans import get_tracer, span
from repro.telemetry.trace import TraceWriter


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
    once: a second call raises :class:`RuntimeError` before any record.
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
        rng = np.random.default_rng(self.seeds[0])
        template = make_world(self.scenario, rng=rng, road=self.batch.road)
        self.victim = victim_factory(template)
        self.actor = as_batch_actor(self.victim, self.batch)
        self._spent = False

    def run(
        self,
        reward_config: DrivingRewardConfig | None = None,
        adversarial_config: AdversarialRewardConfig | None = None,
        trace: TraceWriter | None = None,
    ) -> list[EpisodeResult]:
        """Play the episodes; one result per seed, in seed order."""
        if self._spent:
            raise RuntimeError(
                "Lockstep.run plays its episodes once; build a new Lockstep"
            )
        self._spent = True
        batch, battacker = self.batch, self.attacker
        self.actor.reset(batch)
        planner = BatchBehaviorPlanner(batch.road)
        planner.reset(batch)
        nominal_reward = DrivingReward(reward_config)
        adversarial_reward = AdversarialReward(adversarial_config)
        deviation = np.empty(batch.n)  # written by the nominal reward
        ledger = EpisodeLedger(
            self.seeds, self.victim, battacker, self.scenario, trace
        )
        ledger.start()

        tracer = get_tracer()
        batch_path = ""
        batch_start = time.perf_counter()
        with span("episode_batch"):
            if tracer.enabled:
                batch_path = tracer.current_path()
            while not batch.all_done:
                live = ~batch.done
                plan = planner.update(batch)
                steer, thrust = self.actor.act_batch(batch, plan)
                delta = battacker.deltas(batch)
                result = batch.tick(steer, thrust, steer_delta=delta)
                nominal = nominal_reward.step_batch(
                    batch, plan, result.collided, deviation=deviation
                )
                ledger.tick(
                    live, result.step, result.time, delta, batch.pose[:, 0],
                    nominal,
                    adversarial_reward.step_batch(
                        batch, delta, result.collision_kind
                    ),
                    deviation,
                    batch.geometry().nearest.distance if batch.m else np.nan,
                )

        if batch_path:
            # Scalar-path parity: credit each episode a share of the batch
            # wall-clock as a child span, weighted by the steps it ran (the
            # vectorized loop cannot time rows apart). No parent
            # child_total credit: the tick spans inside the batch already
            # credited it, and counting it twice would zero out
            # episode_batch's self time in profiles.
            batch_total = time.perf_counter() - batch_start
            steps = np.maximum(batch.step_count.astype(float), 1.0)
            for share in steps / steps.sum():
                tracer.record(
                    f"{batch_path}/episode", float(batch_total * share)
                )

        return ledger.finish(
            [batch.collision(i) for i in range(batch.n)],
            batch.passed_npcs,
            batch.step_count,
            batch.time,
        )
