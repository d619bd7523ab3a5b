"""Replay verification: re-simulate a recorded episode and diff the traces.

Every ``episode_start`` event carries the seed, victim/attacker names and
attack budget; the simulator is deterministic given those (asserted by
``tests/telemetry/test_determinism.py``). Re-running the episode and
comparing the regenerated tick stream field-by-field therefore proves two
things at once: the trace faithfully records what the simulator did, and
the simulator has not silently become nondeterministic (RNG leaks, state
carried across episodes, dict-ordering effects).

Only episodes recorded under the default scenario are replayable — the
trace does not serialize custom :class:`~repro.sim.config.ScenarioConfig`
instances — and victims/attackers are resolved by their recorded names
through :mod:`repro.experiments.registry` (learned ones need artifacts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obsv.loader import EpisodeTrace, Ticks, split_episodes
from repro.telemetry.trace import TraceWriter

#: Fields of a tick compared during replay, with absolute
#: tolerances. The simulator is bit-deterministic, so the defaults are
#: essentially exact equality modulo JSON float round-tripping.
DEFAULT_TOLERANCES: dict[str, float] = {
    "t": 1e-9,
    "delta": 1e-9,
    "x": 1e-9,
    "y": 1e-9,
    "yaw": 1e-9,
    "speed": 1e-9,
    "reward_nominal": 1e-9,
    "reward_adversarial": 1e-9,
    "npc_gap": 1e-9,
    "ttc": 1e-6,
    "lateral": 1e-9,
}


class ReplayError(RuntimeError):
    """The episode cannot be re-simulated from its trace."""


@dataclass(frozen=True)
class FieldDiff:
    """One out-of-tolerance disagreement between trace and replay."""

    tick: int
    fld: str
    recorded: object
    replayed: object
    error: float
    tolerance: float

    def __str__(self) -> str:
        return (
            f"tick {self.tick}: {self.fld} recorded={self.recorded!r}"
            f" replayed={self.replayed!r} |err|={self.error:.3g}"
            f" tol={self.tolerance:.3g}"
        )


@dataclass
class ReplayReport:
    """Outcome of one replay verification."""

    episode: int | str
    victim: str
    attacker: str
    seed: int
    steps_recorded: int
    steps_replayed: int
    fields_compared: int
    diffs: list[FieldDiff] = field(default_factory=list)
    #: Largest |recorded - replayed| seen per field (within tolerance or not).
    max_error: dict[str, float] = field(default_factory=dict)
    #: Recorded vs replayed episode_end disagreements (steps, collision...).
    end_diffs: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.diffs
            and not self.end_diffs
            and self.steps_recorded == self.steps_replayed
        )

    def to_markdown(self) -> str:
        lines = [
            f"# Replay verification — episode {self.episode}",
            "",
            f"victim `{self.victim}` vs `{self.attacker}`, seed {self.seed}:"
            f" {self.steps_recorded} recorded / {self.steps_replayed}"
            f" replayed ticks, {self.fields_compared} field comparisons.",
            "",
            f"**verdict: {'OK — trace is faithful' if self.ok else 'MISMATCH'}**",
        ]
        if self.max_error:
            lines.append("")
            lines.append("| field | max |error| |")
            lines.append("|---|---|")
            for fld in sorted(self.max_error):
                lines.append(f"| {fld} | {self.max_error[fld]:.3g} |")
        if self.diffs:
            lines.append("")
            lines.append(f"## Out-of-tolerance diffs ({len(self.diffs)})")
            lines.append("")
            lines.extend(f"- {d}" for d in self.diffs[:50])
            if len(self.diffs) > 50:
                lines.append(f"- ... {len(self.diffs) - 50} more")
        if self.end_diffs:
            lines.append("")
            lines.append("## Episode-end diffs")
            lines.append("")
            lines.extend(f"- {d}" for d in self.end_diffs)
        return "\n".join(lines) + "\n"


def _resolve_victim(name: str):
    from repro.agents.modular.agent import ModularAgent
    from repro.experiments import registry

    if name == "modular":
        return lambda world: ModularAgent(world.road)
    if name == "end-to-end":
        return registry.e2e_victim
    if name == "adv-finetuned(rho=1/11)":
        return registry.finetuned_victim_rho11
    if name == "adv-finetuned(rho=1/2)":
        return registry.finetuned_victim_rho2
    raise ReplayError(
        f"victim {name!r} is not replayable by name; supported: modular,"
        " end-to-end, adv-finetuned(rho=1/11), adv-finetuned(rho=1/2)"
    )


def _resolve_attacker(name: str, budget: float, victim: str):
    from repro.core.attackers import OracleAttacker
    from repro.experiments import registry

    if name in ("none", ""):
        return None
    if name == "oracle":
        return OracleAttacker(budget=budget)
    if name == "camera":
        target = "modular" if victim == "modular" else "e2e"
        return registry.camera_attacker(budget, victim=target)
    if name == "imu":
        return registry.imu_attacker(budget)
    raise ReplayError(
        f"attacker {name!r} is not replayable by name; supported: none,"
        " oracle, camera, imu"
    )


def diff_ticks(
    reference: Ticks,
    candidate: Ticks,
    tolerances: dict[str, float] | None = None,
) -> tuple[list[FieldDiff], dict[str, float], int]:
    """Field-by-field comparison of two tick streams of one episode.

    The workhorse shared by replay verification and the batch-engine
    equivalence suite. Fields present in ``reference`` but absent from
    ``candidate`` are reported as infinite-error diffs; fields absent
    from ``reference`` are not checked.

    Returns:
        ``(diffs, max_error, fields_compared)`` — the out-of-tolerance
        disagreements (tick by tick, in ``tolerances`` order), the
        largest |reference - candidate| per field, and how many
        comparisons ran.
    """
    tolerances = dict(tolerances or DEFAULT_TOLERANCES)
    diffs: list[FieldDiff] = []
    max_error: dict[str, float] = {}
    compared = 0
    columns = [
        (fld, tol, reference.column(fld), candidate.column(fld))
        for fld, tol in tolerances.items()
    ]
    for index, tick in enumerate(reference.column("tick")[: len(candidate)]):
        tick = int(tick)
        for fld, tol, recorded_values, replayed_values in columns:
            recorded = recorded_values[index]
            if recorded is None:
                continue
            replayed = replayed_values[index]
            if replayed is None:
                diffs.append(
                    FieldDiff(tick, fld, recorded, None, float("inf"), tol)
                )
                continue
            compared += 1
            error = abs(float(recorded) - float(replayed))
            max_error[fld] = max(max_error.get(fld, 0.0), error)
            if not (error <= tol) or math.isnan(error):
                diffs.append(
                    FieldDiff(tick, fld, recorded, replayed, error, tol)
                )
    return diffs, max_error, compared


def replay_episode(
    episode: EpisodeTrace,
    tolerances: dict[str, float] | None = None,
    tolerance: float | None = None,
) -> ReplayReport:
    """Re-simulate ``episode`` from its start record and diff every tick.

    Args:
        episode: a complete episode bucket from :func:`~repro.obsv.loader.
            load_episodes`.
        tolerances: per-field absolute tolerances (defaults to
            :data:`DEFAULT_TOLERANCES`).
        tolerance: uniform override applied to every compared field
            (``replay --tolerance``).

    Returns:
        A :class:`ReplayReport`; ``report.ok`` is the fidelity verdict.
    """
    from repro.eval.episodes import run_episode

    if episode.start is None:
        raise ReplayError(
            f"episode {episode.episode!r} has no episode_start event"
        )
    if episode.scenario == "custom":
        raise ReplayError(
            "episode was recorded under a custom scenario; only the default"
            " scenario is replayable from a trace"
        )
    seed = episode.seed
    if seed is None:
        raise ReplayError("episode_start carries no seed")
    budget = episode.budget if episode.budget is not None else 1.0
    victim_factory = _resolve_victim(episode.victim)
    attacker = _resolve_attacker(episode.attacker, budget, episode.victim)

    tolerances = dict(tolerances or DEFAULT_TOLERANCES)
    if tolerance is not None:
        tolerances = {fld: tolerance for fld in tolerances}

    writer = TraceWriter()
    run_episode(
        victim_factory,
        attacker=attacker,
        seed=int(seed),
        trace=writer,
        episode_id=episode.episode,
    )
    (replayed,) = split_episodes(writer.events)
    replayed_ticks, replayed_end = replayed.ticks, replayed.end

    report = ReplayReport(
        episode=episode.episode,
        victim=episode.victim,
        attacker=episode.attacker,
        seed=int(seed),
        steps_recorded=len(episode.ticks),
        steps_replayed=len(replayed_ticks),
        fields_compared=0,
    )
    # The recorder emits a subset of the runner's fields; fields absent
    # from the recording are not checked, but the replay must reproduce
    # everything recorded.
    report.diffs, report.max_error, report.fields_compared = diff_ticks(
        episode.ticks, replayed_ticks, tolerances
    )

    if episode.end is not None and replayed_end is not None:
        for fld in ("steps", "collision", "collision_with", "passed_npcs"):
            was, now = episode.end.get(fld), replayed_end.get(fld)
            if was != now and not (was is None or now is None):
                report.end_diffs.append(f"{fld}: recorded={was!r} replayed={now!r}")
    if report.steps_recorded != report.steps_replayed:
        report.end_diffs.append(
            f"tick count: recorded={report.steps_recorded}"
            f" replayed={report.steps_replayed}"
        )
    return report
