"""Per-episode post-mortems from JSONL tick traces.

The paper's learned attacker is *temporal*: it lurks with near-zero
injection, then strikes inside a short safety-critical window beside an
NPC (Fig. 8's success-window analysis). This module recovers that
structure from a recorded trace alone:

* lurk/strike **phase segmentation** of the injection-effort timeline
  (the strike threshold is the episode runner's,
  :func:`~repro.core.injection.strike_level`);
* per-phase effort and lateral-deviation statistics;
* **safety timelines** — nearest-NPC gap and estimated time-to-collision
  per tick, with minima;
* a **collision report**: which actor, ego pose and NPC gap at impact,
  and ticks/seconds from strike onset to impact.

Rendered as JSON (:meth:`EpisodeForensics.to_json`) or markdown
(:meth:`EpisodeForensics.to_markdown`, with sparkline timelines).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.injection import strike_level
from repro.obsv.loader import EpisodeTrace, Ticks
from repro.obsv.render import fmt, markdown_table, sparkline

#: Lurk runs at most this long between two strike runs are absorbed into
#: the strike (a single sub-threshold tick does not end an attack).
BRIDGE_TICKS = 2


@dataclass(frozen=True)
class Phase:
    """One maximal run of lurk or strike behaviour."""

    kind: str  # "lurk" | "strike"
    #: First/last tick index of the run (as recorded, inclusive).
    start_tick: int
    end_tick: int
    ticks: int
    mean_abs_delta: float
    max_abs_delta: float
    #: Mean normalized lateral deviation over the run (None if untracked).
    mean_lateral: float | None
    #: Smallest nearest-NPC gap seen during the run, meters.
    min_npc_gap: float | None


def strike_threshold(
    budget: float | None, deltas: list[float], fraction: float = 0.5
) -> float:
    """|delta| level separating strike from lurk.

    The episode runner's attack-initiation rule,
    :func:`~repro.core.injection.strike_level`. When the trace predates
    the ``budget`` field the peak injection stands in for it.
    """
    if budget is None or budget <= 0.0:
        budget = max(deltas, default=0.0)
    return strike_level(budget, fraction)


def _stats(ticks: Ticks) -> tuple[float, float, float | None, float | None]:
    deltas = [abs(float(d)) for d in ticks.column("delta")]
    laterals = ticks.series("lateral")
    gaps = ticks.series("npc_gap")
    return (
        sum(deltas) / len(deltas),
        max(deltas),
        sum(laterals) / len(laterals) if laterals else None,
        min(gaps) if gaps else None,
    )


def segment_phases(ticks: Ticks, strike_level: float) -> list[Phase]:
    """Split a tick stream into alternating lurk/strike phases.

    Each tick is classified by ``|delta| >= strike_level``; consecutive
    equal classifications merge into one phase, and lurk gaps of at most
    :data:`BRIDGE_TICKS` between two strike runs are absorbed into the
    strike so a single quiet tick does not split an attack in two.
    """
    if not ticks:
        return []
    labels = [
        "strike" if abs(float(d)) >= strike_level else "lurk"
        for d in ticks.column("delta")
    ]
    # Bridge short lurk gaps flanked by strikes.
    index = 0
    while index < len(labels):
        if labels[index] == "lurk":
            run_end = index
            while run_end < len(labels) and labels[run_end] == "lurk":
                run_end += 1
            flanked = index > 0 and run_end < len(labels)
            if flanked and run_end - index <= BRIDGE_TICKS:
                for j in range(index, run_end):
                    labels[j] = "strike"
            index = run_end
        else:
            index += 1

    phases: list[Phase] = []
    run_start = 0
    for index in range(1, len(labels) + 1):
        if index == len(labels) or labels[index] != labels[run_start]:
            run = ticks[run_start:index]
            mean_delta, max_delta, mean_lateral, min_gap = _stats(run)
            tick = run.column("tick")
            phases.append(
                Phase(
                    kind=labels[run_start],
                    start_tick=int(tick[0]),
                    end_tick=int(tick[-1]),
                    ticks=len(run),
                    mean_abs_delta=mean_delta,
                    max_abs_delta=max_delta,
                    mean_lateral=mean_lateral,
                    min_npc_gap=min_gap,
                )
            )
            run_start = index
    return phases


@dataclass
class EpisodeForensics:
    """Everything the post-mortem recovers from one episode trace."""

    episode: int | str
    seed: int | None
    victim: str
    attacker: str
    budget: float | None
    strike_level: float
    steps: int
    duration: float | None
    collision: str | None
    collision_with: str | None
    passed_npcs: int | None
    nominal_return: float | None
    adversarial_return: float | None
    phases: list[Phase] = field(default_factory=list)
    #: Tick-weighted mean |delta| per phase kind (NaN when the kind is absent).
    lurk_mean_delta: float = float("nan")
    strike_mean_delta: float = float("nan")
    lurk_mean_lateral: float | None = None
    strike_mean_lateral: float | None = None
    #: First strike tick (None = the attacker never struck).
    strike_onset_tick: int | None = None
    ticks_strike_to_collision: int | None = None
    seconds_strike_to_collision: float | None = None
    #: Smallest nearest-NPC gap over the episode and when it occurred.
    min_npc_gap: float | None = None
    min_npc_gap_tick: int | None = None
    #: Smallest estimated time-to-collision observed, seconds.
    min_ttc: float | None = None
    #: Ego pose at the final recorded tick (collision geometry).
    final_tick: dict = field(default_factory=dict)

    @property
    def struck(self) -> bool:
        return self.strike_onset_tick is not None

    # -- rendering ---------------------------------------------------------------

    def to_json(self) -> dict:
        return asdict(self)

    def to_markdown(self, ticks: Ticks | None = None) -> str:
        lines: list[str] = []
        out = lines.append
        out(f"# Forensics — episode {self.episode}")
        out("")
        out(
            f"victim `{self.victim}` vs attacker `{self.attacker}`"
            f" (budget {fmt(self.budget, 2)}, strike level"
            f" {fmt(self.strike_level, 2)}), seed {self.seed}"
        )
        out("")
        outcome = self.collision or "no collision"
        if self.collision_with:
            outcome += f" with `{self.collision_with}`"
        out(
            f"- **outcome**: {outcome} after {self.steps} ticks"
            f" ({fmt(self.duration, 1)} s), {self.passed_npcs} NPCs passed"
        )
        out(
            f"- **returns**: nominal {fmt(self.nominal_return, 1)},"
            f" adversarial {fmt(self.adversarial_return, 1)}"
        )
        if self.struck:
            out(
                f"- **strike onset**: tick {self.strike_onset_tick};"
                " strike mean |delta|"
                f" {fmt(self.strike_mean_delta)} vs lurk"
                f" {fmt(self.lurk_mean_delta)}"
            )
        else:
            out("- **strike onset**: never (no strike phase)")
        if self.ticks_strike_to_collision is not None:
            out(
                f"- **strike-to-collision**: {self.ticks_strike_to_collision}"
                f" ticks ({fmt(self.seconds_strike_to_collision, 2)} s)"
            )
        if self.min_npc_gap is not None:
            out(
                f"- **minimum safety margin**: {fmt(self.min_npc_gap, 2)} m"
                f" to nearest NPC at tick {self.min_npc_gap_tick}"
            )
        if self.min_ttc is not None:
            out(f"- **minimum estimated TTC**: {fmt(self.min_ttc, 2)} s")
        if self.final_tick:
            out(
                "- **final pose**: x="
                f"{fmt(self.final_tick.get('x'), 1)},"
                f" y={fmt(self.final_tick.get('y'), 2)},"
                f" yaw={fmt(self.final_tick.get('yaw'), 3)},"
                f" speed={fmt(self.final_tick.get('speed'), 1)} m/s,"
                f" npc_gap={fmt(self.final_tick.get('npc_gap'), 2)} m"
            )
        out("")
        out("## Phases")
        out("")
        rows = [
            [
                p.kind,
                f"{p.start_tick}-{p.end_tick}",
                p.ticks,
                fmt(p.mean_abs_delta),
                fmt(p.max_abs_delta),
                fmt(p.mean_lateral),
                fmt(p.min_npc_gap, 2),
            ]
            for p in self.phases
        ]
        lines.extend(
            markdown_table(
                ["phase", "ticks", "n", "mean |delta|", "max |delta|",
                 "mean |lateral|", "min NPC gap (m)"],
                rows,
            )
        )
        if ticks:
            out("")
            out("## Timelines")
            out("")
            out("```")
            deltas = [abs(float(d)) for d in ticks.column("delta")]
            out(f"|delta|  {sparkline(deltas)}")
            gaps = ticks.series("npc_gap")
            if gaps:
                out(f"npc_gap  {sparkline(gaps)}")
            lateral = [abs(v) for v in ticks.series("lateral")]
            if lateral:
                out(f"lateral  {sparkline(lateral)}")
            out("```")
        return "\n".join(lines) + "\n"


def _kind_aggregate(phases: list[Phase], kind: str):
    """Tick-weighted mean |delta| and lateral over all phases of ``kind``."""
    chosen = [p for p in phases if p.kind == kind]
    ticks = sum(p.ticks for p in chosen)
    if ticks == 0:
        return float("nan"), None
    mean_delta = sum(p.mean_abs_delta * p.ticks for p in chosen) / ticks
    with_lateral = [p for p in chosen if p.mean_lateral is not None]
    lateral_ticks = sum(p.ticks for p in with_lateral)
    mean_lateral = (
        sum(p.mean_lateral * p.ticks for p in with_lateral) / lateral_ticks
        if lateral_ticks
        else None
    )
    return mean_delta, mean_lateral


def analyze(
    episode: EpisodeTrace, strike_fraction: float = 0.5
) -> EpisodeForensics:
    """Run the full post-mortem over one episode trace."""
    if not episode.ticks:
        raise ValueError(f"episode {episode.episode!r} has no ticks")
    ticks = episode.ticks
    deltas = episode.deltas()
    level = strike_threshold(episode.budget, deltas, strike_fraction)
    phases = segment_phases(ticks, level)
    lurk_delta, lurk_lateral = _kind_aggregate(phases, "lurk")
    strike_delta, strike_lateral = _kind_aggregate(phases, "strike")

    strike_onset = next(
        (p.start_tick for p in phases if p.kind == "strike"), None
    )
    end = episode.end or {}
    collision = end.get("collision")
    final = ticks[-1]
    ticks_to_collision = None
    seconds_to_collision = None
    if collision is not None and strike_onset is not None:
        ticks_to_collision = int(final["tick"]) - strike_onset + 1
        dt = None
        if len(ticks) >= 2:
            dt = float(ticks.column("t")[1]) - float(ticks.column("t")[0])
        if dt:
            seconds_to_collision = ticks_to_collision * dt

    gaps = ticks.column("npc_gap")
    gap_ticks = [i for i, gap in enumerate(gaps) if gap is not None]
    min_gap = min_gap_tick = None
    if gap_ticks:
        smallest = min(gap_ticks, key=lambda i: float(gaps[i]))
        min_gap = float(gaps[smallest])
        min_gap_tick = int(ticks.column("tick")[smallest])
    ttcs = episode.series("ttc")
    min_ttc = min(ttcs) if ttcs else None

    steps = int(end.get("steps", final["tick"]))
    duration = end.get("duration")
    return EpisodeForensics(
        episode=episode.episode,
        seed=episode.seed,
        victim=episode.victim,
        attacker=episode.attacker,
        budget=episode.budget,
        strike_level=level,
        steps=steps,
        duration=float(duration) if duration is not None else None,
        collision=collision,
        collision_with=end.get("collision_with"),
        passed_npcs=end.get("passed_npcs"),
        nominal_return=end.get("nominal_return"),
        adversarial_return=end.get("adversarial_return"),
        phases=phases,
        lurk_mean_delta=lurk_delta,
        strike_mean_delta=strike_delta,
        lurk_mean_lateral=lurk_lateral,
        strike_mean_lateral=strike_lateral,
        strike_onset_tick=strike_onset,
        ticks_strike_to_collision=ticks_to_collision,
        seconds_strike_to_collision=seconds_to_collision,
        min_npc_gap=min_gap,
        min_npc_gap_tick=min_gap_tick,
        min_ttc=min_ttc,
        final_tick={
            k: final[k]
            for k in ("tick", "t", "x", "y", "yaw", "speed", "npc_gap")
            if k in final
        },
    )
