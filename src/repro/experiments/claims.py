"""The paper's claims, each defined once with the rule that decides it.

A :class:`Claim` names the figure whose result it judges, says what its
rule checks in the paper's terms, gives the paper's value and prints the
measured one. :data:`CLAIMS` lists them in report order: the report
(:mod:`repro.experiments.report`) renders every claim row of
EXPERIMENTS.md from it, and each figure bench
(``benchmarks/bench_headline_nominal.py``, ``bench_fig4_*`` ...
``bench_fig8_*``) asserts that none of its figure's claims fails.
:data:`SIZES` is the protocol size each figure runs at.

The rules test shapes (who wins, by roughly what factor, where a
crossover falls), not the paper's absolute numbers: the substrate is a
from-scratch simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.eval.metrics import HUMAN_REACTION_TIME
from repro.obsv.compare import StatConfig, permutation_test

#: Episodes per cell of the headline and Fig. 4 at the paper's protocol.
EPISODES = 30
#: Rounds per budget of the Figs. 5, 7 and 8 scatters at the paper's
#: protocol.
ROUNDS = 10


def sizes(episodes: int = EPISODES, rounds: int = ROUNDS) -> dict[str, int]:
    """The size each figure runs at: ``episodes`` per cell for the
    headline and Fig. 4, half as many (at least 6) for Fig. 6, and
    ``rounds`` per budget for Figs. 5, 7 and 8."""
    return {
        "headline": episodes,
        "fig4": episodes,
        "fig5": rounds,
        "fig6": max(episodes // 2, 6),
        "fig7": rounds,
        "fig8": rounds,
    }


#: The paper's protocol: 30 episodes per cell (headline, Fig. 4), 15
#: (Fig. 6), and 10 rounds per budget (Figs. 5, 7, 8).
SIZES = sizes()


@dataclass(frozen=True)
class Claim:
    """One paper claim: ``rule`` judges the measured ``values`` of its
    figure's result, and the report prints them through ``shown``."""

    figure: str
    #: What the rule checks, in the paper's terms.
    statement: str
    #: The paper's value or wording.
    paper: str
    values: Callable[[Any], tuple]
    #: A ``str.format`` template for the values.
    shown: str
    rule: Callable[..., bool]

    def judge(self, result) -> tuple[str, bool]:
        """The printed measured values and whether the rule holds."""
        values = self.values(result)
        return self.shown.format(*values), bool(self.rule(*values))


def nominal_reward_p_value(a: list, b: list) -> float:
    """Two-sided permutation p-value on the mean nominal return of two
    episode lists run on the same seeds (paired sign flips), seeded
    through :class:`~repro.obsv.compare.StatConfig` so it is
    bit-reproducible."""
    config = StatConfig()
    return permutation_test(
        np.array([episode.nominal_return for episode in a]),
        np.array([episode.nominal_return for episode in b]),
        config.rng("nominal_return"),
        config.resamples,
        paired=True,
    )


def _claims(figure: str, *rows: tuple) -> tuple[Claim, ...]:
    """``figure``'s claims from (statement, paper, values, shown, rule)."""
    return tuple(Claim(figure, *row) for row in rows)


_NAN = float("nan")


def _nan(value: float | None) -> float:
    """A missing statistic (no successful attack) as NaN, which fails
    every comparison a rule makes."""
    return _NAN if value is None else value


_HEADLINE = _claims(
    "headline",
    ("nominal driving passes at least 5.5 of 6 NPCs on average", "5.96 / 6",
     lambda h: (h.mean_passed,), "{:.2f} / 6", lambda n: n >= 5.5),
    ("nominal episodes last at least 175 of 180 steps on average",
     "180 steps",
     lambda h: (h.mean_steps,), "{:.1f}", lambda n: n >= 175),
    ("nominal driving never collides", "none",
     lambda h: (h.nominal_collision_rate,), "rate {:.2f}",
     lambda rate: rate == 0.0),
    ("camera attack at eps=1 cuts nominal reward by more than 60% (at most"
     " 100%)", "~84%",
     lambda h: (h.camera_reward_reduction,), "{:.1%}",
     lambda cut: 0.6 < cut <= 1.0),
    ("e2e victim's time-to-collision is below the 1.25 s human reaction"
     " floor", "0.87 s",
     lambda h: (_nan(h.ttc_e2e_mean),), "{:.2f} s",
     lambda e2e: e2e < HUMAN_REACTION_TIME),
    ("modular victim's time-to-collision is longer than the e2e victim's",
     "1.14 s",
     lambda h: (_nan(h.ttc_modular_mean), _nan(h.ttc_e2e_mean)),
     "{:.2f} s (e2e {:.2f} s)", lambda modular, e2e: e2e < modular),
)


def _cells(r, attackers, budgets, stat) -> tuple:
    return tuple(stat(r.cell(a, b)) for a in attackers for b in budgets)


def _iqr(cell) -> float:
    return cell.adversarial.q3 - cell.adversarial.q1


def _sharp(*values) -> bool:
    success, nominal = values[:4], values[4:]
    return all(
        low <= 0.2 and high >= 0.6 and before > 3.0 * after
        for low, high, before, after in zip(
            success[::2], success[1::2], nominal[::2], nominal[1::2]
        )
    )


_FIG4 = _claims(
    "fig4",
    ("camera attack at eps=1 cuts nominal reward by more than 60%", "~84%",
     lambda r: (
         r.reward_reduction("camera"),
         nominal_reward_p_value(
             r.cell("camera", 0.0).episodes, r.cell("camera", 1.0).episodes
         ),
     ),
     "{:.1%} (paired permutation p={:.2g})", lambda cut, p: cut > 0.6),
    ("nominal driving (eps=0) yields negative adversarial reward",
     "negative", lambda r: (r.cell("camera", 0.0).adversarial.mean,),
     "mean {:.1f}", lambda mean: mean < 0.0),
    ("camera attack's mean adversarial reward is at least IMU's minus 2.0"
     " at eps=0.5/0.75/1", "camera > IMU",
     lambda r: _cells(
         r, ("camera", "imu"), (0.5, 0.75, 1.0), lambda c: c.adversarial.mean
     ),
     "camera {:.1f}/{:.1f}/{:.1f} vs IMU {:.1f}/{:.1f}/{:.1f}",
     lambda *v: all(c >= i - 2.0 for c, i in zip(v[:3], v[3:]))),
    ("camera attack's adversarial-reward IQR at eps=0.75 is at most IMU's"
     " plus 1.0", "camera has smaller variance",
     lambda r: (_iqr(r.cell("camera", 0.75)), _iqr(r.cell("imu", 0.75))),
     "{:.1f} vs {:.1f}", lambda camera, imu: camera <= imu + 1.0),
    ("sharp transition for both attackers: success <= 0.2 at eps=0.25 and"
     " >= 0.6 at eps=0.75, nominal reward falls more than 3x",
     "sharp between 0.25 and 0.75",
     lambda r: _cells(r, ("camera", "imu"), (0.25, 0.75), lambda c: c.success)
     + _cells(r, ("camera", "imu"), (0.25, 0.75), lambda c: c.nominal.mean),
     "success camera {:.2f} -> {:.2f}, imu {:.2f} -> {:.2f}; nominal"
     " camera {:.1f} -> {:.1f}, imu {:.1f} -> {:.1f}", _sharp),
)


def _successes(points) -> int:
    return sum(p.successful for p in points)


def _ttc(r) -> tuple:
    values = ()
    for victim in ("e2e", "modular"):
        ttc = r.time_to_collision(victim)
        values += (_NAN, _NAN) if ttc is None else (ttc.mean, ttc.minimum)
    return values


_FIG5 = _claims(
    "fig5",
    ("modular's dominance effort is at least e2e's", "~0.6 vs ~0.5",
     lambda r: tuple(map(r.dominance_threshold, ("modular", "e2e"))),
     "{:.2f} vs {:.2f}", lambda modular, e2e: modular >= e2e),
    ("modular keeps smaller tracking error at low effort (<= 0.3)",
     "modular < e2e",
     lambda r: tuple(map(r.low_effort_rmse, ("modular", "e2e"))),
     "{:.3f} vs {:.3f}", lambda modular, e2e: modular < e2e),
    ("both victims succumb: each has a successful attack", "both",
     lambda r: tuple(
         _successes(r.for_victim(v)) for v in ("modular", "e2e")
     ),
     "successes: modular {}, e2e {}", lambda *counts: min(counts) > 0),
    ("successful attacks on the e2e victim beat the 1.25 s human reaction"
     " floor and end sooner than on modular (modular's mean is not checked"
     " against the floor)", "0.87 s (e2e), 1.14 s (modular)", _ttc,
     "e2e {:.2f} s (min {:.2f}), modular {:.2f} s (min {:.2f})",
     lambda e2e, _, modular, __: e2e < modular
     and e2e < HUMAN_REACTION_TIME),
)

_FINETUNED = ("finetuned rho=1/11", "finetuned rho=1/2")
_PNN = ("pnn sigma=0.2", "pnn sigma=0.4")
_ENHANCED = (*_FINETUNED, *_PNN)


def _nominal(r, agents, budget: float) -> tuple:
    return tuple(r.cell(a, budget).nominal.mean for a in agents)


_FIG6 = _claims(
    "fig6",
    ("each enhanced agent raises mean nominal reward at eps=0.5 by more"
     " than 20", "noticeably higher",
     lambda r: _nominal(r, ("original", *_ENHANCED), 0.5),
     "original {:.0f} vs enhanced {:.0f}/{:.0f}/{:.0f}/{:.0f}",
     lambda original, *enhanced: min(enhanced) > original + 20.0),
    ("fine-tuning sacrifices nominal driving: rho=1/11's clean reward is"
     " more than 2.0 below the original's and at most 1.0 above rho=1/2's",
     "catastrophic forgetting, worse for rho=1/11",
     lambda r: _nominal(r, (*_FINETUNED, "original"), 0.0),
     "{:.1f} (1/11) / {:.1f} (1/2) vs {:.1f}",
     lambda ft11, ft2, original: ft11 < original - 2.0 and ft11 <= ft2 + 1.0),
    ("PNN keeps nominal driving exactly intact at eps=0 (within 1e-9)",
     "identical to original",
     lambda r: _nominal(r, ("original", *_PNN), 0.0),
     "original {:.1f} vs PNN {:.1f}/{:.1f}",
     lambda original, *pnn: all(abs(p - original) < 1e-9 for p in pnn)),
    ("the two PNN agents coincide at eps >= 0.5 (shared column, within"
     " 1e-9)", "equal",
     lambda r: sum((_nominal(r, _PNN, b) for b in (0.5, 0.75, 1.0)), ()),
     "eps=0.5 {:.1f}/{:.1f}, 0.75 {:.1f}/{:.1f}, 1 {:.1f}/{:.1f}",
     lambda *v: all(abs(a - b) < 1e-9 for a, b in zip(v[::2], v[1::2]))),
)

_FIG7 = _claims(
    "fig7",
    ("rho=1/2 tracks better than rho=1/11", "0.027 vs 0.038",
     lambda r: tuple(map(r.average_tracking_error, _FINETUNED[::-1])),
     "{:.3f} vs {:.3f}", lambda ft2, ft11: ft2 < ft11),
    ("no successful attack at effort 0.1 or below",
     "PNN: none below 0.4 / 0.6",
     lambda r: tuple(map(r.min_successful_effort, _ENHANCED)),
     "first successes {:.2f}/{:.2f} (fine-tuned), {:.2f}/{:.2f} (PNN)",
     lambda *efforts: min(efforts) > 0.1),
    ("PNN agents admit fewer successful attacks than rho=1/11, and"
     " sigma=0.2's first success comes at most 0.1 effort earlier",
     "PNN more robust",
     lambda r: tuple(
         _successes(r.points[a]) for a in (_FINETUNED[0], *_PNN)
     ) + tuple(map(r.min_successful_effort, (_PNN[0], _FINETUNED[0]))),
     "successes {} (1/11) vs {}/{} (PNN); first success {:.2f} vs {:.2f}",
     lambda ft11, pnn02, pnn04, first, ft11_first: max(pnn02, pnn04) < ft11
     and first >= ft11_first - 0.1),
)


def _window(r, agent: str) -> float:
    return {label: rate for label, rate, _ in r.windows(agent)}["[0.4,0.6)"]


_FIG8 = _claims(
    "fig8",
    ("nominal agent suffers the highest success rate, overall and (ties"
     " allowed) in the [0.4,0.6) effort window", "nominal worst",
     lambda r: (
         r.overall_success("original"),
         max(map(r.overall_success, _ENHANCED)),
         _window(r, "original"),
         max(_window(r, a) for a in _ENHANCED),
     ),
     "overall {:.2f} vs enhanced max {:.2f}; [0.4,0.6) {:.2f} vs max {:.2f}",
     lambda original, enhanced, window, windows: original > enhanced
     and windows <= window),
    ("the better PNN agent's success rate is at most the better fine-tuned"
     " agent's", "PNN < fine-tuning",
     lambda r: (
         min(map(r.overall_success, _PNN)),
         min(map(r.overall_success, _FINETUNED)),
     ),
     "overall {:.2f} (pnn) vs {:.2f} (finetuned)",
     lambda pnn, finetuned: pnn <= finetuned),
)

#: Every claim, in report order.
CLAIMS: tuple[Claim, ...] = (
    *_HEADLINE, *_FIG4, *_FIG5, *_FIG6, *_FIG7, *_FIG8
)


def verdicts(figure: str, result) -> list[tuple[Claim, str, bool]]:
    """``(claim, measured, holds)`` for each of ``figure``'s claims."""
    return [
        (claim, *claim.judge(result))
        for claim in CLAIMS
        if claim.figure == figure
    ]


def failures(figure: str, result) -> list[str]:
    """``statement: measured`` for each of ``figure``'s claims that fails."""
    return [
        f"{claim.statement}: {measured}"
        for claim, measured, holds in verdicts(figure, result)
        if not holds
    ]
