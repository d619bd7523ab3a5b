"""Full reproduction report: run every experiment, emit EXPERIMENTS.md.

``python examples/reproduce_all.py`` calls :func:`generate` to run the
complete evaluation protocol against the shipped checkpoints and write a
paper-vs-measured record for every table and figure. Every claim row
comes from the registry in :mod:`repro.experiments.claims`.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.experiments import claims, fig4, fig5, fig6, fig7, fig8, headline
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer

#: Each figure's section heading, in report order.
SECTIONS = {
    "headline": "Headline scalars (Sections III-C, V-A, V-B)",
    "fig4": "Fig. 4 — attack effects vs. attack budget (e2e victim)",
    "fig5": "Fig. 5 — modular vs. end-to-end resilience",
    "fig6": "Fig. 6 — nominal driving rewards of enhanced agents",
    "fig7": "Fig. 7 — enhanced-agent robustness",
    "fig8": "Fig. 8 — success rate per attack-effort window",
}

KNOWN_DEVIATIONS = (
    "- The top effort windows of Fig. 8 ([0.6,0.8) and 0.8+) hold few"
    " episodes of the enhanced agents, and an empty window reads –, so"
    " there the paper's per-window ordering (fine-tuning above PNN, the"
    " nominal agent worst) can invert. Cause: the effort metric is"
    " endogenous — for agents that fail quickly the active attack phase is"
    " short and saturated, so exactly the lost episodes land in the top"
    " windows. The paper's overall ordering (PNN < fine-tuning < nominal)"
    " holds, as the Fig. 8 rows decide.",
    "- Absolute tracking-error magnitudes in Fig. 7 exceed the paper's"
    " (0.017-0.038) because our enhanced agents admit more full-budget"
    " losses whose large deviations dominate the mean; the ordering"
    " between rho=1/2 and rho=1/11 is preserved, but the PNN agents need"
    " not track better than both fine-tuned agents, and no row checks it.",
    "- Fig. 5's time-to-collision row checks the e2e victim against the"
    " 1.25 s floor, not the modular victim, whose mean over the sweep can"
    " sit above it (the paper has 1.14 s); the headline's times are lower"
    " because they count eps=1 episodes only. Fig. 5's dominance row"
    " passes on a tie (the paper has ~0.6 vs ~0.5), and the PNN agents'"
    " first successful attacks in Fig. 7 come at lower effort than the"
    " paper's 0.4 / 0.6.",
)


def telemetry_appendix(metrics_path: Path) -> list[str]:
    """Markdown lines for the "Timing & counters" appendix.

    Writes the raw registry snapshot to ``metrics_path`` and renders the
    span aggregates (a call-tree profile when spans were enabled) plus the
    process-wide counters collected during the run.
    """
    lines: list[str] = []
    out = lines.append
    snapshot = get_registry().snapshot()
    get_registry().to_json(metrics_path)
    out("## Timing & counters (telemetry appendix)")
    out("")
    out(
        "Wall-clock spans and process-wide counters collected during this"
        f" report run (raw snapshot: `{metrics_path.name}`). Enable"
        " `REPRO_SPANS=1` / `REPRO_TRACE=trace.jsonl` to collect the same"
        " data from any entry point."
    )
    out("")
    span_rows = get_tracer().snapshot()
    if span_rows:
        out("| span | calls | total s | mean us | p50 us | p99 us | max us |")
        out("|---|---|---|---|---|---|---|")
        for name, stats in span_rows.items():
            out(
                f"| `{name}` | {stats['count']} | {stats['total_s']:.2f} |"
                f" {stats['mean_us']:.0f} | {stats['p50_us']:.0f} |"
                f" {stats['p99_us']:.0f} | {stats['max_us']:.0f} |"
            )
        out("")
    counters = snapshot["counters"]
    if counters:
        out("| counter | value |")
        out("|---|---|")
        for name, value in counters.items():
            out(f"| `{name}` | {value:g} |")
        out("")
    out(
        "For per-episode post-mortems (lurk/strike phase segmentation, TTC"
        " and safety-margin timelines, collision geometry) record a trace"
        " with `REPRO_TRACE=trace.jsonl` and run"
        " `python -m repro.obsv forensics trace.jsonl`;"
        " `python -m repro.obsv dashboard <dir>` aggregates a run directory"
        " and `python -m repro.obsv replay trace.jsonl` verifies a recorded"
        " episode against a deterministic re-simulation."
    )
    out("")
    return lines


def claim_rows(figure: str, result) -> list[str]:
    """The markdown claims table of ``figure``, one row per registry claim."""
    lines = [
        "| paper claim | paper | measured | status |",
        "|---|---|---|---|",
    ]
    for claim, measured, holds in claims.verdicts(figure, result):
        status = "reproduced" if holds else "NOT reproduced"
        lines.append(
            f"| {claim.statement} | {claim.paper} | {measured} | {status} |"
        )
    return lines


def generate(
    path: str | Path = "EXPERIMENTS.md",
    episodes: int = claims.EPISODES,
    rounds: int = claims.ROUNDS,
) -> Path:
    """Run all experiments and write the markdown report to ``path``.

    ``episodes`` and ``rounds`` scale the protocol
    (:func:`repro.experiments.claims.sizes`); the defaults are the
    paper's. Also enables span timing for the duration of the run,
    appends a "Timing & counters" telemetry appendix to the report, and
    writes the raw metrics snapshot next to it (``<stem>_metrics.json``).
    """
    started = time.time()
    tracer = get_tracer()
    spans_were_enabled = tracer.enabled
    tracer.enable()
    size = claims.sizes(episodes, rounds)
    results = {
        "headline": headline.run(n_episodes=size["headline"]),
        "fig4": fig4.run(n_episodes=size["fig4"]),
        "fig5": fig5.run(rounds=size["fig5"]),
        "fig6": fig6.run(n_episodes=size["fig6"]),
        "fig7": fig7.run(rounds=size["fig7"]),
    }
    results["fig8"] = fig8.run(rounds=size["fig8"], fig7=results["fig7"])

    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python examples/reproduce_all.py` against the shipped"
        f" checkpoints (episodes per cell: headline {size['headline']},"
        f" Fig. 4 {size['fig4']}, Fig. 6 {size['fig6']}; rounds per budget:"
        f" Figs. 5, 7 and 8 {size['fig5']}). Absolute numbers are not"
        " expected to match the paper — the substrate is a from-scratch"
        " simulator — but the *shapes* (who wins, by roughly what factor,"
        " where crossovers fall) are decided below by the rules of"
        " `repro.experiments.claims`, which the figure benches in"
        " `benchmarks/` assert.",
        "",
    ]
    for figure, heading in SECTIONS.items():
        lines += [f"## {heading}", "", "```", results[figure].table().render()]
        lines += ["```", "", *claim_rows(figure, results[figure]), ""]
    lines += ["### Known deviations", "", *KNOWN_DEVIATIONS, ""]

    path = Path(path)
    metrics_path = path.with_name(path.stem + "_metrics.json")
    lines += telemetry_appendix(metrics_path)
    lines.append(
        f"\n_Total report wall-clock: {time.time() - started:.0f} s._"
    )
    if not spans_were_enabled:
        tracer.disable()
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
