"""Statistical comparison of recorded runs + scientific regression gates.

The paper's headline results are *statistical* claims — attack success
rates, collision rates, effort/success tradeoffs over seed sweeps — and
seed noise on 20-episode cells is large enough to swamp small real
effects. This module turns "run A looks worse than run B" into numbers:

* :func:`collect_metrics` extracts **episode-level metrics** from decoded
  traces (collision rate, attack success, mean strike effort, minimum
  TTC margin, steps-to-strike, steps, returns), grouped into cells by
  ``victim|attacker|budget`` so unlike configurations never mix.
* :func:`compare_runs` runs a **paired or unpaired comparison** per
  metric: seeded bootstrap confidence intervals on the difference of
  means, permutation tests (sign-flip when paired, label-shuffle when
  not), Cliff's delta effect sizes, and Holm–Bonferroni correction
  across the metric family. Everything is driven by
  ``numpy.random.default_rng`` seeded from ``stat_seed`` *and* the
  metric name, so results are bit-reproducible and adding a metric
  never perturbs the others.
* :func:`metric_snapshot` / :func:`compare_metric_snapshots` implement
  the **scientific regression gate**: a committed
  ``benchmarks/BASELINE_metrics.json`` records per-claim metric
  distributions; ``obsv regress --metrics`` re-runs the cells and fails
  when a current mean falls outside the baseline's bootstrap CI —
  mirroring the perf gate's :class:`repro.obsv.regress.Breach` UX.

Paired mode is auto-detected: when both sides ran the *same* seeds
(unique, matching multisets) episodes are matched seed-by-seed, which
cancels scenario difficulty and typically tightens CIs several-fold.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.injection import ACTIVE_THRESHOLD, strike_level
from repro.obsv.loader import EpisodeTrace
from repro.obsv.regress import Breach
from repro.obsv.render import fmt, markdown_table
from repro.obsv.store import load_snapshot, open_run

#: Version stamp written into metric snapshots.
METRICS_SCHEMA_VERSION = 1

#: Metric names, in report order. ``higher_is_better`` drives the drift
#: direction shown in reports (gates breach on either side regardless).
METRICS = (
    ("collision", "collision rate", False),
    ("attack_success", "attack success (side collision)", False),
    ("effort", "mean strike effort |delta|", False),
    ("ttc_min", "min time-to-collision margin (s)", True),
    ("steps_to_strike", "steps to first strike", True),
    ("steps", "episode steps", True),
    ("nominal_return", "nominal return", True),
    ("adversarial_return", "adversarial return", False),
)

METRIC_LABELS = {name: label for name, label, _ in METRICS}
METRIC_DIRECTION = {name: higher for name, _, higher in METRICS}


@dataclass(frozen=True)
class StatConfig:
    """Knobs of the statistical machinery (all deterministic)."""

    stat_seed: int = 0
    resamples: int = 2000
    confidence: float = 0.95
    alpha: float = 0.05

    def rng(self, metric: str) -> np.random.Generator:
        """A generator keyed by (seed, metric name).

        Seeding per metric means adding or reordering metrics never
        changes another metric's CI — each draws from its own stream.
        """
        return np.random.default_rng(
            [int(self.stat_seed), zlib.crc32(metric.encode("utf-8"))]
        )


def cell_key(victim: str, attacker: str, budget: float | None) -> str:
    """The grouping key ``victim|attacker|budget`` for one configuration."""
    return f"{victim}|{attacker}|{0.0 if budget is None else budget:.2f}"


def episode_metrics(episode: EpisodeTrace) -> dict[str, float]:
    """Episode-level metric values from one complete episode trace.

    ``effort`` is the episode ledger's ``mean_effort`` read off the
    ``delta`` column (mean |delta| over ticks above
    :data:`ACTIVE_THRESHOLD`, 0.0 when none is); ``ttc_min`` and
    ``steps_to_strike`` are omitted when the episode never records a TTC
    / never strikes, so their sample sizes may be smaller than ``n``.
    """
    metrics: dict[str, float] = {}
    end = episode.end or {}
    collision = episode.collision
    metrics["collision"] = float(collision is not None)
    metrics["attack_success"] = float(collision == "SIDE")
    if "steps" in end:
        metrics["steps"] = float(end["steps"])
    if "nominal_return" in end:
        metrics["nominal_return"] = float(end["nominal_return"])
    if "adversarial_return" in end:
        metrics["adversarial_return"] = float(end["adversarial_return"])

    deltas = episode.deltas()
    strikes = [d for d in deltas if d > ACTIVE_THRESHOLD]
    # In tick order from 0.0, as the ledger adds, for equal bits (np.mean
    # sums pairwise, and sum() compensates from Python 3.12 on).
    effort = 0.0
    for strike in strikes:
        effort += strike
    metrics["effort"] = effort / len(strikes) if strikes else 0.0
    ttc = episode.series("ttc")
    if ttc:
        metrics["ttc_min"] = float(min(ttc))
    level = strike_level(episode.budget or 0.0)
    for index, delta in enumerate(deltas):
        if delta >= level:
            metrics["steps_to_strike"] = float(index + 1)
            break
    return metrics


@dataclass
class MetricSamples:
    """Per-metric value lists for one configuration cell."""

    key: str
    n: int = 0
    seeds: list = field(default_factory=list)
    #: metric -> ``{seed_or_index: value}`` (insertion-ordered).
    values: dict[str, dict] = field(default_factory=dict)

    def metric_values(self, metric: str) -> list[float]:
        return list(self.values.get(metric, {}).values())


def collect_metrics(episodes: list[EpisodeTrace]) -> dict[str, MetricSamples]:
    """Group complete episodes into cells and extract metric samples."""
    cells: dict[str, MetricSamples] = {}
    for index, episode in enumerate(episodes):
        if not episode.complete:
            continue
        key = cell_key(episode.victim, episode.attacker, episode.budget)
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = MetricSamples(key=key)
        seed = episode.seed if episode.seed is not None else f"#{index}"
        cell.n += 1
        cell.seeds.append(seed)
        for metric, value in episode_metrics(episode).items():
            bucket = cell.values.setdefault(metric, {})
            # Repeated seeds get distinct keys so no sample is dropped.
            slot = seed
            while slot in bucket:
                slot = f"{slot}+"
            bucket[slot] = value
    return cells


# -- statistics ---------------------------------------------------------------------


def bootstrap_diff_ci(
    a: np.ndarray,
    b: np.ndarray,
    rng: np.random.Generator,
    resamples: int,
    confidence: float,
    paired: bool,
) -> tuple[float, float]:
    """Percentile bootstrap CI on ``mean(a) - mean(b)``.

    Paired: resamples the per-pair differences. Unpaired: resamples each
    side independently. Fully vectorized; one ``rng`` draw sequence per
    call, so a fixed seed reproduces the interval bit-for-bit.
    """
    tail = 0.5 * (1.0 - confidence)
    if paired:
        diff = a - b
        idx = rng.integers(0, len(diff), size=(resamples, len(diff)))
        means = diff[idx].mean(axis=1)
    else:
        idx_a = rng.integers(0, len(a), size=(resamples, len(a)))
        idx_b = rng.integers(0, len(b), size=(resamples, len(b)))
        means = a[idx_a].mean(axis=1) - b[idx_b].mean(axis=1)
    lo, hi = np.quantile(means, [tail, 1.0 - tail])
    return float(lo), float(hi)


def bootstrap_mean_ci_seeded(
    values: np.ndarray,
    rng: np.random.Generator,
    resamples: int,
    confidence: float,
) -> tuple[float, float]:
    """Percentile bootstrap CI on one sample's mean (for snapshots)."""
    if len(values) == 1:
        value = float(values[0])
        return value, value
    tail = 0.5 * (1.0 - confidence)
    idx = rng.integers(0, len(values), size=(resamples, len(values)))
    means = values[idx].mean(axis=1)
    lo, hi = np.quantile(means, [tail, 1.0 - tail])
    return float(lo), float(hi)


def permutation_test(
    a: np.ndarray,
    b: np.ndarray,
    rng: np.random.Generator,
    resamples: int,
    paired: bool,
) -> float:
    """Two-sided permutation p-value for ``mean(a) - mean(b)``.

    Paired: random sign flips of the per-pair differences. Unpaired:
    random relabelings of the pooled sample (vectorized via per-row
    argsort of uniform draws). Uses the add-one estimator
    ``(1 + hits) / (R + 1)`` so p is never exactly zero.
    """
    observed = float(a.mean() - b.mean())
    if paired:
        diff = a - b
        signs = rng.integers(0, 2, size=(resamples, len(diff))) * 2 - 1
        stats = (signs * diff).mean(axis=1)
    else:
        pooled = np.concatenate([a, b])
        order = np.argsort(
            rng.random((resamples, len(pooled))), axis=1
        )
        shuffled = pooled[order]
        stats = (
            shuffled[:, : len(a)].mean(axis=1)
            - shuffled[:, len(a):].mean(axis=1)
        )
    hits = int(np.count_nonzero(np.abs(stats) >= abs(observed) - 1e-12))
    return float((1 + hits) / (resamples + 1))


def cliffs_delta(a: np.ndarray, b: np.ndarray) -> float:
    """Cliff's delta effect size: P(a > b) - P(a < b), in [-1, 1]."""
    if len(a) == 0 or len(b) == 0:
        return 0.0
    diff = a[:, None] - b[None, :]
    return float((np.sign(diff)).mean())


def holm_bonferroni(p_values: list[float], alpha: float) -> list[bool]:
    """Step-down Holm correction: which hypotheses stay significant."""
    order = sorted(range(len(p_values)), key=lambda i: p_values[i])
    significant = [False] * len(p_values)
    m = len(p_values)
    for rank, index in enumerate(order):
        if p_values[index] <= alpha / (m - rank):
            significant[index] = True
        else:
            break  # step-down: first failure stops the chain
    return significant


# -- run comparison -----------------------------------------------------------------


@dataclass
class MetricComparison:
    """One metric's A-vs-B verdict inside one cell."""

    metric: str
    n_a: int
    n_b: int
    mean_a: float
    mean_b: float
    diff: float
    ci: tuple[float, float]
    p_value: float
    effect: float
    paired: bool
    significant: bool = False

    def to_json(self) -> dict:
        return {
            "metric": self.metric,
            "label": METRIC_LABELS.get(self.metric, self.metric),
            "n_a": self.n_a,
            "n_b": self.n_b,
            "mean_a": round(self.mean_a, 6),
            "mean_b": round(self.mean_b, 6),
            "diff": round(self.diff, 6),
            "ci": [round(self.ci[0], 6), round(self.ci[1], 6)],
            "p_value": round(self.p_value, 6),
            "effect": round(self.effect, 6),
            "paired": self.paired,
            "significant": self.significant,
        }


@dataclass
class CellComparison:
    """All metric comparisons for one ``victim|attacker|budget`` cell."""

    key: str
    paired: bool
    n_a: int
    n_b: int
    metrics: list[MetricComparison] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "cell": self.key,
            "paired": self.paired,
            "n_a": self.n_a,
            "n_b": self.n_b,
            "metrics": [m.to_json() for m in self.metrics],
        }


@dataclass
class RunComparison:
    """A full two-run comparison, ready to render or serialize."""

    label_a: str
    label_b: str
    stat: StatConfig
    cells: list[CellComparison] = field(default_factory=list)
    provenance_a: dict | None = None
    provenance_b: dict | None = None
    #: Cells present on only one side (compared nowhere, listed so a
    #: report never silently drops a configuration).
    unmatched_a: list[str] = field(default_factory=list)
    unmatched_b: list[str] = field(default_factory=list)

    @property
    def significant(self) -> list[tuple[str, MetricComparison]]:
        return [
            (cell.key, metric)
            for cell in self.cells
            for metric in cell.metrics
            if metric.significant
        ]

    def to_json(self) -> dict:
        return {
            "a": self.label_a,
            "b": self.label_b,
            "stat": {
                "stat_seed": self.stat.stat_seed,
                "resamples": self.stat.resamples,
                "confidence": self.stat.confidence,
                "alpha": self.stat.alpha,
            },
            "provenance_a": _provenance_brief(self.provenance_a),
            "provenance_b": _provenance_brief(self.provenance_b),
            "cells": [cell.to_json() for cell in self.cells],
            "unmatched_a": list(self.unmatched_a),
            "unmatched_b": list(self.unmatched_b),
            "significant_count": len(self.significant),
        }

    def to_markdown(self) -> str:
        return render_comparison(self)


def _provenance_brief(payload: dict | None) -> dict | None:
    if not payload:
        return None
    return {
        "git_sha": payload.get("git_sha"),
        "git_dirty": payload.get("git_dirty"),
        "config_hash": payload.get("config_hash"),
        "weights": payload.get("weights", {}),
    }


def _pairable(seeds_a: list, seeds_b: list) -> bool:
    """Same unique seed sets on both sides -> seed-matched pairing."""
    if not seeds_a or len(seeds_a) != len(seeds_b):
        return False
    if len(set(seeds_a)) != len(seeds_a) or len(set(seeds_b)) != len(seeds_b):
        return False
    return set(seeds_a) == set(seeds_b)


def compare_cells(
    cell_a: MetricSamples,
    cell_b: MetricSamples,
    stat: StatConfig,
    paired: bool | None = None,
) -> CellComparison:
    """Compare one configuration cell across two runs.

    ``paired=None`` auto-detects pairing from the seed sets. Metrics
    where either side has no samples are skipped (e.g. ``ttc_min`` when
    one side never recorded a TTC).
    """
    if paired is None:
        paired = _pairable(cell_a.seeds, cell_b.seeds)
    comparison = CellComparison(
        key=cell_a.key, paired=paired, n_a=cell_a.n, n_b=cell_b.n
    )
    for metric, _, _ in METRICS:
        values_a = cell_a.values.get(metric, {})
        values_b = cell_b.values.get(metric, {})
        if paired:
            shared = [s for s in values_a if s in values_b]
            a = np.asarray([values_a[s] for s in shared], dtype=float)
            b = np.asarray([values_b[s] for s in shared], dtype=float)
        else:
            a = np.asarray(list(values_a.values()), dtype=float)
            b = np.asarray(list(values_b.values()), dtype=float)
        if len(a) == 0 or len(b) == 0:
            continue
        rng = stat.rng(f"{cell_a.key}:{metric}")
        ci = bootstrap_diff_ci(
            a, b, rng, stat.resamples, stat.confidence, paired
        )
        p = permutation_test(a, b, rng, stat.resamples, paired)
        comparison.metrics.append(
            MetricComparison(
                metric=metric,
                n_a=len(a),
                n_b=len(b),
                mean_a=float(a.mean()),
                mean_b=float(b.mean()),
                diff=float(a.mean() - b.mean()),
                ci=ci,
                p_value=p,
                effect=cliffs_delta(a, b),
                paired=paired,
            )
        )
    # Holm correction across this cell's metric family.
    flags = holm_bonferroni(
        [m.p_value for m in comparison.metrics], stat.alpha
    )
    for metric, flag in zip(comparison.metrics, flags):
        metric.significant = flag
    return comparison


def compare_runs(
    episodes_a: list[EpisodeTrace],
    episodes_b: list[EpisodeTrace],
    stat: StatConfig | None = None,
    label_a: str = "A",
    label_b: str = "B",
    paired: bool | None = None,
    provenance_a: dict | None = None,
    provenance_b: dict | None = None,
) -> RunComparison:
    """Compare two runs cell-by-cell over every shared configuration."""
    stat = stat or StatConfig()
    cells_a = collect_metrics(episodes_a)
    cells_b = collect_metrics(episodes_b)
    comparison = RunComparison(
        label_a=label_a,
        label_b=label_b,
        stat=stat,
        provenance_a=provenance_a,
        provenance_b=provenance_b,
        unmatched_a=sorted(set(cells_a) - set(cells_b)),
        unmatched_b=sorted(set(cells_b) - set(cells_a)),
    )
    for key in sorted(set(cells_a) & set(cells_b)):
        comparison.cells.append(
            compare_cells(cells_a[key], cells_b[key], stat, paired)
        )
    return comparison


def render_comparison(comparison: RunComparison) -> str:
    """The comparison as a markdown report (dashboard-compatible)."""
    lines = [f"# Run comparison — {comparison.label_a} vs {comparison.label_b}", ""]
    stat = comparison.stat
    lines.append(
        f"stat-seed {stat.stat_seed} · {stat.resamples} resamples · "
        f"{stat.confidence:.0%} CI · alpha {stat.alpha} (Holm-corrected"
        " per cell)"
    )
    lines.append("")
    for side, payload in (
        (comparison.label_a, comparison.provenance_a),
        (comparison.label_b, comparison.provenance_b),
    ):
        if payload:
            sha = str(payload.get("git_sha", "unknown"))[:12]
            dirty = "+dirty" if payload.get("git_dirty") else ""
            cfg = str(payload.get("config_hash", ""))[:12]
            lines.append(f"- `{side}`: git `{sha}{dirty}` config `{cfg}`")
    if comparison.provenance_a or comparison.provenance_b:
        lines.append("")
    if not comparison.cells:
        lines.append("_No shared configuration cells to compare._")
        lines.append("")
    for cell in comparison.cells:
        mode = "paired" if cell.paired else "unpaired"
        lines.append(
            f"## {cell.key} — n={cell.n_a} vs n={cell.n_b} ({mode})"
        )
        lines.append("")
        rows = []
        for m in cell.metrics:
            marker = "**yes**" if m.significant else "no"
            rows.append(
                [
                    METRIC_LABELS.get(m.metric, m.metric),
                    fmt(m.mean_a),
                    fmt(m.mean_b),
                    fmt(m.diff),
                    f"[{fmt(m.ci[0])}, {fmt(m.ci[1])}]",
                    fmt(m.p_value, 4),
                    fmt(m.effect),
                    marker,
                ]
            )
        lines.extend(
            markdown_table(
                (
                    "metric",
                    comparison.label_a,
                    comparison.label_b,
                    "diff",
                    "CI(diff)",
                    "p",
                    "effect",
                    "significant",
                ),
                rows,
            )
        )
        lines.append("")
    for side, keys in (
        (comparison.label_a, comparison.unmatched_a),
        (comparison.label_b, comparison.unmatched_b),
    ):
        if keys:
            lines.append(
                f"_Cells only in {side}: " + ", ".join(keys) + "_"
            )
            lines.append("")
    count = len(comparison.significant)
    lines.append(
        f"**{count} significant difference(s)**"
        if count
        else "No significant differences."
    )
    lines.append("")
    return "\n".join(lines)


# -- metric snapshots + regression gates --------------------------------------------


def metric_snapshot(
    episodes: list[EpisodeTrace],
    stat: StatConfig | None = None,
    claims: dict[str, str] | None = None,
    provenance: dict | None = None,
) -> dict:
    """Per-cell metric distributions as a committable JSON document.

    The baseline side of the scientific regression gate: per metric the
    snapshot stores n, mean, a seeded bootstrap CI on the mean, and the
    raw values (rounded) so future builds can re-test against the
    *distribution*, not just a point estimate. ``claims`` optionally maps
    cell keys to claim descriptions (EXPERIMENTS.md anchors).
    """
    stat = stat or StatConfig()
    cells = collect_metrics(episodes)
    document: dict = {
        "schema": METRICS_SCHEMA_VERSION,
        "kind": "metrics",
        "stat": {
            "stat_seed": stat.stat_seed,
            "resamples": stat.resamples,
            "confidence": stat.confidence,
            "alpha": stat.alpha,
        },
        "provenance": _provenance_brief(provenance),
        "cells": {},
    }
    for key in sorted(cells):
        cell = cells[key]
        entry: dict = {"n": cell.n, "metrics": {}}
        if claims and key in claims:
            entry["claim"] = claims[key]
        for metric, _, _ in METRICS:
            values = np.asarray(cell.metric_values(metric), dtype=float)
            if len(values) == 0:
                continue
            rng = stat.rng(f"{key}:{metric}")
            lo, hi = bootstrap_mean_ci_seeded(
                values, rng, stat.resamples, stat.confidence
            )
            entry["metrics"][metric] = {
                "n": int(len(values)),
                "mean": round(float(values.mean()), 6),
                "ci": [round(lo, 6), round(hi, 6)],
                "values": [round(float(v), 6) for v in values],
            }
        document["cells"][key] = entry
    return document


def stat_config_from_snapshot(document: dict) -> StatConfig:
    """Rebuild the :class:`StatConfig` a snapshot was produced with."""
    stat = document.get("stat", {}) if isinstance(document, dict) else {}
    return StatConfig(
        stat_seed=int(stat.get("stat_seed", 0)),
        resamples=int(stat.get("resamples", 2000)),
        confidence=float(stat.get("confidence", 0.95)),
        alpha=float(stat.get("alpha", 0.05)),
    )


def compare_metric_snapshots(
    current: dict,
    baseline: dict,
    min_n: int = 5,
    tolerance: float = 1e-9,
) -> list[Breach]:
    """Gate a current metric snapshot against a committed baseline.

    A breach is a current cell mean falling outside the baseline's
    bootstrap CI on that metric's mean (either side — a "too good"
    drift usually means the configuration silently changed). Cells or
    metrics absent from either side are skipped; samples below ``min_n``
    on either side are too noisy to gate and are skipped too.
    """
    breaches: list[Breach] = []
    baseline_cells = baseline.get("cells", {})
    for key, entry in sorted(current.get("cells", {}).items()):
        base_entry = baseline_cells.get(key)
        if not base_entry:
            continue
        for metric, stats in sorted(entry.get("metrics", {}).items()):
            base = base_entry.get("metrics", {}).get(metric)
            if not base:
                continue
            if stats.get("n", 0) < min_n or base.get("n", 0) < min_n:
                continue
            mean = float(stats["mean"])
            lo, hi = (float(base["ci"][0]), float(base["ci"][1]))
            if lo - tolerance <= mean <= hi + tolerance:
                continue
            limit = lo if mean < lo else hi
            breaches.append(
                Breach(
                    kind="metric",
                    name=key,
                    baseline=float(base["mean"]),
                    current=mean,
                    limit=limit,
                    metric=metric,
                )
            )
    return breaches


# -- run sources (traces / dirs / stores) -------------------------------------------


def load_run(
    source: str | Path,
    label: str | None = None,
) -> tuple[list[EpisodeTrace], dict | None, str]:
    """Episodes + provenance + display label from one run source.

    ``source`` is anything :func:`repro.obsv.store.open_run` accepts: a
    JSONL trace file, a run directory (every ``*.jsonl`` in it), or a
    telemetry store. ``label`` narrows it to the trace files of one
    labelled run (the ``REPRO_RUN_ID`` they were recorded under). A
    missing source returns no episodes rather than raising — the CLI
    degrades with a warning instead of a traceback.
    """
    try:
        with open_run(source) as store:
            episodes = store.episodes(label=label)
            provenance = next(
                (
                    row["provenance"]
                    for row in store.run_provenance()
                    if row["provenance"]
                    and (label is None or row["label"] == label)
                ),
                None,
            )
    except FileNotFoundError:
        return [], None, str(source)
    name = Path(source).name
    return episodes, provenance, name if label is None else f"{name}:{label}"


def load_metric_source(source: str | Path, stat: StatConfig) -> dict | None:
    """A metric snapshot from a snapshot JSON *or* a raw run source.

    ``obsv regress --metrics`` accepts either a precomputed snapshot
    document or traces/dirs/stores, which are snapshotted on the fly
    with the baseline's stat config so CIs line up. A ``.json`` file
    that is not a metric snapshot raises ``ValueError``; a run source
    without episodes gives None.
    """
    path = Path(source)
    if path.is_file() and path.suffix == ".json":
        return load_snapshot(path, kind="metrics")
    episodes, provenance, _ = load_run(path)
    if not episodes:
        return None
    return metric_snapshot(episodes, stat, provenance=provenance)
