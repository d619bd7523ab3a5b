"""Experiment dashboard: one document summarizing a run.

A run is anything :func:`repro.obsv.store.open_run` accepts — a run
directory, a JSONL trace or a telemetry store — and every form renders
through the store, so a run directory and the store ``obsv ingest``
built from it give the same document. It aggregates three artifact
families the observability layer produces:

* **episode traces** (``*.jsonl``) — per (victim, attacker, budget) cell:
  episode counts, side-collision (attack success) and collision rates,
  mean strike effort, mean returns, and a per-episode return sparkline;
* **metrics snapshots** (``EXPERIMENTS_metrics.json`` or any registry
  ``to_json`` output) — process-wide counters including the residual
  detector's trip/false-trip/latency instrumentation;
* **bench telemetry** (``BENCH_telemetry.json``) — session wall-clock and
  the hottest span paths.

Output is markdown; :func:`to_html` wraps it into a dependency-free
self-contained HTML page.
"""

from __future__ import annotations

import html as _html
from pathlib import Path

from repro.obsv.compare import episode_metrics
from repro.obsv.loader import EpisodeTrace
from repro.obsv.render import fmt, markdown_table, sparkline
from repro.obsv.store import open_run

#: Hex digits of git SHA / config hash shown in the provenance table.
_SHORT_HASH = 10


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _episode_rows(episodes: list[EpisodeTrace]) -> list[list[str]]:
    cells: dict[tuple[str, str, str], list[EpisodeTrace]] = {}
    for episode in episodes:
        if not episode.complete:
            continue
        key = (
            episode.victim,
            episode.attacker,
            fmt(episode.budget, 2) if episode.budget is not None else "-",
        )
        cells.setdefault(key, []).append(episode)
    rows = []
    for (victim, attacker, budget), bucket in sorted(cells.items()):
        n = len(bucket)
        metrics = [episode_metrics(episode) for episode in bucket]
        # Effort averages over the episodes that injected.
        efforts = [m["effort"] for m in metrics if m["effort"] > 0.0]
        returns = [
            m["nominal_return"] for m in metrics if "nominal_return" in m
        ]
        rows.append(
            [
                victim,
                attacker,
                budget,
                n,
                fmt(sum(m["attack_success"] for m in metrics) / n, 2),
                fmt(sum(m["collision"] for m in metrics) / n, 2),
                fmt(_mean(efforts), 2),
                fmt(_mean(returns), 1),
                sparkline(returns, width=24) if returns else "",
            ]
        )
    return rows


def _short(value: str | None) -> str:
    if not value:
        return "-"
    return value if value == "unknown" else value[:_SHORT_HASH]


def _provenance_section(rows: list[dict]) -> list[str]:
    """Markdown for the run-provenance table (empty when nothing known).

    ``rows`` are :meth:`~repro.obsv.store.TelemetryStore.run_provenance`
    rows.
    """
    if not any(r["git_sha"] or r["label"] for r in rows):
        return []
    lines = ["## Run provenance", ""]
    table = []
    for row in sorted(rows, key=lambda r: Path(r["source"]).name):
        dirty = row["dirty"]
        table.append(
            [
                f"`{Path(row['source']).name}`",
                str(row["label"] or "-"),
                _short(row["git_sha"]),
                "-" if dirty is None else ("yes" if dirty else "no"),
                _short(row["config_hash"]),
            ]
        )
    lines.extend(
        markdown_table(
            ["trace", "run label", "git sha", "dirty", "config"], table
        )
    )
    lines.append("")
    return lines


def _detector_section(counters: dict, gauges: dict) -> list[str]:
    trips = {k: v for k, v in counters.items() if k.startswith("detector_")}
    latency = {k: v for k, v in gauges.items() if k.startswith("detector_")}
    if not trips and not latency:
        return []
    lines = ["## Residual attack detector", ""]
    rows = [[f"`{name}`", fmt(value, 0)] for name, value in sorted(trips.items())]
    rows += [[f"`{name}` (gauge)", fmt(value, 0)]
             for name, value in sorted(latency.items())]
    lines.extend(markdown_table(["metric", "value"], rows))
    lines.append("")
    return lines


def build_dashboard(source: str | Path, max_spans: int = 12) -> str:
    """Render the markdown dashboard for one run.

    ``source`` is a run directory (its ``*.jsonl`` traces plus
    ``EXPERIMENTS_metrics.json`` / ``BENCH_telemetry.json``), a trace
    file, or a telemetry store.
    """
    with open_run(source) as store:
        source_label = store.get_meta("source_dir") or str(source)
        episodes = store.episodes()
        trace_file_count = sum(
            1 for info in store.runs() if info.kind == "trace"
        )
        metrics = store.snapshot("EXPERIMENTS_metrics.json")
        bench = store.snapshot("BENCH_telemetry.json")
        provenance_rows = store.run_provenance()

    lines: list[str] = ["# Experiment dashboard", ""]
    out = lines.append
    out(f"Source directory: `{source_label}`")
    out("")

    out("## Episodes")
    out("")
    if episodes:
        complete = [e for e in episodes if e.complete]
        out(
            f"{len(complete)} complete episodes across"
            f" {trace_file_count} trace file(s)."
        )
        out("")
        lines.extend(
            markdown_table(
                ["victim", "attacker", "eps", "n", "success", "collision",
                 "mean effort", "mean reward", "reward trend"],
                _episode_rows(episodes),
            )
        )
    else:
        out(f"No episode traces (`*.jsonl`) found in `{source_label}`.")
    out("")

    lines.extend(_provenance_section(provenance_rows))

    if metrics is not None:
        counters = metrics.get("counters", {})
        gauges = metrics.get("gauges", {})
        lines.extend(_detector_section(counters, gauges))
        if counters:
            out("## Counters (`EXPERIMENTS_metrics.json`)")
            out("")
            rows = [[f"`{name}`", fmt(value, 0)]
                    for name, value in sorted(counters.items())]
            lines.extend(markdown_table(["counter", "value"], rows))
            out("")

    if bench is not None:
        out("## Bench telemetry (`BENCH_telemetry.json`)")
        out("")
        out(
            f"Session wall-clock {fmt(bench.get('wall_clock_s'), 1)} s on"
            f" python {bench.get('python', '?')} /"
            f" numpy {bench.get('numpy', '?')}."
        )
        out("")
        spans = bench.get("spans", {})
        if spans:
            ranked = sorted(
                spans.items(),
                key=lambda item: -float(item[1].get("total_s", 0.0)),
            )[:max_spans]
            rows = [
                [
                    f"`{name}`",
                    int(stats.get("count", 0)),
                    fmt(stats.get("total_s"), 2),
                    fmt(stats.get("mean_us"), 0),
                    fmt(stats.get("p99_us"), 0),
                ]
                for name, stats in ranked
            ]
            lines.extend(
                markdown_table(
                    ["span", "calls", "total s", "mean us", "p99 us"], rows
                )
            )
            out("")
    return "\n".join(lines) + "\n"


_HTML_TEMPLATE = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>repro experiment dashboard</title>
<style>
body {{ font-family: ui-monospace, Menlo, Consolas, monospace;
       max-width: 72rem; margin: 2rem auto; padding: 0 1rem;
       color: #1a1a2e; background: #fafaf7; }}
table {{ border-collapse: collapse; margin: 0.8rem 0; }}
th, td {{ border: 1px solid #c8c8c0; padding: 0.25rem 0.6rem;
          text-align: left; font-size: 0.85rem; }}
th {{ background: #ecece4; }}
h1, h2 {{ font-weight: 600; }}
code {{ background: #eeeee6; padding: 0 0.2rem; }}
</style></head><body>
{body}
</body></html>
"""


def to_html(markdown: str) -> str:
    """Convert the dashboard markdown into a self-contained HTML page.

    Understands exactly the constructs :func:`build_dashboard` emits —
    ``#``/``##`` headings, pipe tables, inline code, and paragraphs — no
    external renderer needed.
    """
    body: list[str] = []
    table: list[list[str]] = []

    def _inline(text: str) -> str:
        text = _html.escape(text)
        parts = text.split("`")
        for index in range(1, len(parts), 2):
            parts[index] = f"<code>{parts[index]}</code>"
        return "".join(parts)

    def flush_table() -> None:
        if not table:
            return
        body.append("<table>")
        header, *rest = table
        body.append(
            "<tr>" + "".join(f"<th>{_inline(c)}</th>" for c in header) + "</tr>"
        )
        for row in rest:
            body.append(
                "<tr>" + "".join(f"<td>{_inline(c)}</td>" for c in row) + "</tr>"
            )
        body.append("</table>")
        table.clear()

    for line in markdown.splitlines():
        stripped = line.strip()
        if stripped.startswith("|"):
            cells = [c.strip() for c in stripped.strip("|").split("|")]
            if all(set(c) <= {"-", ":"} and c for c in cells):
                continue  # separator row
            table.append(cells)
            continue
        flush_table()
        if not stripped:
            continue
        if stripped.startswith("## "):
            body.append(f"<h2>{_inline(stripped[3:])}</h2>")
        elif stripped.startswith("# "):
            body.append(f"<h1>{_inline(stripped[2:])}</h1>")
        else:
            body.append(f"<p>{_inline(stripped)}</p>")
    flush_table()
    return _HTML_TEMPLATE.format(body="\n".join(body))
