"""Self-time attribution over the span call-tree.

The span tracer reports *inclusive* wall-clock per path — ``episode``
contains everything, so it always tops the table and says nothing about
where the time actually goes. Self time is inclusive minus the time
spent in direct children: the microseconds a span burned in its own
frame. Summed over every path it reconstructs the root spans' inclusive
total exactly, which is what lets a profile claim "these rows account
for the session".

Its input is a schema-2 span snapshot (``BENCH_telemetry.json`` written
by the bench conftest, a ``PROFILE_report.json``, or any
:meth:`Tracer.snapshot`), which carries exact ``self_total_s`` per span
from the tracer's child bookkeeping. A span without it (a schema-1
snapshot) is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obsv.render import fmt, markdown_table


@dataclass(frozen=True)
class SelfTimeRow:
    """Self-time attribution of one span path."""

    path: str
    calls: int
    #: Inclusive wall-clock (the tracer's ``total_s``).
    total_s: float
    #: Inclusive minus direct children: time in the span's own frame.
    self_s: float
    #: ``self_s`` per call, microseconds.
    self_mean_us: float
    #: Share of the session's summed self time, 0..1.
    self_frac: float


def attribute(spans: dict[str, dict]) -> list[SelfTimeRow]:
    """Self-time rows for a span snapshot, largest self time first.

    Raises ``ValueError`` naming the first span without ``self_total_s``.
    """
    missing = next(
        (path for path, stats in spans.items() if "self_total_s" not in stats),
        None,
    )
    if missing is not None:
        raise ValueError(
            f"span {missing!r} has no self_total_s (a schema-1 snapshot?);"
            " self time needs a schema-2 span snapshot"
        )
    self_times = {
        path: float(stats["self_total_s"]) for path, stats in spans.items()
    }
    grand_total = sum(self_times.values())
    rows = []
    for path, stats in spans.items():
        calls = int(stats.get("count", 0))
        self_s = self_times[path]
        rows.append(
            SelfTimeRow(
                path=path,
                calls=calls,
                total_s=float(stats.get("total_s", 0.0)),
                self_s=self_s,
                self_mean_us=1e6 * self_s / max(calls, 1),
                self_frac=self_s / grand_total if grand_total else 0.0,
            )
        )
    rows.sort(key=lambda row: -row.self_s)
    return rows


def total_self_s(rows: list[SelfTimeRow]) -> float:
    """Summed self time — equals the root spans' inclusive total."""
    return sum(row.self_s for row in rows)


def root_total_s(spans: dict[str, dict]) -> float:
    """Summed inclusive time of root paths (the tree's wall-clock)."""
    return sum(
        float(stats.get("total_s", 0.0))
        for path, stats in spans.items()
        if "/" not in path
    )


def to_markdown(
    rows: list[SelfTimeRow], top: int = 15, heading: bool = True
) -> str:
    """The "where the time actually goes" table, top-N rows by self time."""
    lines: list[str] = []
    if heading:
        lines += ["## Self time (where the time actually goes)", ""]
    shown = rows[:top]
    table_rows = [
        [
            f"`{row.path}`",
            row.calls,
            fmt(row.self_s, 2),
            fmt(row.self_mean_us, 1),
            fmt(100.0 * row.self_frac, 1),
            fmt(row.total_s, 2),
        ]
        for row in shown
    ]
    lines.extend(
        markdown_table(
            ["span", "calls", "self s", "self us/call", "self %", "incl s"],
            table_rows,
        )
    )
    hidden = len(rows) - len(shown)
    if hidden > 0:
        remainder = sum(row.self_s for row in rows[top:])
        lines.append("")
        lines.append(
            f"... {hidden} more span(s) accounting for"
            f" {fmt(remainder, 2)} s of self time."
        )
    return "\n".join(lines) + "\n"


def to_json(rows: list[SelfTimeRow]) -> list[dict]:
    return [
        {
            "path": row.path,
            "calls": row.calls,
            "total_s": round(row.total_s, 6),
            "self_s": round(row.self_s, 6),
            "self_mean_us": round(row.self_mean_us, 3),
            "self_frac": round(row.self_frac, 6),
        }
        for row in rows
    ]
