"""Tests for the dashboard builder and the bench regression watch."""

import json

import pytest

from repro.agents.modular import ModularAgent
from repro.core.attackers import OracleAttacker
from repro.eval.episodes import run_episodes
from repro.obsv.cli import main
from repro.obsv.dashboard import build_dashboard, to_html
from repro.obsv.regress import (
    RegressionThresholds,
    compare_snapshots,
    report,
)
from repro.obsv.render import sparkline
from repro.telemetry.trace import TraceWriter

pytestmark = pytest.mark.obsv


@pytest.fixture()
def run_dir(tmp_path):
    writer = TraceWriter(tmp_path / "episodes.jsonl")
    run_episodes(
        lambda w: ModularAgent(w.road),
        lambda: OracleAttacker(budget=1.0),
        n_episodes=2,
        seed=3,
        trace=writer,
    )
    writer.close()
    (tmp_path / "EXPERIMENTS_metrics.json").write_text(
        json.dumps(
            {
                "counters": {
                    "episodes_total": 2.0,
                    "detector_trips_total{context=attacked}": 3.0,
                    "detector_false_trips_total": 1.0,
                },
                "gauges": {"detector_latency_ticks": 2.0},
                "histograms": {},
            }
        ),
        encoding="utf-8",
    )
    (tmp_path / "BENCH_telemetry.json").write_text(
        json.dumps(BASE_BENCH), encoding="utf-8"
    )
    return tmp_path


BASE_BENCH = {
    "schema": 1,
    "wall_clock_s": 100.0,
    "python": "3.11",
    "numpy": "1.26",
    "spans": {
        "episode/world.tick": {
            "count": 1000, "total_s": 10.0, "mean_us": 100.0, "p99_us": 200.0,
        },
        "episode": {
            "count": 5, "total_s": 12.0, "mean_us": 2.4e6, "p99_us": 3e6,
        },
    },
    "metrics": {"counters": {"collisions_total{kind=SIDE}": 10.0}},
}


class TestDashboard:
    def test_markdown_aggregates_everything(self, run_dir):
        markdown = build_dashboard(run_dir)
        assert "# Experiment dashboard" in markdown
        assert "modular" in markdown and "oracle" in markdown
        # Episode table has a success-rate cell for the oracle cell.
        assert "| modular | oracle | 1.00 | 2 |" in markdown
        # Detector satellite surfaced.
        assert "detector_trips_total" in markdown
        assert "detector_false_trips_total" in markdown
        assert "detector_latency_ticks" in markdown
        # Bench telemetry section present with the hottest span.
        assert "episode/world.tick" in markdown
        assert "100.0 s" in markdown

    def test_html_is_self_contained(self, run_dir):
        page = to_html(build_dashboard(run_dir))
        assert page.startswith("<!DOCTYPE html>")
        assert "<table>" in page and "</html>" in page
        assert "detector_trips_total" in page

    def test_empty_dir_degrades_gracefully(self, tmp_path):
        markdown = build_dashboard(tmp_path)
        assert "No episode traces" in markdown


class TestSparkline:
    def test_scales_and_pools(self):
        line = sparkline([0.0] * 50 + [1.0] * 50, width=10)
        assert len(line) == 10
        assert line[0] != line[-1]

    def test_constant_and_empty(self):
        assert sparkline([]) == ""
        assert set(sparkline([2.0, 2.0, 2.0])) == {"▁"}


def doctored(**overrides):
    snapshot = json.loads(json.dumps(BASE_BENCH))
    snapshot.update(overrides)
    return snapshot


class TestRegress:
    def test_identical_snapshots_pass(self):
        assert compare_snapshots(BASE_BENCH, BASE_BENCH) == []

    def test_wall_clock_blowup_breaches(self):
        breaches = compare_snapshots(doctored(wall_clock_s=300.0), BASE_BENCH)
        assert [b.kind for b in breaches] == ["wall_clock"]

    def test_span_mean_regression_breaches(self):
        current = doctored()
        current["spans"]["episode/world.tick"]["mean_us"] = 1000.0
        breaches = compare_snapshots(current, BASE_BENCH)
        assert any(
            b.kind == "span" and b.name == "episode/world.tick"
            for b in breaches
        )

    def test_low_call_spans_are_noise(self):
        current = doctored()
        current["spans"]["episode"]["mean_us"] = 1e9  # only 5 calls
        assert compare_snapshots(current, BASE_BENCH) == []

    def test_watched_counter_appearing_breaches(self):
        current = doctored()
        current["metrics"] = {
            "counters": {
                "collisions_total{kind=SIDE}": 10.0,
                "collisions_total{kind=BARRIER}": 1.0,
            }
        }
        breaches = compare_snapshots(current, BASE_BENCH)
        assert [b.kind for b in breaches] == ["counter"]

    def test_threshold_overrides(self):
        current = doctored(wall_clock_s=160.0)
        assert compare_snapshots(current, BASE_BENCH) != []
        loose = RegressionThresholds(wall_clock_ratio=2.0)
        assert compare_snapshots(current, BASE_BENCH, loose) == []

    def test_compare_files_and_report(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current.write_text(json.dumps(doctored(wall_clock_s=500.0)))
        baseline.write_text(json.dumps(BASE_BENCH))
        assert main(["regress", str(current), str(baseline)]) == 1
        text = capsys.readouterr().out
        assert text == report(
            compare_snapshots(doctored(wall_clock_s=500.0), BASE_BENCH)
        )
        assert "BREACH" in text and "wall_clock" in text
        assert report([]).startswith("regress: OK")

    def test_unreadable_snapshot_is_named(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(BASE_BENCH))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        for current in (bad, tmp_path / "missing.json"):
            with pytest.raises(SystemExit, match=str(current)):
                main(["regress", str(current), str(baseline)])
