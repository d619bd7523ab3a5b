"""The statistical comparison engine, its CLI, gates, and surfacing.

Covers the ISSUE acceptance criteria directly: ``obsv compare`` on two
recorded demo runs produces bit-identical bootstrap CIs / p-values
under a fixed ``--stat-seed``; ``obsv regress --metrics`` exits nonzero
on an injected metric drift while passing on the committed
``benchmarks/BASELINE_metrics.json``; and the partial-input hardening
satellite (missing metrics files, empty dirs, missing sources degrade
instead of raising, while an unreadable watch baseline is refused).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.agents.modular import ModularAgent
from repro.core.attackers import OracleAttacker
from repro.eval.episodes import run_episodes
from repro.obsv.cli import main
from repro.obsv.compare import (
    MetricSamples,
    StatConfig,
    cliffs_delta,
    compare_cells,
    compare_metric_snapshots,
    compare_runs,
    holm_bonferroni,
    load_run,
    metric_snapshot,
)
from repro.obsv.dashboard import build_dashboard
from repro.obsv.watch import WatchState, metric_drift, watch_trace
from repro.telemetry.trace import TraceWriter, tick_columns

pytestmark = pytest.mark.obsv

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "BASELINE_metrics.json"
)


def record_run(path, seed=0, n=6, label=None, monkeypatch=None):
    if label is not None:
        monkeypatch.setenv("REPRO_RUN_ID", label)
    writer = TraceWriter(path)
    run_episodes(
        lambda w: ModularAgent(w.road),
        lambda: OracleAttacker(budget=1.0),
        n_episodes=n,
        seed=seed,
        trace=writer,
    )
    writer.close()
    if label is not None:
        monkeypatch.delenv("REPRO_RUN_ID")
    return path


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """Two seed-matched demo runs + one on disjoint seeds."""
    base = tmp_path_factory.mktemp("compare-demo")
    a = record_run(base / "run_a.jsonl", seed=0)
    b = record_run(base / "run_b.jsonl", seed=0)
    c = record_run(base / "run_c.jsonl", seed=50)
    return a, b, c


# -- engine ---------------------------------------------------------------------------


def shifted_cells(shift=0.0, seeds=(0, 1, 2, 3, 4, 5)):
    cell = MetricSamples(key="m|o|1.00")
    for seed in seeds:
        cell.n += 1
        cell.seeds.append(seed)
        cell.values.setdefault("steps", {})[seed] = 100.0 + seed + shift
    return cell


class TestEngine:
    def test_deterministic_under_fixed_seed(self, demo_runs):
        a, b, _ = demo_runs
        episodes_a, _, _ = load_run(a)
        episodes_b, _, _ = load_run(b)
        stat = StatConfig(stat_seed=7)
        first = compare_runs(episodes_a, episodes_b, stat=stat).to_json()
        second = compare_runs(episodes_a, episodes_b, stat=stat).to_json()
        assert first == second

    def test_different_stat_seed_moves_the_cis(self):
        a, b = shifted_cells(), shifted_cells(shift=3.0, seeds=(6, 7, 8, 9))
        ci_7 = compare_cells(a, b, StatConfig(stat_seed=7, resamples=200))
        ci_8 = compare_cells(a, b, StatConfig(stat_seed=8, resamples=200))
        assert [m.ci for m in ci_7.metrics] != [m.ci for m in ci_8.metrics]

    def test_paired_auto_detection(self, demo_runs):
        a, b, c = demo_runs
        episodes_a, _, _ = load_run(a)
        episodes_b, _, _ = load_run(b)
        episodes_c, _, _ = load_run(c)
        paired = compare_runs(episodes_a, episodes_b)
        assert paired.cells and all(cell.paired for cell in paired.cells)
        unpaired = compare_runs(episodes_a, episodes_c)
        assert unpaired.cells and not any(c.paired for c in unpaired.cells)

    def test_self_compare_finds_nothing(self, demo_runs):
        a, b, _ = demo_runs
        episodes_a, _, _ = load_run(a)
        episodes_b, _, _ = load_run(b)
        comparison = compare_runs(episodes_a, episodes_b)
        assert comparison.significant == []
        for cell in comparison.cells:
            for metric in cell.metrics:
                assert metric.diff == 0.0

    def test_large_shift_is_significant(self):
        comparison = compare_cells(
            shifted_cells(shift=50.0), shifted_cells(), StatConfig()
        )
        (steps,) = [m for m in comparison.metrics if m.metric == "steps"]
        assert steps.significant
        assert steps.diff == pytest.approx(50.0)
        assert steps.ci[0] > 0.0

    def test_cliffs_delta_bounds_and_sign(self):
        assert cliffs_delta(
            np.array([2.0, 3.0]), np.array([0.0, 1.0])
        ) == 1.0
        assert cliffs_delta(
            np.array([0.0]), np.array([5.0])
        ) == -1.0
        assert cliffs_delta(np.array([]), np.array([1.0])) == 0.0

    def test_holm_stops_at_first_failure(self):
        flags = holm_bonferroni([0.001, 0.04, 0.9], alpha=0.05)
        assert flags == [True, False, False]

    def test_unmatched_cells_listed_not_dropped(self, demo_runs):
        a, _, _ = demo_runs
        episodes_a, _, _ = load_run(a)
        comparison = compare_runs(episodes_a, [])
        assert comparison.cells == []
        assert comparison.unmatched_a  # the demo cell, reported


# -- CLI ------------------------------------------------------------------------------


class TestCompareCli:
    def test_json_bit_identical_under_stat_seed(self, demo_runs, capsys):
        a, b, _ = demo_runs
        argv = [
            "compare", str(a), str(b), "--json", "--stat-seed", "7",
            "--resamples", "500",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        report = json.loads(first)
        assert report["stat"]["stat_seed"] == 7
        assert report["cells"]

    def test_markdown_report(self, demo_runs, capsys):
        a, _, c = demo_runs
        assert main(["compare", str(a), str(c)]) == 0
        out = capsys.readouterr().out
        assert "Run comparison" in out
        assert "unpaired" in out

    def test_html_report(self, demo_runs, capsys):
        a, b, _ = demo_runs
        assert main(["compare", str(a), str(b), "--html"]) == 0
        assert "<html" in capsys.readouterr().out.lower()

    def test_missing_source_degrades(self, demo_runs, tmp_path, capsys):
        a, _, _ = demo_runs
        rc = main(["compare", str(a), str(tmp_path / "missing.jsonl")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "no complete episodes" in captured.err


# -- regression gate ------------------------------------------------------------------


class TestMetricsGate:
    @pytest.fixture()
    def snapshot_path(self, demo_runs, tmp_path, capsys):
        a, _, _ = demo_runs
        out = tmp_path / "snap.json"
        assert main(
            ["compare", str(a), "--snapshot", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        return out

    def test_self_gate_passes(self, snapshot_path, capsys):
        rc = main(
            [
                "regress", str(snapshot_path), str(snapshot_path),
                "--metrics", "--min-n", "1",
            ]
        )
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_injected_drift_breaches(self, snapshot_path, tmp_path, capsys):
        drifted = json.loads(snapshot_path.read_text(encoding="utf-8"))
        for cell in drifted["cells"].values():
            stats = cell["metrics"]["steps"]
            stats["mean"] += 100.0
        current = tmp_path / "drifted.json"
        current.write_text(json.dumps(drifted), encoding="utf-8")
        rc = main(
            [
                "regress", str(current), str(snapshot_path),
                "--metrics", "--min-n", "1", "--json",
            ]
        )
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert any(
            b["metric"] == "steps" for b in report["breaches"]
        )

    def test_committed_baseline_self_passes(self, capsys):
        assert BASELINE.is_file(), "committed baseline must exist"
        rc = main(
            ["regress", str(BASELINE), str(BASELINE), "--metrics"]
        )
        assert rc == 0
        capsys.readouterr()

    def test_committed_baseline_detects_drift(self, tmp_path, capsys):
        baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
        drifted = json.loads(BASELINE.read_text(encoding="utf-8"))
        cell = next(iter(drifted["cells"]))
        drifted["cells"][cell]["metrics"]["steps"]["mean"] += 1000.0
        current = tmp_path / "drift.json"
        current.write_text(json.dumps(drifted), encoding="utf-8")
        rc = main(["regress", str(current), str(BASELINE), "--metrics"])
        assert rc == 1
        capsys.readouterr()
        breaches = compare_metric_snapshots(drifted, baseline)
        assert [b.metric for b in breaches] == ["steps"]
        assert breaches[0].kind == "metric"

    def test_non_snapshot_baseline_refused(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"kind": "other"}', encoding="utf-8")
        with pytest.raises(SystemExit, match="not a metric snapshot"):
            main(
                ["regress", str(bogus), str(bogus), "--metrics"]
            )


# -- hardening ------------------------------------------------------------------------


class TestHardening:
    def test_dashboard_empty_dir(self, tmp_path, capsys):
        assert main(["dashboard", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "No episode traces" in out

    def test_dashboard_without_metrics_files(self, demo_runs, tmp_path):
        a, _, _ = demo_runs
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "episodes.jsonl").write_text(
            a.read_text(encoding="utf-8"), encoding="utf-8"
        )
        # No EXPERIMENTS_metrics.json / BENCH_telemetry.json anywhere.
        text = build_dashboard(run_dir)
        assert "Run provenance" in text  # stamped traces surface it

    def test_compare_empty_dir_degrades(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["compare", str(empty), str(empty)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "no complete episodes" in captured.err

    def test_load_run_missing_source(self, tmp_path):
        episodes, provenance, label = load_run(tmp_path / "nope.jsonl")
        assert episodes == [] and provenance is None

    def test_run_label_selects_in_any_source(
        self, tmp_path, monkeypatch, capsys
    ):
        run_dir = tmp_path / "labelled"
        run_dir.mkdir()
        one = record_run(
            run_dir / "one.jsonl", seed=0, n=2, label="L1",
            monkeypatch=monkeypatch,
        )
        record_run(
            run_dir / "two.jsonl", seed=5, n=2, label="L2",
            monkeypatch=monkeypatch,
        )
        episodes, provenance, name = load_run(run_dir, label="L2")
        assert sorted(e.seed for e in episodes) == [5, 6]
        assert provenance["env"]["REPRO_RUN_ID"] == "L2"
        assert name == "labelled:L2"
        episodes, _, name = load_run(one, label="L1")
        assert sorted(e.seed for e in episodes) == [0, 1]
        assert name == "one.jsonl:L1"
        assert load_run(one, label="L2")[0] == []
        argv = [
            "compare", str(run_dir), str(run_dir), "--run-a", "L1",
            "--run-b", "L2", "--json", "--resamples", "50",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["a"], report["b"]) == ("labelled:L1", "labelled:L2")
        rc = main(["compare", str(one), str(one), "--run-b", "L2"])
        assert rc == 1
        assert "no complete episodes" in capsys.readouterr().err

    def test_watch_baseline_unreadable(self, demo_runs, tmp_path, capsys):
        a, _, _ = demo_runs
        missing = tmp_path / "missing.json"
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"kind": "bench"}', encoding="utf-8")
        for baseline in (missing, bad, wrong):
            rc = main([
                "watch", str(a), "--once", "--no-write-alerts",
                "--baseline-metrics", str(baseline),
            ])
            assert rc == 1
            captured = capsys.readouterr()
            assert str(baseline) in captured.err
            assert captured.out == ""  # refused before watching
            with pytest.raises(ValueError, match=str(baseline)):
                watch_trace(a, once=True, baseline_metrics=baseline)


# -- watch drift annotations ----------------------------------------------------------


def _live_state(n=6, collisions=0):
    state = WatchState()
    for episode in range(n):
        state.ingest(
            {
                "event": "episode_start", "episode": episode,
                "victim": "modular", "attacker": "oracle", "budget": 1.0,
            }
        )
        state.ingest(
            {
                "event": "episode_end", "episode": episode,
                "steps": 120, "duration": 12.0,
                "collision": "SIDE" if episode < collisions else None,
            }
        )
    return state


class TestWatchDrift:
    BASELINE_DOC = {
        "kind": "metrics",
        "schema": 1,
        "cells": {
            "modular|oracle|1.00": {
                "n": 6,
                "metrics": {
                    "collision": {"n": 6, "mean": 0.0, "ci": [0.0, 0.2]},
                    "steps": {"n": 6, "mean": 120.0, "ci": [110.0, 130.0]},
                },
            }
        },
    }

    def test_in_ci_cells_not_flagged(self):
        assert metric_drift(_live_state(collisions=1), self.BASELINE_DOC) == []

    def test_out_of_ci_cell_flagged(self):
        rows = metric_drift(_live_state(collisions=6), self.BASELINE_DOC)
        assert [(r[0], r[1]) for r in rows] == [
            ("modular|oracle|1.00", "collision")
        ]
        _, _, mean, n, lo, hi = rows[0]
        assert mean == 1.0 and n == 6 and (lo, hi) == (0.0, 0.2)

    def test_min_n_guard(self):
        state = _live_state(n=2, collisions=2)
        assert metric_drift(state, self.BASELINE_DOC, min_n=5) == []

    def test_render_status_annotates(self):
        from repro.obsv.watch import render_status

        text = render_status(
            _live_state(collisions=6), "trace.jsonl",
            baseline=self.BASELINE_DOC,
        )
        assert "[DRIFT]" in text
        clean = render_status(
            _live_state(collisions=1), "trace.jsonl",
            baseline=self.BASELINE_DOC,
        )
        assert "metric drift vs baseline: none" in clean

    def test_every_gated_metric_is_watched(self):
        """The live view gates what ``regress --metrics`` gates: six
        episodes striking at 0.9 leave a strike-effort CI of [0, 0.1]."""
        state = WatchState()
        for episode in range(6):
            state.ingest(
                {
                    "event": "episode_start", "episode": episode,
                    "seed": episode, "victim": "modular",
                    "attacker": "oracle", "budget": 1.0,
                }
            )
            state.ingest(
                {
                    "event": "episode_end", "episode": episode,
                    "steps": 3, "duration": 0.3, "collision": None,
                    "ticks": tick_columns(
                        {
                            "tick": [1, 2, 3], "t": [0.1, 0.2, 0.3],
                            "delta": [0.9, -0.9, 0.9], "x": [0.0] * 3,
                            "y": [0.0] * 3, "yaw": [0.0] * 3,
                            "speed": [10.0] * 3,
                        }
                    ),
                }
            )
        baseline = {
            "kind": "metrics",
            "schema": 1,
            "cells": {
                "modular|oracle|1.00": {
                    "n": 6,
                    "metrics": {
                        "effort": {"n": 6, "mean": 0.05, "ci": [0.0, 0.1]},
                    },
                }
            },
        }
        rows = metric_drift(state, baseline)
        assert [(r[0], r[1], r[3], r[4], r[5]) for r in rows] == [
            ("modular|oracle|1.00", "effort", 6, 0.0, 0.1)
        ]
        assert rows[0][2] == pytest.approx(0.9)

    def test_small_baseline_sample_skipped(self):
        """As in ``regress --metrics``, a baseline sample below ``min_n``
        is too noisy to gate."""
        doc = json.loads(json.dumps(self.BASELINE_DOC))
        doc["cells"]["modular|oracle|1.00"]["metrics"]["collision"]["n"] = 4
        assert metric_drift(_live_state(collisions=6), doc, min_n=5) == []
