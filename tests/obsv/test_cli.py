"""CLI tests plus the end-to-end smoke: demo -> trace -> forensics -> replay."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.agents.modular import ModularAgent
from repro.core.attackers import OracleAttacker
from repro.eval.episodes import run_episode
from repro.experiments import registry
from repro.obsv.cli import main
from repro.telemetry.trace import TraceWriter, validate_trace

pytestmark = pytest.mark.obsv

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture()
def oracle_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    with TraceWriter(path) as writer:
        run_episode(
            lambda w: ModularAgent(w.road),
            attacker=OracleAttacker(budget=1.0),
            seed=3,
            trace=writer,
            episode_id=3,
        )
    return path


class TestCli:
    def test_forensics_markdown_and_json(self, oracle_trace, capsys, tmp_path):
        assert main(["forensics", str(oracle_trace)]) == 0
        out = capsys.readouterr().out
        assert "Forensics — episode 3" in out and "strike onset" in out

        target = tmp_path / "forensics.json"
        assert main(
            ["forensics", str(oracle_trace), "--json", "--out", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert payload[0]["collision"] == "SIDE"

    def test_replay_ok_and_doctored(self, oracle_trace, capsys, tmp_path):
        assert main(["replay", str(oracle_trace)]) == 0
        assert "OK — trace is faithful" in capsys.readouterr().out

        doctored = tmp_path / "doctored.jsonl"
        lines = oracle_trace.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        for event in events:
            if event["event"] == "episode_end":
                columns = event["ticks"]
                columns["x"][columns["tick"].index(10)] += 1.0
        doctored.write_text(
            "\n".join(json.dumps(e) for e in events) + "\n"
        )
        assert main(["replay", str(doctored)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_dashboard(self, oracle_trace, capsys):
        assert main(["dashboard", str(oracle_trace.parent)]) == 0
        assert "Experiment dashboard" in capsys.readouterr().out
        assert main(["dashboard", str(oracle_trace.parent), "--html"]) == 0
        assert "<!DOCTYPE html>" in capsys.readouterr().out

    def test_serve_and_query_flags_parse(self):
        from repro.obsv.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "runs/sweep", "--port", "8123", "--poll", "0.2"]
        )
        assert args.dir == "runs/sweep"
        assert args.port == 8123
        assert args.host == "127.0.0.1"
        args = parser.parse_args(
            ["query", "s.sqlite", "--label", "A", "--group-by", "label"]
        )
        assert args.label == "A"
        assert args.group_by == "label"
        for argv in (["query", "s.sqlite", "--worker", "3"],
                     ["query", "s.sqlite", "--group-by", "worker"],
                     ["dashboard", "runs", "--metrics", "m.json"],
                     ["dashboard", "runs", "--bench", "b.json"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_regress_exit_codes(self, tmp_path, capsys):
        base = {
            "wall_clock_s": 100.0,
            "spans": {},
            "metrics": {"counters": {}},
        }
        current = dict(base, wall_clock_s=500.0)
        baseline_path = tmp_path / "baseline.json"
        current_path = tmp_path / "current.json"
        baseline_path.write_text(json.dumps(base))
        current_path.write_text(json.dumps(current))
        assert main(
            ["regress", str(baseline_path), str(baseline_path)]
        ) == 0
        assert main(["regress", str(current_path), str(baseline_path)]) == 1
        assert "BREACH" in capsys.readouterr().out
        # A looser explicit ratio clears the breach.
        assert main(
            ["regress", str(current_path), str(baseline_path),
             "--max-ratio", "10"]
        ) == 0


@pytest.mark.slow
class TestDemoSmoke:
    """The ISSUE's CI smoke: attack_demo -> validate -> forensics -> replay."""

    @pytest.fixture(autouse=True)
    def needs_artifacts(self):
        if not registry.has_artifact(registry.CAMERA_ATTACKER_E2E):
            pytest.skip("attack artifacts missing; run examples/train_all.py")

    def test_attack_demo_trace_roundtrip(self, tmp_path):
        trace_path = tmp_path / "demo_trace.jsonl"
        result = subprocess.run(
            [sys.executable, str(REPO / "examples" / "attack_demo.py"),
             "--episodes", "1"],
            capture_output=True,
            text=True,
            timeout=600,
            cwd=REPO,
            env={
                **__import__("os").environ,
                "REPRO_TRACE": str(trace_path),
                "PYTHONPATH": str(REPO / "src"),
            },
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert trace_path.exists()
        assert validate_trace(trace_path) == []

        out = subprocess.run(
            [sys.executable, "-m", "repro.obsv", "forensics", str(trace_path)],
            capture_output=True, text=True, timeout=120, cwd=REPO,
            env={
                **__import__("os").environ,
                "PYTHONPATH": str(REPO / "src"),
            },
        )
        assert out.returncode == 0, out.stderr[-2000:]
        assert "Forensics — episode" in out.stdout

        replay = subprocess.run(
            [sys.executable, "-m", "repro.obsv", "replay", str(trace_path),
             "--episode", "2024"],
            capture_output=True, text=True, timeout=300, cwd=REPO,
            env={
                **__import__("os").environ,
                "PYTHONPATH": str(REPO / "src"),
            },
        )
        assert replay.returncode == 0, replay.stdout[-2000:] + replay.stderr[-500:]
        assert "OK — trace is faithful" in replay.stdout
