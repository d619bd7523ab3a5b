"""The profiling layer: self-time, sampler, flamegraphs, allocations,
FLOP accounting, profile sessions, and the CLI/regress integration."""

import json
import time
import tracemalloc

import numpy as np
import pytest

from repro.obsv.cli import main
from repro.obsv.prof import (
    ProfileConfig,
    ProfileSession,
    SamplingProfiler,
    attribute,
    build_tree,
    parse_mem_spec,
    render_html,
    spans_to_folded,
)
from repro.obsv.prof import selftime
from repro.obsv.prof.memory import MemoryProbe
from repro.obsv.prof.sampler import frame_label
from repro.obsv.prof.session import FlopSpanProbe, install_from_env
from repro.obsv.prof import session as session_mod
from repro.rl.bc import BcConfig, BehaviorCloner
from repro.rl.nn import flops
from repro.rl.nn.flops import FlopCounter
from repro.rl.nn.layers import Mlp
from repro.rl.policy import SquashedGaussianPolicy
from repro.telemetry.spans import Tracer
from repro.telemetry.trace import validate_event

pytestmark = [pytest.mark.obsv, pytest.mark.profile]


def _busy(tracer, outer="episode", inner="world.tick", n=20, work_s=0.001):
    with tracer.span(outer):
        for _ in range(n):
            with tracer.span(inner):
                deadline = time.perf_counter() + work_s
                while time.perf_counter() < deadline:
                    pass


class TestSelfTime:
    def test_exact_self_time_from_schema2_snapshot(self):
        tracer = Tracer(enabled=True)
        _busy(tracer)
        rows = attribute(tracer.snapshot())
        by_path = {row.path: row for row in rows}
        child = by_path["episode/world.tick"]
        parent = by_path["episode"]
        # leaf: self == inclusive; parent: self == inclusive - child time
        assert child.self_s == pytest.approx(child.total_s)
        # abs=5e-6: snapshot() rounds totals to 6 decimals, so values
        # derived from several rounded fields can drift by ~1e-6 each
        assert parent.self_s == pytest.approx(
            parent.total_s - child.total_s, abs=5e-6
        )
        # summed self time reconstructs the root's inclusive total
        assert selftime.total_self_s(rows) == pytest.approx(
            parent.total_s, abs=5e-6
        )

    def test_schema1_snapshot_refused(self, tmp_path):
        spans = {
            "episode": {"count": 1, "total_s": 1.0, "self_total_s": 0.3},
            "episode/world.tick": {"count": 10, "total_s": 0.7},
        }
        with pytest.raises(ValueError, match="'episode/world.tick'"):
            attribute(spans)
        snapshot = tmp_path / "BENCH_telemetry.json"
        snapshot.write_text(json.dumps({"schema": 1, "spans": spans}))
        with pytest.raises(SystemExit, match="episode/world.tick"):
            main(["profile", str(snapshot)])

    def test_rows_sorted_by_self_time_and_markdown_renders(self):
        spans = {
            "a": {"count": 1, "total_s": 1.0, "self_total_s": 0.1},
            "b": {"count": 2, "total_s": 0.5, "self_total_s": 0.5},
        }
        rows = attribute(spans)
        assert [row.path for row in rows] == ["b", "a"]
        text = selftime.to_markdown(rows, top=1)
        assert "`b`" in text and "1 more span" in text


class TestSampler:
    def test_frame_label_dots_repro_modules(self):
        assert (
            frame_label("/x/src/repro/sim/world.py", "tick")
            == "repro.sim.world:tick"
        )
        assert frame_label("/usr/lib/python/queue.py", "get") == "queue:get"

    def test_collects_samples_from_busy_main_thread(self):
        profiler = SamplingProfiler(hz=500.0)
        with profiler:
            deadline = time.perf_counter() + 0.25
            while time.perf_counter() < deadline:
                sum(range(200))
        assert profiler.sample_count > 0
        folded = profiler.folded()
        assert folded and all(";" in stack for stack in folded)
        # this test function appears in the recorded stacks
        assert any(
            "test_collects_samples" in stack for stack in folded
        )
        text = profiler.folded_text()
        stack, count = text.splitlines()[0].rsplit(" ", 1)
        assert int(count) >= 1 and stack
        summary = profiler.summary()
        assert summary["samples"] == profiler.sample_count
        assert summary["duration_s"] > 0.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0.0)


class TestFlamegraph:
    def test_build_tree_merges_and_sorts(self):
        tree = build_tree({"a;b;c": 5, "a;b;d": 3, "a;e": 2})
        assert tree["value"] == pytest.approx(10.0)
        (a,) = tree["children"]
        assert a["name"] == "a" and a["value"] == pytest.approx(10.0)
        assert [c["name"] for c in a["children"]] == ["b", "e"]

    def test_render_html_is_self_contained_and_parses(self, tmp_path):
        target = tmp_path / "flame.html"
        text = render_html({"a;b": 2.0, "a;c": 1.0}, path=target)
        assert target.read_text(encoding="utf-8") == text
        assert "<script src" not in text and "http" not in text.lower()
        start = text.index('type="application/json">') + len(
            'type="application/json">'
        )
        payload = json.loads(
            text[start:text.index("</script>", start)].replace("<\\/", "</")
        )
        assert payload["tree"]["value"] == pytest.approx(3.0)

    def test_spans_to_folded_uses_self_time(self):
        spans = {
            "episode": {"count": 1, "total_s": 1.0, "self_total_s": 0.25},
            "episode/tick": {
                "count": 5, "total_s": 0.75, "self_total_s": 0.75,
            },
        }
        folded = spans_to_folded(spans)
        assert folded == {
            "episode": pytest.approx(0.25),
            "episode;tick": pytest.approx(0.75),
        }


class TestMemory:
    def test_parse_mem_spec(self):
        assert parse_mem_spec(None) is False
        assert parse_mem_spec("0") is False
        assert parse_mem_spec("all") is None
        assert parse_mem_spec("1") is None
        assert parse_mem_spec("a, b") == {"a", "b"}

    def test_probe_tracks_only_opted_in_spans(self):
        probe = MemoryProbe({"agent.act"})
        tracer = Tracer(enabled=True)
        tracer.add_probe(probe)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            keep = []
            with tracer.span("episode"):
                with tracer.span("agent.act"):
                    keep.append(bytearray(256 * 1024))
                with tracer.span("world.tick"):
                    keep.append(bytearray(64))
        finally:
            if not was_tracing:
                tracemalloc.stop()
        summary = probe.summary()
        # leaf-name opt-in matched the nested path; others were skipped
        assert set(summary) == {"episode/agent.act"}
        stats = summary["episode/agent.act"]
        assert stats["count"] == 1
        assert stats["net_total_kb"] >= 200.0
        assert stats["peak_max_kb"] >= stats["net_total_kb"]
        assert "net KB/call" in probe.to_markdown()


class TestFlopAccounting:
    def test_matmul_and_elementwise_bookkeeping(self):
        counter = FlopCounter()
        counter.matmul(4, 8, 2)
        assert counter.total_flops() == pytest.approx(2 * 4 * 8 * 2)
        counter.matmul_grad(4, 8, 2)
        assert counter.total_flops() == pytest.approx(4 * 4 * 8 * 2)
        assert counter.flops["matmul_bwd"] == pytest.approx(2 * 4 * 8 * 2)
        counter.elementwise("relu_fwd", 100)
        assert counter.flops["relu_fwd"] == pytest.approx(100.0)
        assert counter.intensity() > 0.0
        snapshot = counter.snapshot()
        assert snapshot["total_flops"] == counter.total_flops()
        counter.reset()
        assert counter.total_flops() == 0.0

    def test_bc_step_counts_forward_and_backward(self):
        """One behaviour-cloning step reports every product it computes:
        the trunk and both heads forward, every weight gradient, and the
        input gradients of the heads and of all but the first trunk
        layer; and the tanh of the mean and of the raw log-std."""
        obs_dim, action_dim, hidden, n = 6, 2, (16, 8), 10
        policy = SquashedGaussianPolicy(obs_dim, action_dim, hidden)
        rng = np.random.default_rng(0)
        obs = rng.normal(size=(n, obs_dim))
        actions = rng.uniform(-1.0, 1.0, size=(n, action_dim))
        cloner = BehaviorCloner(policy, BcConfig(batch_size=n, epochs=1))
        counter = FlopCounter()
        counter.enable()
        try:
            cloner.fit(obs, actions)
        finally:
            counter.disable()

        def product(m, k, p):
            return 2.0 * m * k * p

        trunk = list(zip([obs_dim, *hidden[:-1]], hidden))
        heads = [(hidden[-1], action_dim)] * 2
        assert counter.flops["matmul_fwd"] == sum(
            product(n, a, b) for a, b in trunk + heads
        )
        weight_grads = sum(product(a, n, b) for a, b in trunk + heads)
        input_grads = sum(product(n, b, a) for a, b in trunk[1:] + heads)
        assert counter.flops["matmul_bwd"] == weight_grads + input_grads
        assert counter.flops["tanh_fwd"] == 2 * n * action_dim
        assert counter.flops["relu_bwd"] == n * sum(hidden)
        assert flops.FLOP_HOOK is None

    def test_forward_np_fast_path_counts(self):
        counter = FlopCounter()
        mlp = Mlp((6, 16, 3))
        x = np.zeros((5, 6))
        mlp.forward_np(x)  # disabled: nothing recorded
        assert counter.total_flops() == 0.0
        counter.enable()
        try:
            mlp.forward_np(x)
        finally:
            counter.disable()
        expected_matmul = 2 * 5 * 6 * 16 + 2 * 5 * 16 * 3
        assert counter.flops["matmul_fwd"] == pytest.approx(expected_matmul)
        assert counter.flops["add_fwd"] == pytest.approx(5 * 16 + 5 * 3)
        assert counter.flops["relu_fwd"] == pytest.approx(5 * 16)

    def test_flop_span_probe_attributes_inclusively(self):
        counter = FlopCounter()
        counter.enable()
        probe = FlopSpanProbe(counter)
        tracer = Tracer(enabled=True)
        tracer.add_probe(probe)
        mlp = Mlp((6, 16, 3))
        x = np.zeros((5, 6))
        try:
            with tracer.span("episode"):
                with tracer.span("agent.act"):
                    mlp.forward_np(x)
                with tracer.span("world.tick"):
                    pass  # no NN work: must not appear
        finally:
            counter.disable()
        summary = probe.summary()
        assert "episode/world.tick" not in summary
        act = summary["episode/agent.act"]
        outer = summary["episode"]
        assert act["flops"] == pytest.approx(outer["flops"])
        assert act["flops"] == pytest.approx(counter.total_flops())
        assert act["mflops_per_s"] > 0.0


class TestProfileSession:
    def test_config_from_env(self):
        config = ProfileConfig.from_env(
            {"REPRO_PROF_HZ": "50", "REPRO_PROF_MEM": "agent.act"}
        )
        assert config.hz == 50.0 and config.mem == {"agent.act"}
        assert ProfileConfig.from_env({}).hz == 0.0

    def test_session_report_covers_wall_clock(self):
        tracer = Tracer(enabled=False)
        session = ProfileSession(
            ProfileConfig(hz=0.0, mem=False), tracer=tracer, reset=True
        )
        session.start()
        _busy(tracer, n=40, work_s=0.002)
        report = session.stop()
        assert not tracer.enabled  # restored
        coverage = report.coverage()
        # the busy loop dominates the session: self time sums to within
        # a few percent of wall clock (the ±5% acceptance check)
        assert coverage["ratio"] == pytest.approx(1.0, abs=0.05)
        assert coverage["self_total_s"] == pytest.approx(
            coverage["root_total_s"], abs=5e-6  # 6-decimal snapshot rounding
        )

    def test_report_bundle_and_trace_events(self, tmp_path):
        tracer = Tracer(enabled=False)
        config = ProfileConfig(hz=200.0, mem=None, flops=True)
        session = ProfileSession(config, tracer=tracer, reset=True)
        session.start()
        mlp = Mlp((6, 16, 3))
        with tracer.span("episode"):
            for _ in range(30):
                with tracer.span("agent.act"):
                    mlp.forward_np(np.zeros((5, 6)))
                with tracer.span("world.tick"):
                    time.sleep(0.001)
        report = session.stop()
        for event in report.trace_events():
            assert validate_event(event) == []
        paths = report.write(tmp_path)
        assert json.loads(paths["report"].read_text())["kind"] == "profile"
        html = paths["flamegraph"].read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>") and "</html>" in html
        markdown = paths["markdown"].read_text()
        assert "Self time" in markdown
        assert "MFLOP/s" in markdown
        assert "tracemalloc" in markdown

    def test_install_from_env_off_when_unset(self):
        assert install_from_env({}) is None
        assert install_from_env({"REPRO_PROF": "0"}) is None
        assert install_from_env({"REPRO_PROF": "off"}) is None

    def test_install_from_env_starts_and_is_idempotent(self):
        assert session_mod._ENV_SESSION is None  # no leak from other tests
        env = {"REPRO_PROF": "1"}
        session = install_from_env(env)
        try:
            assert session is not None and session.running
            assert install_from_env(env) is session
        finally:
            session.stop()
            session_mod._ENV_SESSION = None


class TestCliAndGates:
    def _snapshot(self):
        tracer = Tracer(enabled=True)
        _busy(tracer, n=25, work_s=0.001)
        return {
            "schema": 2,
            "wall_clock_s": 1.0,
            "spans": tracer.snapshot(),
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        }

    def test_profile_offline_markdown_and_json(self, tmp_path, capsys):
        snapshot_path = tmp_path / "BENCH_telemetry.json"
        snapshot_path.write_text(json.dumps(self._snapshot()))
        flame = tmp_path / "flame.html"
        assert main(
            ["profile", str(snapshot_path), "--flamegraph", str(flame)]
        ) == 0
        out = capsys.readouterr().out
        assert "Self time" in out and "`episode/world.tick`" in out
        assert flame.exists() and "</html>" in flame.read_text()

        assert main(["profile", str(snapshot_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "profile"
        assert payload["coverage"]["self_total_s"] > 0.0

    def test_profile_requires_input_or_demo(self):
        with pytest.raises(SystemExit):
            main(["profile"])

    def test_regress_self_time_gate_and_json_report(self, tmp_path, capsys):
        baseline = self._snapshot()
        current = json.loads(json.dumps(baseline))
        current["spans"]["episode/world.tick"]["self_mean_us"] *= 4.0
        base_path = tmp_path / "base.json"
        cur_path = tmp_path / "cur.json"
        base_path.write_text(json.dumps(baseline))
        cur_path.write_text(json.dumps(current))

        # clean compare passes, slowdown gates with a machine-readable row
        assert main(
            ["regress", str(base_path), str(base_path), "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

        assert main(
            ["regress", str(cur_path), str(base_path), "--json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        (breach,) = [
            b for b in payload["breaches"] if b["kind"] == "span_self"
        ]
        assert breach["span"] == "episode/world.tick"
        assert breach["metric"] == "self_mean_us"
        assert breach["current"] > breach["baseline"]
        assert breach["threshold"] == 1.5

    def test_regress_alloc_gate(self, tmp_path, capsys):
        baseline = self._snapshot()
        baseline["profile"] = {
            "memory": {
                "episode": {"net_mean_kb": 128.0, "peak_max_kb": 512.0}
            }
        }
        current = json.loads(json.dumps(baseline))
        current["profile"]["memory"]["episode"]["peak_max_kb"] = 2048.0
        base_path = tmp_path / "base.json"
        cur_path = tmp_path / "cur.json"
        base_path.write_text(json.dumps(baseline))
        cur_path.write_text(json.dumps(current))
        assert main(
            ["regress", str(cur_path), str(base_path), "--json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        (breach,) = payload["breaches"]
        assert breach["kind"] == "alloc"
        assert breach["metric"] == "peak_max_kb"


class TestEndToEndSmoke:
    def test_profile_demo_to_flamegraph_to_regress_gate(
        self, tmp_path, capsys
    ):
        """The acceptance loop: profile a live workload, render the
        flamegraph, then gate the fresh snapshot against itself."""
        flame = tmp_path / "flame.html"
        bundle = tmp_path / "bundle"
        assert main(
            [
                "profile", "--demo", "--episodes", "1", "--hz", "97",
                "--flamegraph", str(flame),
                "--report-dir", str(bundle), "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "profile"
        spans = payload["spans"]
        assert any(path.endswith(".act") for path in spans)
        # MFLOP/s is reported for the acting span (e2e or modular victim)
        assert payload["span_flops"]
        assert max(
            stats["mflops_per_s"] for stats in payload["span_flops"].values()
        ) > 0.0
        # flamegraph exists, is standalone HTML, and its payload parses
        html = flame.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        start = html.index('type="application/json">') + len(
            'type="application/json">'
        )
        tree = json.loads(
            html[start:html.index("</script>", start)].replace("<\\/", "</")
        )["tree"]
        assert tree["value"] > 0
        # the written bundle re-loads through the offline CLI path
        report_path = bundle / "PROFILE_report.json"
        assert main(["profile", str(report_path)]) == 0
        assert "Self time" in capsys.readouterr().out
        # and the fresh snapshot passes the regress gate against itself
        assert main(
            ["regress", str(report_path), str(report_path), "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
