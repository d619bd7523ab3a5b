"""Seed-sharded parallel evaluation: shards, merge, ingest, reassembly."""

import json

import pytest

from repro.agents.modular import ModularAgent
from repro.core import OracleAttacker
from repro.eval import run_episode
from repro.eval.parallel import ShardSpec, _run_shard_serial, run_sweep
from repro.obsv.store import TelemetryStore
from repro.telemetry.context import merge_shards, shard_worker
from repro.telemetry.trace import to_chrome_trace, validate_trace

pytestmark = pytest.mark.telemetry


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One real 2-process sweep shared by the module (processes are slow)."""
    out = tmp_path_factory.mktemp("sweep")
    return run_sweep(
        n_episodes=4, workers=2, attacker="none", out_dir=out,
        run_id="testrun12345",
    )


class TestSweep:
    def test_results_reassembled_in_seed_order(self, sweep):
        assert sweep.seeds == [0, 1, 2, 3]
        assert len(sweep.results) == 4

    def test_one_shard_file_per_worker(self, sweep):
        names = sorted(p.name for p in sweep.trace_paths)
        assert names == ["trace.w0.jsonl", "trace.w1.jsonl"]
        for path in sweep.trace_paths:
            assert path.exists()

    def test_round_robin_seed_partition(self, sweep):
        by_worker = {
            s.worker: [seed for seed, _ in s.results] for s in sweep.shards
        }
        assert by_worker == {0: [0, 2], 1: [1, 3]}

    def test_shards_are_schema_valid_and_stamped(self, sweep):
        for path in sweep.trace_paths:
            assert validate_trace(path) == []
            events = [
                json.loads(line)
                for line in path.read_text().splitlines()
            ]
            assert events, f"empty shard {path}"
            worker = shard_worker(path)
            assert {e["worker"] for e in events} == {worker}
            assert {e["run"] for e in events} == {"testrun12345"}
            assert all(isinstance(e["pid"], int) for e in events)

    def test_workers_ran_in_distinct_processes(self, sweep):
        pids = {s.pid for s in sweep.shards}
        assert len(pids) == 2

    def test_shards_record_span_events(self, sweep):
        for path in sweep.trace_paths:
            events = [
                json.loads(line)
                for line in path.read_text().splitlines()
            ]
            spans = [e for e in events if e["event"] == "span"]
            assert spans, f"no span events in {path}"
            # One per-episode span each: "episode" from the scalar engine,
            # "episode_batch/episode" from the lockstep one.
            episodes = [
                e for e in spans if e["name"].rsplit("/", 1)[-1] == "episode"
            ]
            assert len(episodes) == 2

    def test_merged_chrome_export_has_worker_lanes(self, sweep):
        doc = to_chrome_trace(merge_shards(sweep.out_dir))
        tids = {
            e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert tids == {0, 1}
        labels = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert labels == {"worker 0", "worker 1"}

    def test_shards_ingest_into_one_store(self, sweep, tmp_path):
        with TelemetryStore(tmp_path / "obsv.sqlite") as store:
            summary = store.ingest_dir(sweep.out_dir)
            assert summary["traces"] == 2
            per_worker = dict(
                store.aggregate("tick", agg="count", kind="tick",
                                group_by="worker")
            )
            assert set(per_worker) == {0, 1}
            assert all(count > 0 for count in per_worker.values())


class TestSerialPath:
    def test_serial_sweep_needs_no_processes(self, tmp_path):
        sweep = run_sweep(
            n_episodes=2, workers=1, attacker="none", out_dir=tmp_path,
            run_id="serialrun",
        )
        assert [p.name for p in sweep.trace_paths] == ["trace.w0.jsonl"]
        assert len(sweep.results) == 2

    def test_run_shard_serial_leaves_globals_untouched(self, tmp_path):
        import os

        from repro.telemetry.context import ENV_RUN_ID, current_context
        from repro.telemetry.trace import _DEFAULT_WRITER

        before_env = os.environ.get(ENV_RUN_ID)
        before_ctx = current_context()
        _run_shard_serial(
            ShardSpec(
                worker=0, seeds=(0,), attacker="none",
                out_dir=str(tmp_path), run="isolated",
            )
        )
        assert os.environ.get(ENV_RUN_ID) == before_env
        assert current_context() is before_ctx
        assert _DEFAULT_WRITER is None

    @pytest.mark.batch
    def test_batched_shard_matches_scalar_shard(self, tmp_path):
        # A four-seed shard runs in lockstep; per-seed run_episode is the
        # scalar reference.
        scalar = [
            run_episode(
                lambda world: ModularAgent(world.road),
                attacker=OracleAttacker(budget=1.0),
                seed=seed,
            )
            for seed in range(4)
        ]
        batched = run_sweep(
            n_episodes=4, workers=1, attacker="oracle",
            out_dir=tmp_path, run_id="batchedrun",
        )
        assert batched.seeds == [0, 1, 2, 3]
        for a, b in zip(scalar, batched.results):
            assert a.steps == b.steps
            assert (a.collision is None) == (b.collision is None)
            assert a.nominal_return == pytest.approx(
                b.nominal_return, abs=1e-9
            )
        # Batched shards still write schema-valid per-worker traces.
        assert [p.name for p in batched.trace_paths] == ["trace.w0.jsonl"]
        events = [
            json.loads(line)
            for line in batched.trace_paths[0].read_text().splitlines()
        ]
        assert validate_trace(events) == []
        assert sum(e["event"] == "episode_end" for e in events) == 4
        # Lockstep opens every episode before the first tick.
        kinds = [e["event"] for e in events if e["event"] != "provenance"]
        assert kinds[:4] == ["episode_start"] * 4

    def test_rejects_unknown_victim_and_attacker(self, tmp_path):
        with pytest.raises(ValueError, match="victim"):
            run_sweep(n_episodes=1, workers=1, victim="nope")
        with pytest.raises(ValueError, match="attacker"):
            run_sweep(n_episodes=1, workers=1, attacker="nope")
