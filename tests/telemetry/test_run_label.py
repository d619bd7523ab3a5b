"""``REPRO_RUN_ID`` labels a trace's records, and the store selects by it."""

import pytest

from repro.agents.modular import ModularAgent
from repro.core.attackers import OracleAttacker
from repro.eval.episodes import run_episodes
from repro.obsv.compare import load_run
from repro.obsv.store import TelemetryStore
from repro.telemetry.trace import TraceWriter, read_trace

pytestmark = pytest.mark.telemetry


def _record(path, seed):
    with TraceWriter(path) as writer:
        run_episodes(
            lambda w: ModularAgent(w.road),
            lambda: OracleAttacker(budget=1.0),
            n_episodes=2,
            seed=seed,
            trace=writer,
        )
    return read_trace(path)


def test_run_label_is_stamped_and_selects_the_run(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_ID", "sweep-A")
    labelled = _record(tmp_path / "a.jsonl", seed=0)
    monkeypatch.delenv("REPRO_RUN_ID")
    bare = _record(tmp_path / "b.jsonl", seed=5)

    assert labelled and all(e["run"] == "sweep-A" for e in labelled)
    assert not any(
        key in e for e in labelled for key in ("worker", "pid", "parent")
    )
    assert bare and not any("run" in e for e in bare)

    store_path = tmp_path / "obsv.sqlite"
    with TelemetryStore(store_path) as store:
        a = store.ingest_trace(tmp_path / "a.jsonl")
        b = store.ingest_trace(tmp_path / "b.jsonl")
        assert (a.label, b.label) == ("sweep-A", None)
        assert store.events(label="sweep-A") == labelled
        assert dict(
            store.aggregate(
                "steps", agg="count", kind="episode_end", group_by="label"
            )
        ) == {"sweep-A": 2, None: 2}
    episodes, provenance, name = load_run(store_path, label="sweep-A")
    assert sorted(e.seed for e in episodes) == [0, 1]
    assert provenance["env"]["REPRO_RUN_ID"] == "sweep-A"
    assert name == "obsv.sqlite:sweep-A"
