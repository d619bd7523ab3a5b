"""Trace writer: JSONL round-trip and schema validation."""

import pytest

from repro.telemetry.trace import (
    TraceWriter,
    default_writer,
    read_trace,
    reset_default_writer,
    tick_columns,
    validate_event,
    validate_trace,
)

pytestmark = pytest.mark.telemetry


def _end(**columns):
    """A one-tick ``episode_end`` record; ``columns`` override its ticks."""
    ticks = {
        "tick": [1], "t": [0.1], "delta": [0.0], "x": [1.0], "y": [2.0],
        "yaw": [0.0], "speed": [12.0],
    }
    ticks.update(columns)
    return {
        "event": "episode_end", "episode": 0, "steps": 1, "duration": 0.1,
        "ticks": ticks,
    }


def test_writer_creates_missing_parent_dirs(tmp_path):
    path = tmp_path / "deep" / "nested" / "trace.jsonl"
    with TraceWriter(path) as writer:
        writer.emit("episode_start", episode=0, seed=1)
    assert [e["event"] for e in read_trace(path)] == ["episode_start"]


def test_jsonl_roundtrip_through_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    with TraceWriter(path) as writer:
        writer.emit("episode_start", episode=0, seed=7)
        writer.emit(
            "episode_end", episode=0, steps=1, duration=0.1, collision=None,
            ticks=tick_columns({
                "tick": [1], "t": [0.1], "delta": [0.05], "x": [1.0],
                "y": [-2.0], "yaw": [0.01], "speed": [15.5],
            }),
        )
    events = read_trace(path)
    assert [e["event"] for e in events] == ["episode_start", "episode_end"]
    assert events[1]["ticks"]["delta"] == [0.05]
    assert validate_trace(path) == []


def test_in_memory_writer_keeps_events():
    writer = TraceWriter()
    writer.emit("train_step", loop="sac-driver", step=3, reward=-0.5)
    assert writer.count == 1
    assert writer.events[0]["step"] == 3
    assert validate_trace(writer.events) == []


def test_numpy_scalars_serialize(tmp_path):
    import numpy as np

    path = tmp_path / "np.jsonl"
    with TraceWriter(path) as writer:
        writer.emit("train_step", loop="sac", step=int(np.int64(1)),
                    reward=np.float64(0.25))
    assert read_trace(path)[0]["reward"] == 0.25


def test_validate_event_flags_missing_and_mistyped_fields():
    assert validate_event(_end()) == []
    errors = validate_event({"event": "episode_end", "episode": 0})
    assert any("missing required field" in e for e in errors)
    errors = validate_event(_end(speed=[12.0, "fast"]))
    assert any("'speed'" in e and "str" in e for e in errors)
    errors = validate_event(_end(speed=12.0))
    assert any("'speed'" in e and "list" in e for e in errors)
    assert validate_event({"event": "warp_drive"}) == [
        "unknown event kind 'warp_drive'"
    ]
    assert validate_event([1, 2]) != []


def test_tick_columns_are_checked_whole():
    end = _end()
    del end["ticks"]["yaw"]
    assert any("lacks column(s) ['yaw']" in e for e in validate_event(end))
    errors = validate_event(_end(x=[1.0, 2.0]))
    assert any("differ in length" in e for e in errors)
    errors = validate_event({**_end(), "steps": 2})
    assert any("hold 1 values, steps is 2" in e for e in errors)
    # null marks a tick without an optional field, never a required one.
    assert validate_event(_end(ttc=[None], npc_gap=[3.5])) == []
    assert any("'x'" in e for e in validate_event(_end(x=[None])))
    assert any("'tick'" in e for e in validate_event(_end(tick=[1.0])))


def test_bool_is_not_a_number():
    # bool subclasses int; the schema must still reject it for numerics.
    errors = validate_event(_end(delta=[True]))
    assert any("'delta'" in e for e in errors)
    errors = validate_event(_end(ttc=[False]))
    assert any("'ttc'" in e for e in errors)


def test_extra_fields_are_allowed():
    assert validate_event({**_end(custom=["annotation"]), "note": 1}) == []


def test_tick_columns_builds_the_ticks_object():
    import numpy as np

    ticks = tick_columns({
        "ttc": np.array([np.nan, 2.5]), "npc_gap": [None, None],
        "tick": np.array([1, 2]), "t": (0.1, 0.2), "delta": [0.0, 0.1],
        "x": [0.0, 1.0], "y": [0.0, 0.0], "yaw": [0.0, 0.0],
        "speed": [9.0, 9.5],
    })
    # Schema order, plain lists, NaN as null, an all-null column left out.
    assert list(ticks) == ["tick", "t", "delta", "x", "y", "yaw", "speed",
                           "ttc"]
    assert ticks["tick"] == [1, 2] and type(ticks["tick"][0]) is int
    assert ticks["ttc"] == [None, 2.5]
    with pytest.raises(ValueError, match="unknown tick columns"):
        tick_columns({"tick": [1], "warp": [1.0]})


@pytest.mark.parametrize(
    "column, expected",
    [
        ([0.5, -0.0, float("inf")], [0.5, -0.0, float("inf")]),
        ([float("nan"), 2.5, float("nan")], [None, 2.5, None]),
        ([float("nan"), float("nan"), float("nan")], None),
    ],
    ids=["no-nan", "some-nan", "all-nan"],
)
@pytest.mark.parametrize("kind", ["array", "list"])
def test_tick_columns_nulls_nan(column, expected, kind):
    """An optional column's NaNs become nulls, array or list alike; a
    column of NaNs only is left out; no other value moves."""
    import numpy as np

    ticks = tick_columns({
        "tick": np.array([1, 2, 3]), "t": [0.1, 0.2, 0.3],
        "delta": [0.0] * 3, "x": [0.0] * 3, "y": [0.0] * 3,
        "yaw": [0.0] * 3, "speed": [9.0] * 3,
        "ttc": np.array(column) if kind == "array" else column,
    })
    if expected is None:
        assert "ttc" not in ticks
    else:
        assert ticks["ttc"] == expected
        assert [type(v) for v in ticks["ttc"]] == [
            type(v) for v in expected
        ]
        # Signed zeros and infinities keep their bits.
        assert [repr(v) for v in ticks["ttc"]] == [repr(v) for v in expected]


def test_tick_columns_list_with_none():
    ticks = tick_columns({
        "tick": [1, 2], "t": [0.1, 0.2], "delta": [0.0, 0.1],
        "x": [0.0, 1.0], "y": [0.0, 0.0], "yaw": [0.0, 0.0],
        "speed": [9.0, 9.5], "npc_gap": [None, 4.0], "ttc": [None, None],
    })
    assert ticks["npc_gap"] == [None, 4.0]
    assert "ttc" not in ticks


def test_emit_time_validation():
    writer = TraceWriter(validate=True)
    with pytest.raises(ValueError):
        writer.emit("episode_end", episode=0)  # missing required fields


def test_validate_trace_reports_line_indices(tmp_path):
    path = tmp_path / "bad.jsonl"
    with TraceWriter(path) as writer:
        writer.emit("episode_start", episode=0, seed=1)
        writer.emit("bogus_kind")
    errors = validate_trace(path)
    assert len(errors) == 1 and errors[0].startswith("event 1:")


def test_default_writer_reads_env(tmp_path, monkeypatch):
    reset_default_writer()
    try:
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert default_writer() is None
        reset_default_writer()
        target = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(target))
        writer = default_writer()
        assert writer is not None and writer is default_writer()
        writer.emit("episode_start", episode=0, seed=0)
        writer.flush()
        assert read_trace(target)[0]["event"] == "episode_start"
    finally:
        reset_default_writer()
