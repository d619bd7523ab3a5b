"""The settings table: a malformed knob or flag fails loudly, naming
itself and the value, instead of turning into its default."""

import functools
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults, knobs
from repro.obsv.alerts import WatchConfig
from repro.obsv.cli import main
from repro.obsv.prof.session import ProfileConfig
from repro.telemetry.log import configure
from repro.telemetry.metrics import Histogram

pytestmark = pytest.mark.telemetry

TESTS = Path(__file__).resolve().parents[1]
README = TESTS.parent / "README.md"


def _import(module: str) -> None:
    """Import ``module`` in a fresh interpreter; its failure as ValueError."""
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
    )
    if done.returncode:
        raise ValueError(done.stderr)


def _chaos_gate():
    """The chaos gate of ``tests/conftest.py``, which reads REPRO_CHAOS."""
    conftest = runpy.run_path(str(TESTS / "conftest.py"))
    conftest["pytest_collection_modifyitems"](None, [])


@pytest.mark.parametrize(
    "name, value, read",
    [
        pytest.param(
            "REPRO_HIST_MAX_SAMPLES", "not-a-number", Histogram,
            id="hist-cap-text",
        ),
        pytest.param(
            "REPRO_HIST_MAX_SAMPLES", "-3", Histogram, id="hist-cap-negative",
        ),
        pytest.param(
            "REPRO_PROF_HZ", "junk", ProfileConfig.from_env, id="prof-hz-text",
        ),
        pytest.param(
            "REPRO_PROF_HZ", "-97", ProfileConfig.from_env,
            id="prof-hz-negative",
        ),
        pytest.param(
            "REPRO_WATCH_Q_LIMIT", "big", WatchConfig.from_env,
            id="watch-float-threshold",
        ),
        pytest.param(
            "REPRO_WATCH_Q_LIMIT", "nan", WatchConfig.from_env,
            id="watch-q-limit-nan",
        ),
        pytest.param(
            "REPRO_CHAOS", "flase", _chaos_gate, id="chaos-switch",
        ),
        pytest.param(
            "REPRO_FAULTS", "explode@step=1", faults.active_plan,
            id="faults",
        ),
        pytest.param(
            "REPRO_SPANS", "flase",
            functools.partial(_import, "repro.telemetry.spans"),
            id="spans",
        ),
        pytest.param(
            "REPRO_LOG_LEVEL", "verbos", functools.partial(
                configure, force=True
            ),
            id="log-level",
        ),
        pytest.param(
            "REPRO_LOG_JSON", "flase", functools.partial(
                configure, force=True
            ),
            id="log-json",
        ),
    ],
)
def test_malformed_knob_raises(monkeypatch, name, value, read):
    monkeypatch.setenv(name, value)
    pattern = f"{name}.*{re.escape(repr(value))}"
    with pytest.raises(ValueError, match=pattern):
        knobs.get(name)
    with pytest.raises(ValueError, match=pattern):
        read()


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(
            ["regress", "current.json", "baseline.json", "--max-ratio",
             "nan"],
            "--max-ratio", id="regress-max-ratio-nan",
        ),
        pytest.param(
            ["regress", "current.json", "baseline.json", "--max-ratio", "-2"],
            "--max-ratio", id="regress-max-ratio-negative",
        ),
        pytest.param(
            ["regress", "current.json", "baseline.json", "--max-ratio",
             "inf"],
            "--max-ratio", id="regress-max-ratio-inf",
        ),
        pytest.param(
            ["regress", "current.json", "baseline.json", "--max-ratio", "0"],
            "--max-ratio", id="regress-max-ratio-zero",
        ),
        pytest.param(
            ["regress", "current.json", "baseline.json", "--max-ratio",
             "1.5x"],
            "--max-ratio", id="regress-max-ratio-text",
        ),
        pytest.param(
            ["replay", "trace.jsonl", "--tolerance", "nan"], "--tolerance",
            id="replay-tolerance-nan",
        ),
        pytest.param(
            ["replay", "trace.jsonl", "--tolerance", "inf"], "--tolerance",
            id="replay-tolerance-inf",
        ),
        pytest.param(
            ["replay", "trace.jsonl", "--tolerance", "-0.5"], "--tolerance",
            id="replay-tolerance-negative",
        ),
        pytest.param(
            ["replay", "trace.jsonl", "--tolerance", "tight"], "--tolerance",
            id="replay-tolerance-text",
        ),
        pytest.param(
            ["replay", "trace.jsonl", "--tolerance", "-1e-9"], "--tolerance",
            id="replay-tolerance-negative-exponent",
        ),
        pytest.param(
            ["watch", "trace.jsonl", "--once", "--q-limit", "nan"],
            "--q-limit", id="watch-q-limit-nan",
        ),
        pytest.param(
            ["watch", "trace.jsonl", "--once", "--q-limit", "abc"],
            "--q-limit", id="watch-q-limit-text",
        ),
        pytest.param(
            ["watch", "trace.jsonl", "--once", "--entropy-floor", "inf"],
            "--entropy-floor", id="watch-entropy-floor-inf",
        ),
        pytest.param(
            ["watch", "trace.jsonl", "--once", "--plateau-window", "2.5"],
            "--plateau-window", id="watch-plateau-window-text",
        ),
        pytest.param(
            ["watch", "trace.jsonl", "--once", "--starvation-updates", "0"],
            "--starvation-updates", id="watch-starvation-updates-zero",
        ),
        pytest.param(
            ["watch", "trace.jsonl", "--once", "--throughput-ratio", "0"],
            "--throughput-ratio", id="watch-throughput-ratio-zero",
        ),
        pytest.param(
            ["watch", "trace.jsonl", "--once", "--poll", "0.01"],
            "--poll", id="watch-poll-small",
        ),
        pytest.param(
            ["watch", "trace.jsonl", "--once", "--poll", "fast"],
            "--poll", id="watch-poll-text",
        ),
        pytest.param(
            ["profile", "--demo", "--hz", "-97"], "--hz",
            id="profile-hz-negative",
        ),
        pytest.param(
            ["profile", "--demo", "--hz", "junk"], "--hz",
            id="profile-hz-text",
        ),
    ],
)
def test_malformed_flag_raises(capsys, argv, flag):
    """A rejected flag value is argparse's usage error (exit status 2)
    naming the flag and the value, before the command runs."""
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert re.search(
        f"argument {flag}: must be .*{re.escape(repr(argv[-1]))}",
        capsys.readouterr().err,
    )


def test_well_formed_knobs_still_read(monkeypatch):
    monkeypatch.setenv("REPRO_HIST_MAX_SAMPLES", " ")
    assert knobs.get("REPRO_HIST_MAX_SAMPLES") == 0
    monkeypatch.setenv("REPRO_HIST_MAX_SAMPLES", " 5 ")
    assert knobs.get("REPRO_HIST_MAX_SAMPLES") == 5
    monkeypatch.setenv("REPRO_WATCH_Q_LIMIT", "2.5e2")
    assert WatchConfig.from_env().q_limit == 250.0
    monkeypatch.delenv("REPRO_BENCH_BASELINE", raising=False)
    assert knobs.get("REPRO_BENCH_BASELINE") is None
    monkeypatch.setenv("REPRO_BENCH_BASELINE", "")
    assert knobs.get("REPRO_BENCH_BASELINE") == ""
    for value, out_dir in (("Off", None), ("yes", "profile"), ("p/", "p/")):
        monkeypatch.setenv("REPRO_PROF", value)
        assert knobs.get("REPRO_PROF") == out_dir


def test_malformed_knob_stops_import_repro(monkeypatch):
    monkeypatch.setenv("REPRO_WATCH_Q_LIMIT", "nan")
    with pytest.raises(
        ValueError,
        match="ValueError: REPRO_WATCH_Q_LIMIT must be a finite number > 0,"
        " got 'nan'",
    ):
        _import("repro")


def test_import_repro_loads_only_the_table():
    """With no knob set, ``import repro`` loads ``repro.knobs`` and
    nothing else of the package (no fault plan, no profiler)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro; "
            "print(sorted(m for m in sys.modules if m.startswith('repro')))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "['repro', 'repro.knobs']"


def _import_repro_with(**variables) -> str:
    """Stderr of ``import repro`` with no knob set but ``variables``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    done = subprocess.run(
        [sys.executable, "-c", "import repro"],
        env={**env, **variables},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stderr


def test_an_undeclared_name_warns_at_import():
    """A retired or misspelt knob would be ignored; ``import repro`` says
    so, naming every such variable, sorted, in one warning."""
    err = _import_repro_with(REPRO_CHECKPOINT_EVERY="5", REPRO_TRACE_X="1")
    assert re.search(
        r"warning .*knobs\.undeclared"
        r" names=REPRO_CHECKPOINT_EVERY,REPRO_TRACE_X$",
        err.strip(),
    ), err


def test_alert_hook_variables_are_not_undeclared():
    """``watch --on-alert`` sets REPRO_ALERT_*: outputs, not knobs."""
    assert _import_repro_with(REPRO_ALERT_RULE="x") == ""


def test_readme_env_table_lists_the_table():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| variable | effect |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append(re.match(r"\| `(REPRO_\w+)`", line).group(1))
    assert rows == list(knobs.TABLE)


@pytest.mark.parametrize("value", ["flase", "2"])
def test_malformed_spans_switch_fails_at_import(value):
    """``REPRO_SPANS`` is read when ``repro.telemetry.spans`` is imported:
    a value that is neither on nor off stops the process there, instead
    of switching spans on."""
    env = {**os.environ, "REPRO_SPANS": value}
    done = subprocess.run(
        [sys.executable, "-c", "import repro.telemetry.spans"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode != 0
    assert re.search(
        f"ValueError: REPRO_SPANS .*{re.escape(repr(value))}", done.stderr
    )


@pytest.mark.parametrize(
    "value, enabled",
    [("1", True), ("On", True), (" yes ", True), ("off", False), ("", False)],
)
def test_on_off_knobs_read_the_same_spellings(monkeypatch, value, enabled):
    for name in ("REPRO_SPANS", "REPRO_LOG_JSON", "REPRO_CHAOS"):
        monkeypatch.setenv(name, value)
        assert knobs.get(name) is enabled


def test_spans_switch_on_at_import():
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.telemetry.spans import get_tracer; "
            "print(get_tracer().enabled)",
        ],
        env={**os.environ, "REPRO_SPANS": "On"},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "True"
