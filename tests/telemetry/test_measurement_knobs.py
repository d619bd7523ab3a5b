"""A malformed measurement knob fails loudly, naming the knob and the
value, instead of turning into its default."""

import functools
import os
import re
import subprocess
import sys

import pytest

from repro.obsv.alerts import WatchConfig
from repro.obsv.cli import main
from repro.obsv.prof.session import ProfileConfig
from repro.obsv.regress import RegressionThresholds
from repro.obsv.replay import default_tolerance
from repro.obsv.watch import poll_interval
from repro.telemetry.log import configure
from repro.telemetry.metrics import Histogram

pytestmark = pytest.mark.telemetry


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
            "REPRO_WATCH_POLL", "fast", poll_interval, id="watch-poll",
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
            "REPRO_WATCH_STARVATION_UPDATES", "2.5", WatchConfig.from_env,
            id="watch-int-threshold",
        ),
        pytest.param(
            "REPRO_OBSV_MAX_RATIO", "nan", RegressionThresholds.from_env,
            id="max-ratio-nan",
        ),
        pytest.param(
            "REPRO_OBSV_MAX_RATIO", "inf", RegressionThresholds.from_env,
            id="max-ratio-inf",
        ),
        pytest.param(
            "REPRO_OBSV_MAX_RATIO", "0", RegressionThresholds.from_env,
            id="max-ratio-zero",
        ),
        pytest.param(
            "REPRO_OBSV_MAX_RATIO", "1.5x", RegressionThresholds.from_env,
            id="max-ratio-text",
        ),
        pytest.param(
            "REPRO_OBSV_TOLERANCE", "nan", default_tolerance,
            id="tolerance-nan",
        ),
        pytest.param(
            "REPRO_OBSV_TOLERANCE", "-1e-9", default_tolerance,
            id="tolerance-negative",
        ),
        pytest.param(
            "REPRO_OBSV_TOLERANCE", "tight", default_tolerance,
            id="tolerance-text",
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
    with pytest.raises(ValueError, match=f"{name}.*{re.escape(repr(value))}"):
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
            ["replay", "trace.jsonl", "--tolerance", "nan"], "--tolerance",
            id="replay-tolerance-nan",
        ),
    ],
)
def test_malformed_flag_raises(argv, flag):
    with pytest.raises(ValueError, match=f"{flag}.*{argv[-1]}"):
        main(argv)


def test_well_formed_knobs_still_read(monkeypatch):
    monkeypatch.setenv("REPRO_OBSV_MAX_RATIO", "3")
    assert RegressionThresholds.from_env().wall_clock_ratio == 3.0
    monkeypatch.setenv("REPRO_OBSV_TOLERANCE", "0")
    assert default_tolerance() == 0.0
    monkeypatch.setenv("REPRO_OBSV_TOLERANCE", "")
    assert default_tolerance() is None


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
    from repro.knobs import env_flag

    for name in ("REPRO_SPANS", "REPRO_LOG_JSON", "REPRO_RESUME"):
        monkeypatch.setenv(name, value)
        assert env_flag(name) is enabled


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
