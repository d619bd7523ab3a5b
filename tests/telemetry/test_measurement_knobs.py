"""A malformed measurement knob fails loudly, naming the knob and the
value, instead of turning into its default."""

import re

import pytest

from repro.obsv.alerts import WatchConfig
from repro.obsv.prof.session import ProfileConfig
from repro.obsv.watch import poll_interval
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
    ],
)
def test_malformed_knob_raises(monkeypatch, name, value, read):
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=f"{name}.*{re.escape(repr(value))}"):
        read()
