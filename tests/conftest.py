"""Shared pytest fixtures and the chaos-suite gate."""

import numpy as np
import pytest

from repro import knobs
from repro.sim import Road, RoadConfig, ScenarioConfig, make_world


def pytest_collection_modifyitems(config, items):
    """Keep chaos tests out of the default (tier-1) run.

    They spawn subprocesses, SIGKILL them, and corrupt files on purpose
    — opt in with ``REPRO_CHAOS=1`` or an explicit ``-m chaos``.
    """
    if knobs.get("REPRO_CHAOS"):
        return
    if "chaos" in (config.getoption("-m") or ""):
        return
    skip = pytest.mark.skip(
        reason="chaos suite (set REPRO_CHAOS=1 or pass -m chaos)"
    )
    for item in items:
        if "chaos" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def road() -> Road:
    return Road.straight(RoadConfig())


@pytest.fixture()
def world():
    return make_world(rng=np.random.default_rng(1234))


@pytest.fixture()
def quiet_world():
    """World without spawn jitter for exactly repeatable trajectories."""
    return make_world(rng=None)


@pytest.fixture(scope="session")
def scenario_config() -> ScenarioConfig:
    return ScenarioConfig()
