"""Bounded-memory histograms: deterministic reservoir sampling past a cap."""

import numpy as np
import pytest

from repro.telemetry.metrics import Histogram, MetricsRegistry

pytestmark = pytest.mark.telemetry


class TestUncappedBehaviour:
    def test_default_stores_everything_exactly(self):
        hist = Histogram()
        values = np.sin(np.arange(1000) * 0.1) * 10.0
        for v in values:
            hist.observe(v)
        assert hist.count == 1000
        assert hist.sample_size == 1000
        summary = hist.summary()
        assert summary["count"] == 1000
        assert summary["mean"] == pytest.approx(float(values.mean()))
        assert summary["min"] == float(values.min())
        assert summary["max"] == float(values.max())
        assert "samples" not in summary
        assert summary["p50"] == pytest.approx(
            float(np.percentile(values, 50.0))
        )

    def test_cap_larger_than_n_is_exact(self):
        capped = Histogram(max_samples=5000)
        plain = Histogram()
        for v in range(1000):
            capped.observe(float(v))
            plain.observe(float(v))
        assert capped.summary() == plain.summary()


class TestCappedBehaviour:
    def test_reservoir_bounds_memory(self):
        hist = Histogram(max_samples=100)
        for v in range(10_000):
            hist.observe(float(v))
        assert hist.count == 10_000
        assert hist.sample_size == 100
        assert len(hist.values) == 100

    def test_capped_scalar_stats_stay_exact(self):
        values = np.linspace(-50.0, 50.0, 5000)
        hist = Histogram(max_samples=64)
        for v in values:
            hist.observe(float(v))
        summary = hist.summary()
        assert summary["count"] == 5000
        assert summary["samples"] == 64
        assert summary["sum"] == pytest.approx(float(values.sum()), abs=1e-6)
        assert summary["mean"] == pytest.approx(float(values.mean()))
        assert summary["min"] == float(values.min())
        assert summary["max"] == float(values.max())
        # Percentiles are estimates from the reservoir but must stay in
        # the observed range and roughly ordered.
        assert summary["min"] <= summary["p50"] <= summary["max"]
        assert summary["p50"] <= summary["p90"] <= summary["p99"]

    def test_reservoir_is_deterministic(self):
        def run():
            hist = Histogram(max_samples=32)
            for v in range(2000):
                hist.observe(float(v * 7 % 997))
            return hist.summary(), hist.values.tolist()

        first, second = run(), run()
        assert first == second

    def test_reservoir_never_touches_global_rng(self):
        np.random.seed(42)
        before = np.random.get_state()[1].copy()
        hist = Histogram(max_samples=16)
        for v in range(500):
            hist.observe(float(v))
        import random

        state = random.getstate()
        hist.observe(1.0)
        assert random.getstate() == state
        assert (np.random.get_state()[1] == before).all()

    def test_env_cap_applies_to_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_HIST_MAX_SAMPLES", "8")
        registry = MetricsRegistry()
        hist = registry.histogram("latency_us")
        for v in range(100):
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.sample_size == 8

    def test_empty_summary_unchanged(self):
        assert Histogram(max_samples=4).summary() == {"count": 0}
