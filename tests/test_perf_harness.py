"""Plumbing tests for the perf harness (benchmarks/perf/run_perf.py):
measurement dict shape, equivalence detection, the JSON baseline
round-trip, and the regression gate's pass/fail logic."""

import json
import pathlib
import sys

import pytest

PERF_DIR = pathlib.Path(__file__).resolve().parents[1] \
    / "benchmarks" / "perf"
if str(PERF_DIR) not in sys.path:
    sys.path.insert(0, str(PERF_DIR))

import run_perf  # noqa: E402
from models import MODELS, build_adc_chain  # noqa: E402


TINY_US = 400.0


def test_models_registry_shape():
    assert set(MODELS) == {"adc_chain", "mixed_chain", "eln_ladder"}
    for builder, full_us, quick_us in MODELS.values():
        assert callable(builder)
        assert full_us > quick_us > 0


def test_run_model_returns_streams():
    wall, cpu, times, samples, sim = run_perf.run_model(
        build_adc_chain, TINY_US, block=True)
    assert wall > 0 and cpu >= 0
    assert len(times) == len(samples) == 401
    assert sim.now.to_seconds() == pytest.approx(TINY_US * 1e-6)


def test_measure_reports_equivalent_speedup():
    result = run_perf.measure("adc_chain", build_adc_chain, TINY_US,
                              repeats=1)
    assert result["equivalent"] is True
    assert result["samples"] == 401
    assert result["speedup"] > 1.0
    assert result["scalar_samples_per_sec"] > 0
    assert result["block_samples_per_sec"] > 0


def test_profile_model_attributes_time():
    profile = run_perf.profile_model(build_adc_chain, TINY_US)
    assert profile
    assert all(name.startswith("adc_chain.") for name in profile)
    assert all(seconds >= 0 for seconds in profile.values())


def _report(speedup=10.0, equivalent=True, mode="quick"):
    return {
        "schema": "repro-perf/1",
        "mode": mode,
        "benchmarks": {
            "adc_chain": {"speedup": speedup, "equivalent": equivalent},
        },
    }


def _baseline_file(tmp_path, speedup=10.0, mode="quick"):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(
        {"runs": {mode: _report(speedup=speedup, mode=mode)}}
    ))
    return str(path)


class TestRegressionGate:
    def test_passes_within_threshold(self, tmp_path):
        baseline = _baseline_file(tmp_path, speedup=10.0)
        failures = run_perf.check_regression(
            _report(speedup=9.0), baseline, threshold=0.20)
        assert failures == []

    def test_fails_on_speedup_regression(self, tmp_path):
        baseline = _baseline_file(tmp_path, speedup=10.0)
        failures = run_perf.check_regression(
            _report(speedup=7.0), baseline, threshold=0.20)
        assert any("fell more than" in f for f in failures)

    def test_fails_on_equivalence_failure(self, tmp_path):
        baseline = _baseline_file(tmp_path, speedup=10.0)
        failures = run_perf.check_regression(
            _report(speedup=12.0, equivalent=False), baseline,
            threshold=0.20)
        assert any("diverges" in f for f in failures)

    def test_fails_on_mode_mismatch(self, tmp_path):
        baseline = _baseline_file(tmp_path, mode="full")
        failures = run_perf.check_regression(
            _report(mode="quick"), baseline, threshold=0.20)
        assert any("no 'quick'-mode section" in f for f in failures)

    def test_fails_on_missing_baseline(self, tmp_path):
        failures = run_perf.check_regression(
            _report(), str(tmp_path / "nope.json"), threshold=0.20)
        assert any("not readable" in f for f in failures)


def test_main_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        run_perf, "MODELS",
        {"adc_chain": (build_adc_chain, TINY_US, TINY_US)},
    )
    measured = {}
    measure = run_perf.measure

    def measure_once(name, *args, **kwargs):
        measured[name] = measure(name, *args, **kwargs)
        return measured[name]

    monkeypatch.setattr(run_perf, "measure", measure_once)
    out = tmp_path / "report.json"
    assert run_perf.main(["--quick", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "quick"
    assert report["benchmarks"]["adc_chain"]["equivalent"] is True
    # gate the fresh report against itself: must pass.  The second run
    # replays the first run's measurements, so timing noise cannot fail
    # the gate; everything else in it runs again.
    monkeypatch.setattr(run_perf, "measure",
                        lambda name, *args, **kwargs: measured[name])
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"runs": {"quick": report}}))
    assert run_perf.main(["--quick",
                          "--check-regression", str(baseline)]) == 0
