"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_children():
    #  0 [0, 10)
    #  ├─ 1 [1, 4)
    #  │   └─ 2 [2, 3)
    #  └─ 3 [5, 9)
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(parent, start, end) == pytest.approx(
        [3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    # children 1 and 2 overlap on [3, 4); child 3 runs past its parent
    parent = [-1, 0, 0, 0]
    start = [0.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 5.0, 12.0]
    assert spans.self_times(parent, start, end) == pytest.approx(
        [5.0, 2.0, 2.0, 4.0])


def test_recorder_totals_and_ancestor_filter():
    recorder = spans.SpanRecorder()
    buf = recorder.buffer()
    ids = {name: recorder.name_id(name)
           for name in ("job", "campaign", "verify")}
    # job [0, 10) > campaign [1, 9) > verify [2, 5); verify [9.5, 10)
    for name, parent, lo, hi in (("job", -1, 0.0, 10.0),
                                 ("campaign", 0, 1.0, 9.0),
                                 ("verify", 1, 2.0, 5.0),
                                 ("verify", 0, 9.5, 10.0)):
        buf.name.append(ids[name])
        buf.parent.append(parent)
        buf.start.append(lo)
        buf.end.append(hi)
    totals = recorder.totals()
    assert totals["job"]["self_s"] == pytest.approx(1.5)
    assert totals["campaign"]["self_s"] == pytest.approx(5.0)
    assert totals["verify"] == pytest.approx(
        {"count": 2, "total_s": 3.5, "self_s": 3.5})
    inside = recorder.totals(within="campaign")
    assert inside["verify"] == pytest.approx(
        {"count": 1, "total_s": 3.0, "self_s": 3.0})
    assert inside["job"]["count"] == 0


def test_outermost_only_for_nested_solver_calls():
    recorder = spans.SpanRecorder()

    def advance(depth):
        if depth:
            inner(depth - 1)

    inner = spans._wrap(advance, recorder, "ct.advance", outermost=True)
    inner(3)
    assert recorder.totals()["ct.advance"]["count"] == 1


def test_host_speed_rescales_to_reference_seconds():
    host = harness.HostSpeed()
    ref = host.REFERENCE_PROBE_S
    host.samples = [(1.0, 2 * ref), (1.5, 2 * ref), (5.0, 4 * ref)]
    # two probes inside, host twice as slow as the reference
    assert host.seconds(0.9, 2.9) == pytest.approx((2.0 - 4 * ref) / 2)
    # no probe inside a short interval: the probes around it count
    assert host.seconds(4.9, 4.95) == pytest.approx(0.05 / 4)


# -- wrappers ------------------------------------------------------------------

def test_wrappers_are_removed_after_a_traced_run():
    from repro.core import SimTime

    import models

    recorder = spans.SpanRecorder()
    tracing = spans.install(recorder)
    patched = tracing.patched
    originals = {}
    for owner, attr in patched:
        wrapped = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        originals[(owner, attr)] = wrapped.__wrapped__
    names = {attr for _owner, attr in patched}
    assert {"run", "elaborate", "execute_periods", "assemble",
            "verify_model", "put", "processing", "processing_block",
            "advance_to", "advance_window", "submit"} <= names
    inputs = models.refine_inputs(__import__("numpy").random
                                  .default_rng(0))
    models.build_refine(inputs).run(SimTime(200, "us"))
    assert len(recorder) > 0
    tracing.remove()
    assert tracing.patched == []
    for (owner, attr), original in originals.items():
        current = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        assert current is original
    recorded = len(recorder)
    models.build_refine(inputs).run(SimTime(200, "us"))
    assert len(recorder) == recorded


# -- smoke runs ----------------------------------------------------------------

def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_passes_its_checks(name, capsys, monkeypatch):
    cls = workloads.WORKLOADS[name]
    monkeypatch.setattr(cls, "min_jobs", 1)
    monkeypatch.setattr(cls, "setup_repeats", 1)
    code = harness.run(name, seed=7, seconds=0.001, trace=False)
    result = _result(capsys)
    assert code == 0 and result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 3
    metrics = result["metrics"]
    assert set(metrics) == {"setup_s", "sim_us_per_s", "points_per_s",
                            "fresh_job_p50_s", "fresh_job_p75_s",
                            "hit_job_p50_s", "hit_job_p75_s",
                            "peak_rss_mb"}
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_traced_smoke_run_reports_every_layer(capsys, monkeypatch):
    monkeypatch.setattr(workloads.CampaignSweep, "min_jobs", 1)
    monkeypatch.setattr(workloads.CampaignSweep, "setup_repeats", 1)
    code = harness.run("campaign_sweep", seed=3, seconds=0.001,
                       trace=True)
    result = _result(capsys)
    assert code == 0 and result["correct"], result
    metrics = result["metrics"]
    layout = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in layout["per_layer"]}
    assert metrics["verify.calls"]["value"] == 8
    assert metrics["campaign.preflight_s"]["value"] > 0
    assert metrics["unattributed_frac"]["value"] < 0.05


def test_failed_check_makes_the_run_fail(capsys, monkeypatch):
    monkeypatch.setattr(workloads.CampaignSweep, "min_jobs", 1)
    monkeypatch.setattr(workloads.CampaignSweep, "setup_repeats", 1)
    monkeypatch.setattr(workloads, "GAIN_TOLERANCE", 0.0)
    code = harness.run("campaign_sweep", seed=3, seconds=0.001,
                       trace=False)
    result = _result(capsys)
    assert code != 0 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 3


def test_job_order_pairs_fresh_and_resubmitted_jobs():
    order = harness.job_order(5)
    jobs = [next(order) for _ in range(40)]
    assert jobs[0] == ("fresh", 0)
    fresh_seen = set()
    for pair in zip(jobs[::2], jobs[1::2]):
        assert sorted(kind for kind, _ in pair) == ["fresh", "resubmit"]
        for kind, index in pair:
            if kind == "fresh":
                fresh_seen.add(index)
        for kind, index in pair:
            if kind == "resubmit":
                assert index in fresh_seen
    assert jobs == list(itertools.islice(harness.job_order(5), 40))


def test_exits_nonzero_without_the_simulator_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out",
                                                  "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adsl_fig1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
