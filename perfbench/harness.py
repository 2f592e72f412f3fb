"""Run one workload: set-up, the timed closed loop, correctness gates,
metrics, and the result line.

The loop is closed: one client submits the next job only after the
previous one completed.  It runs for the requested seconds and at least
``min_jobs`` fresh and ``min_jobs`` resubmitted jobs.  Jobs come in
pairs, one fresh and one resubmitted, in an order drawn from the seed,
so every run has the same mix.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
a probe job untraced, then installs the span wrappers
(:mod:`spans`), runs the probe's twin and the loop traced, and reports
the per-layer metrics; the spans are exported as a Chrome trace and
gated with ``python -m repro.observe check``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import spans
from workloads import WORKLOADS, Outcome, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: a run never loops longer than this, whatever its minimum job count
MAX_LOOP_SECONDS = 120.0


@dataclasses.dataclass
class Job:
    number: int
    kind: str               # "fresh" | "resubmit" | "probe"
    index: int              # fresh-input index
    inputs: Dict[str, Any]
    seconds: float = 0.0
    start: float = 0.0
    end: float = 0.0
    outcome: Optional[Outcome] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.outcome.failures)


def job_order(seed: int):
    """Endless ``(kind, index)`` stream: pairs of one fresh job and one
    resubmission of a random earlier fresh job, pair order drawn from
    the seed (the first job is always fresh)."""
    rng = random.Random(seed)
    fresh = 0
    while True:
        pair = [("fresh", fresh), ("resubmit", rng.randrange(fresh + 1))]
        if fresh and rng.random() < 0.5:
            pair = [("resubmit", rng.randrange(fresh)), pair[0]]
        fresh += 1
        yield from pair


def execute(workload: Workload, job: Job, recorder=None) -> Job:
    """Run one job (timed) and finish it (untimed)."""
    try:
        if recorder is None:
            job.start = time.perf_counter()
            handle = workload.run_job(job.inputs)
            job.end = time.perf_counter()
        else:
            with recorder.span("bench.job"):
                job.start = time.perf_counter()
                handle = workload.run_job(job.inputs, recorder)
                job.end = time.perf_counter()
        job.seconds = job.end - job.start
        job.outcome = workload.finish(job.inputs, handle)
    except Exception as exc:  # a failed job is counted, not fatal
        job.error = f"{type(exc).__name__}: {exc}"
    return job


def repeat_failures(first: Job, again: Job) -> List[str]:
    """The determinism gate: one input, identical statistics and
    results."""
    if first.failed or again.failed:
        return []
    problems = []
    if first.outcome.stats != again.outcome.stats:
        problems.append(f"job {again.number} repeats job {first.number} "
                        f"but its simulated statistics differ: "
                        f"{again.outcome.stats} != {first.outcome.stats}")
    if first.outcome.outputs != again.outcome.outputs:
        problems.append(f"job {again.number} repeats job {first.number} "
                        "but its results differ")
    return problems


def calibrate(repeats: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop: a host-speed
    yardstick printed with every run, so machine drift between two sets
    of runs shows."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value % 7
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


class HostSpeed:
    """Host-speed sampler behind the host-normalized timings.

    The speed of a shared host drifts, by up to 1.7x in episodes of
    seconds.  While active, a ``SIGALRM`` handler times a fixed
    pure-Python probe every 50 ms in the main thread; :meth:`seconds`
    turns a wall-clock interval into reference-host seconds: the
    interval minus the probes inside it,
    scaled by ``REFERENCE_PROBE_S`` over the mean probe time measured
    during (or, for short intervals, around) it.
    """

    INTERVAL_S = 0.05
    #: probe time that defines the reference host
    REFERENCE_PROBE_S = 1e-4

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for value in range(2000):
            total += value * value % 7
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        inside = [d for t, d in self.samples if start <= t <= end]
        near = inside or [d for t, d in self.samples
                          if start - 0.5 <= t <= end + 0.5]
        net = end - start - sum(inside)
        return net * self.REFERENCE_PROBE_S / statistics.mean(near) \
            if near else net


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metrics ------------------------------------------------------------------


def end_to_end(setups: List[float], jobs: List[Job], rss_mb: float
               ) -> Dict[str, Tuple[float, str]]:
    done = [job for job in jobs if not job.failed]
    seconds = sum(job.seconds for job in done)
    fresh = [job.seconds for job in done if job.kind == "fresh"]
    again = [job.seconds for job in done if job.kind == "resubmit"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "sim_us_per_s": (_ratio(sum(j.outcome.sim_us for j in done),
                                seconds), "us/s"),
        "points_per_s": (_ratio(sum(j.outcome.points for j in done),
                                seconds), "1/s"),
        "fresh_job_p50_s": (percentile(fresh, 50), "s"),
        "fresh_job_p75_s": (percentile(fresh, 75), "s"),
        "hit_job_p50_s": (percentile(again, 50), "s"),
        "hit_job_p75_s": (percentile(again, 75), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(recorder: spans.SpanRecorder, jobs: List[Job],
              service: Dict[str, float], overhead: float
              ) -> Dict[str, Tuple[float, str]]:
    """Layer metrics of a traced run.  Times are per job (seconds
    summed over the traced jobs, divided by their number); counts are
    per simulation (per point); the rest are ratios of totals."""
    totals = recorder.totals()
    under_campaign = recorder.totals(within="campaign.run")

    def total(name, table=totals):
        return table.get(name, {}).get("total_s", 0.0)

    def own(*names):
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names):
        return sum(totals.get(n, {}).get("count", 0) for n in names)

    n_jobs = len(jobs)
    points = sum(job.outcome.points for job in jobs)
    stats: Dict[str, float] = {}
    for job in jobs:
        for key, value in job.outcome.stats.items():
            stats[key] = stats.get(key, 0.0) + value
    service_calls = [f"service.{name}" for name in spans.SERVICE_CALLS]
    lib = ("lib.body.processing", "lib.body.processing_block")
    sync = ("sync.body.processing", "sync.body.processing_block")
    kernel_self = own("core.kernel")
    campaign_s = total("campaign.run")
    layers = {
        "core.kernel_self_s": (kernel_self / n_jobs, "s"),
        "core.ns_per_activation": (
            1e9 * _ratio(kernel_self, stats["kernel.activations"]), "ns"),
        "core.delta_cycles": (stats["kernel.delta_cycles"] / points,
                              "count"),
        "core.activations": (stats["kernel.activations"] / points,
                             "count"),
        "core.elaborate_s": (total("core.elaborate") / n_jobs, "s"),
        "eln.assemble_s": (total("eln.assemble") / n_jobs, "s"),
        "tdf.self_s": (own("tdf.execute") / n_jobs, "s"),
        "tdf.periods": (stats["tdf.periods"] / points, "count"),
        "tdf.activations": (stats["tdf.activations"] / points, "count"),
        "tdf.periods_per_wake": (
            _ratio(stats["tdf.periods"], calls("tdf.execute"))
            if calls("tdf.execute") else 0.0, "ratio"),
        "lib.body_s": (own(*lib) / n_jobs, "s"),
        "lib.block_call_frac": (
            _ratio(calls(lib[1]), calls(*lib)), "ratio"),
        "sync.self_s": (own(*sync) / n_jobs, "s"),
        "ct.advance_s": (total("ct.advance") / n_jobs, "s"),
        "ct.steps": (stats["solver.steps"] / points, "count"),
        "ct.us_per_step": (
            1e6 * _ratio(total("ct.advance"), stats["solver.steps"])
            if calls("ct.advance") else 0.0, "us"),
        "ct.factorizations": (stats["solver.factorizations"] / points,
                              "count"),
        "ct.window_step_frac": (
            _ratio(recorder.counter("ct.window_steps"),
                   stats["solver.steps"]), "ratio"),
        "verify.calls": (calls("verify.model") / n_jobs, "count"),
        "verify.s_per_call": (
            _ratio(total("verify.model"), calls("verify.model")), "s"),
        "campaign.preflight_s": (
            total("verify.model", under_campaign) / n_jobs, "s"),
        "campaign.point_s": (
            _ratio(campaign_s, points) if calls("campaign.run") else 0.0,
            "s"),
        "campaign.cache_put_s": (total("campaign.cache_put") / n_jobs,
                                 "s"),
        "campaign.self_s": (own("campaign.run") / n_jobs, "s"),
        "campaign.elaborate_share": (
            _ratio(total("core.elaborate", under_campaign), campaign_s),
            "ratio"),
        "service.http_s": (
            sum(total(name) for name in service_calls) / n_jobs, "s"),
        "service.requests": (calls(*service_calls) / n_jobs, "count"),
        "service.queue_wait_p50_s": (
            service.get("service.queue_wait_p50_s", 0.0), "s"),
        "service.point_p50_s": (service.get("service.point_p50_s", 0.0),
                                "s"),
        "service.cache_hit_ratio": (
            service.get("service.cache_hit_ratio", 0.0), "ratio"),
        "service.overhead_ms_per_point": (
            service.get("service.overhead_ms_per_point", 0.0), "ms"),
        "unattributed_frac": (
            _ratio(own("bench.job"), total("bench.job")), "ratio"),
        "observe.trace_overhead_frac": (overhead, "ratio"),
    }
    return layers


# -- the run ------------------------------------------------------------------


def check_trace(path: Path) -> Tuple[bool, str]:
    """Gate the exported trace with ``python -m repro.observe check``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-m", "repro.observe", "check", str(path)],
        capture_output=True, text=True, env=env, timeout=120)
    message = (done.stdout + done.stderr).strip()
    return done.returncode == 0, message


def run(workload_name: str, seed: int, seconds: float, trace: bool
        ) -> int:
    work_dir = HERE / ".work" / f"{workload_name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(WORKLOADS[workload_name](seed, work_dir), seed,
                    seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(workload: Workload, seed: int, seconds: float,
         trace: bool) -> int:
    calibration_ms = calibrate()
    jobs: List[Job] = []            # every job, probes included
    gate_failures: List[str] = []   # run-level: the trace check
    recorder = tracing = None
    overhead = 0.0
    host = None if trace else HostSpeed()
    try:
        with host or contextlib.nullcontext():
            stamps = [workload.setup_once()
                      for _ in range(workload.setup_repeats)]
            # A warm-up job fills lazy imports and caches before
            # timing.  A traced run then times one job untraced and its
            # twin traced: the tracing overhead, and (same inputs) a
            # determinism gate.
            for index in workload.probe_indices[:3 if trace else 1]:
                if len(jobs) == 2:
                    recorder = spans.SpanRecorder()
                    tracing = spans.install(recorder)
                jobs.append(execute(workload, Job(
                    len(jobs), "probe", index, workload.inputs(index)),
                    recorder))
            loop_jobs = _loop(workload, seed, seconds, recorder,
                              len(jobs))
        if trace and jobs[1].seconds and jobs[2].seconds:
            overhead = jobs[2].seconds / jobs[1].seconds - 1.0
        setups = [end - start for start, end in stamps]
        if host is not None:
            setups = [host.seconds(start, end) for start, end in stamps]
            for job in loop_jobs:
                job.seconds = host.seconds(job.start, job.end)
        jobs += loop_jobs
        rss_mb = peak_rss_mb()
        if tracing is not None:
            tracing.remove()
        first_run: Dict[int, Job] = {}
        for job in jobs:
            if job.index in first_run:
                problems = repeat_failures(first_run[job.index], job)
                if problems:
                    job.outcome.failures += problems
            else:
                first_run[job.index] = job
        workload.reference([job for job in jobs if not job.failed])
        service = workload.service_layers(
            [job for job in jobs[2:] if not job.failed]) if trace else {}
    finally:
        if tracing is not None:
            tracing.remove()
        workload.close()

    lines = [f"workload {workload.name}  seed {seed}  trace {int(trace)}",
             f"  {workload.why}",
             f"  jobs: {sum(j.kind == 'fresh' for j in loop_jobs)} fresh, "
             f"{sum(j.kind == 'resubmit' for j in loop_jobs)} resubmitted "
             f"(closed loop, 1 client)",
             f"  calibration_ms      {calibration_ms:.3f} ms  "
             "(fixed host loop)"]
    if trace:
        traced = [job for job in jobs[2:] if not job.failed]
        metrics = per_layer(recorder, traced, service, overhead)
        out_dir = HERE / ".out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}.json"
        count = recorder.write_chrome_trace(trace_path)
        ok, message = check_trace(trace_path)
        if not ok:
            gate_failures.append(f"trace check failed: {message}")
        lines.append(f"  trace: {count} spans -> {trace_path} "
                     f"({'passes' if ok else 'FAILS'} repro.observe check)")
        campaign_s = recorder.totals().get("campaign.run", {}) \
            .get("total_s", 0.0)
        if campaign_s:
            preflight = metrics["campaign.preflight_s"][0] \
                * len(traced) / campaign_s
            lines.append(f"  pre-flight share of campaign time "
                         f"{preflight:.3f}; elaboration share "
                         f"{metrics['campaign.elaborate_share'][0]:.3f} "
                         "(elaboration-cache threshold 0.20)")
    else:
        metrics = end_to_end(setups, loop_jobs, rss_mb)
    enob_errors = getattr(workload, "enob_errors", None)
    lines.append(
        f"  enob_err_bits       {statistics.median(enob_errors):.4f} bits"
        " (median |ENOB L2 - ENOB L0|)" if enob_errors
        else "  enob_err_bits       unvalidated (no external reference)")

    failed_jobs = [job for job in jobs if job.failed]
    attempted = len(jobs) + int(trace)      # the trace check counts too
    failed = len(failed_jobs) + len(gate_failures)
    lines.append(f"  fail_ratio          {failed / attempted:.4f} "
                 f"({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<30} {value:.6g} {unit}")
    for job in failed_jobs:
        problems = [job.error] if job.error else job.outcome.failures
        lines.append(f"  FAILED job {job.number} ({job.kind} "
                     f"{job.index}): {'; '.join(problems)}")
    for problem in gate_failures:
        lines.append(f"  FAILED gate: {problem}")
    correct = failed == 0
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _loop(workload: Workload, seed: int, seconds: float, recorder,
          first_number: int) -> List[Job]:
    jobs: List[Job] = []
    counts = {"fresh": 0, "resubmit": 0}
    order = job_order(seed)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = min(counts.values()) >= workload.min_jobs
        if (elapsed >= seconds and enough and len(jobs) % 2 == 0) \
                or elapsed >= MAX_LOOP_SECONDS:
            return jobs
        kind, index = next(order)
        counts[kind] += 1
        jobs.append(execute(workload, Job(
            first_number + len(jobs), kind, index,
            workload.inputs(index)), recorder))
