"""The four benchmark workloads.

Each workload turns the benchmark seed into *jobs*: a fresh job has new
generated inputs, a resubmitted job repeats an earlier fresh job's
inputs.  A job is what a user submits and waits for — one simulation
(``adsl_fig1``, ``refine_l2``), one serial campaign (``campaign_sweep``)
or one service job (``service_jobs``).  Only the service answers a
resubmitted job from a store; the in-process workloads recompute it,
and every repeat must reproduce the first run's simulated statistics
and results exactly.

A workload supplies:

* ``setup_once()`` — one set-up, timed: model build plus elaboration,
  or for the service server start, pool warm-up and a health check;
* ``inputs(index)`` — the generated inputs of fresh job ``index``;
* ``run_job(inputs, recorder)`` — the timed part of one job;
* ``finish(inputs, handle)`` — untimed: statistics, outputs and the
  job's correctness checks;
* ``reference(jobs)`` — untimed, after the run: checks against an
  independent reference (L0 model, serial ``CampaignRunner``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import models
from repro.campaign import CampaignRunner, plan_records, resolve_spec_ref
from repro.core import SimTime

#: campaign spec shared by campaign_sweep and service_jobs
SPEC_PATH = Path(__file__).resolve().with_name("spec.py")
SPEC_NAME = "rc-sweep"
#: relative gain error allowed on an RC point (measured ~1e-3)
GAIN_TOLERANCE = 0.01

#: simulated statistics that must repeat exactly for one input
SIM_STATS = ("kernel.delta_cycles", "kernel.activations", "tdf.periods",
             "tdf.activations", "solver.steps", "solver.factorizations")


@dataclasses.dataclass
class Outcome:
    """What a finished job delivered, and whether it was right."""

    sim_us: float
    points: int
    stats: Dict[str, float]
    outputs: Dict[str, Any]
    failures: List[str]
    #: executed-point wall times (service only)
    point_seconds: List[float] = dataclasses.field(default_factory=list)


def span(recorder, name: str):
    return recorder.span(name) if recorder is not None \
        else contextlib.nullcontext()


def stats_of(snapshot: Dict[str, float]) -> Dict[str, float]:
    return {key: float(snapshot.get(key, 0.0)) for key in SIM_STATS}


def add_stats(total: Dict[str, float], more: Optional[Dict[str, Any]]
              ) -> None:
    for key in SIM_STATS:
        total[key] = total.get(key, 0.0) + float((more or {}).get(key, 0.0))


class Workload:
    name = ""
    why = ""
    #: minimum fresh and resubmitted jobs per run, whatever the time
    min_jobs = 2
    setup_repeats = 15
    #: fresh-input indices of the warm-up job, and in a traced run of
    #: the untraced job timed against its traced twin
    probe_indices = (0, 0, 0)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def inputs(self, index: int) -> Dict[str, Any]:
        return self._inputs(np.random.default_rng([self.seed, index]))

    def _inputs(self, rng: np.random.Generator) -> Dict[str, Any]:
        raise NotImplementedError

    def setup_once(self) -> Tuple[float, float]:
        """One set-up; returns the ``perf_counter`` stamps of its timed
        part."""
        raise NotImplementedError

    def run_job(self, inputs: Dict[str, Any], recorder=None) -> Any:
        raise NotImplementedError

    def finish(self, inputs: Dict[str, Any], handle: Any) -> Outcome:
        raise NotImplementedError

    def reference(self, jobs: list) -> None:
        """Check finished jobs against an independent reference; a
        mismatch is added to the job's failures."""

    def service_layers(self, jobs: list) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class SimulationWorkload(Workload):
    """One job = build one model, run it for ``duration_us``."""

    duration_us = 0

    def build(self, inputs):
        raise NotImplementedError

    def setup_once(self):
        start = time.perf_counter()
        self.build(self.inputs(0)).elaborate()
        return start, time.perf_counter()

    def run_job(self, inputs, recorder=None):
        with span(recorder, "bench.build"):
            simulator = self.build(inputs)
        simulator.run(SimTime(self.duration_us, "us"))
        return simulator

    def finish(self, inputs, simulator) -> Outcome:
        outputs = self.outputs(simulator, inputs)
        return Outcome(sim_us=float(self.duration_us), points=1,
                       stats=stats_of(simulator.metrics_snapshot()),
                       outputs=outputs,
                       failures=self.check(inputs, outputs))


class AdslFig1(SimulationWorkload):
    name = "adsl_fig1"
    why = ("the paper's Figure 1 ADSL system: DE software, RTL, TDF, "
           "sigma-delta, LSF and ELN in one run; kernel and dispatch "
           "bound, one period per wake")
    duration_us = models.ADSL_DURATION_US

    def _inputs(self, rng):
        return models.adsl_inputs(rng)

    def build(self, inputs):
        return models.build_adsl(inputs)

    def outputs(self, simulator, inputs):
        return models.adsl_outputs(simulator)

    def check(self, inputs, outputs):
        return models.adsl_check(outputs)


class RefineL2(SimulationWorkload):
    name = "refine_l2"
    why = ("pin-accurate sigma-delta refinement: CT solver stepping "
           "dominates, the kernel is idle, and an L0 NumPy model is the "
           "accuracy reference")
    duration_us = models.REFINE_SAMPLES

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        #: |ENOB(L2) - ENOB(L0)| per checked job
        self.enob_errors: List[float] = []
        self._l0: Dict[tuple, float] = {}

    def _inputs(self, rng):
        return models.refine_inputs(rng)

    def build(self, inputs):
        return models.build_refine(inputs)

    def outputs(self, simulator, inputs):
        return models.refine_outputs(simulator, inputs)

    def check(self, inputs, outputs):
        key = tuple(sorted(inputs.items()))
        if key not in self._l0:
            self._l0[key] = models.level0_enob(inputs)
        self.enob_errors.append(abs(outputs["enob"] - self._l0[key]))
        return models.refine_check(outputs, self._l0[key])


def _campaign_outcome(records, fingerprint: str, point_us: float,
                      point_seconds=()) -> Outcome:
    """Shared by the campaign and service workloads: ``records`` are
    per-point dicts with ``status``, ``metrics`` and
    ``metrics_telemetry``."""
    failures = []
    stats: Dict[str, float] = {}
    for record in records:
        add_stats(stats, record.get("metrics_telemetry"))
        if record["status"] != "ok":
            failures.append(f"point {record['index']}: "
                            f"{record.get('error')}")
        elif not record["metrics"]["gain_err"] < GAIN_TOLERANCE:
            failures.append(f"point {record['index']}: gain error "
                            f"{record['metrics']['gain_err']:.4f}")
    points = len(records)
    return Outcome(sim_us=points * point_us,
                   points=points, stats=stats,
                   outputs={"fingerprint": fingerprint},
                   failures=failures, point_seconds=list(point_seconds))


class _SpecWorkload(Workload):
    """Jobs of the shared campaign spec, identified by ``root_seed``."""

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.campaign = resolve_spec_ref(f"{SPEC_PATH}::{SPEC_NAME}")
        self.point_us = self.campaign.duration.to_seconds() * 1e6

    def _inputs(self, rng):
        return {"root_seed": int(rng.integers(1, 2 ** 31))}

    def reference(self, jobs) -> None:
        """Every job's fingerprint must equal a serial, uncached,
        unverified ``CampaignRunner`` run of the same root seed."""
        expected: Dict[int, str] = {}
        for job in jobs:
            root_seed = job.inputs["root_seed"]
            if root_seed not in expected:
                campaign = dataclasses.replace(self.campaign,
                                               root_seed=root_seed)
                expected[root_seed] = CampaignRunner(
                    campaign, verify="off", use_cache=False
                ).run().fingerprint()
            if job.outcome.outputs["fingerprint"] != expected[root_seed]:
                job.outcome.failures.append(
                    "fingerprint differs from the serial CampaignRunner")


class CampaignSweep(_SpecWorkload):
    name = "campaign_sweep"
    why = ("serial in-process CampaignRunner over short TDF+ELN points "
           "with static pre-flight and a cold cache: per-point "
           "elaboration, verification and cache writes dominate")

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self._caches = 0

    def setup_once(self):
        campaign = dataclasses.replace(
            self.campaign, root_seed=self.inputs(0)["root_seed"])
        params = plan_records(campaign)[0].params
        start = time.perf_counter()
        campaign.build(params).elaborate()
        return start, time.perf_counter()

    def run_job(self, inputs, recorder=None):
        self._caches += 1
        cache_dir = self.work_dir / f"cache{self._caches}"
        campaign = dataclasses.replace(self.campaign,
                                       root_seed=inputs["root_seed"])
        return CampaignRunner(campaign, cache_dir=cache_dir).run(), \
            cache_dir

    def finish(self, inputs, handle) -> Outcome:
        results, cache_dir = handle
        shutil.rmtree(cache_dir, ignore_errors=True)
        return _campaign_outcome([record.to_dict() for record in results],
                                 results.fingerprint(), self.point_us)


class ServiceJobs(_SpecWorkload):
    name = "service_jobs"
    why = ("the same spec by reference through the campaign service "
           "(2 pool workers, shared store): fresh jobs fork and write, "
           "resubmitted jobs only read the store")
    min_jobs = 40
    setup_repeats = 7
    #: distinct, so each probe is a fresh job (a store miss)
    probe_indices = (1_000_000, 1_000_001, 1_000_002)
    workers = 2
    tenant = "bench"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.handle = None
        self.client = None
        self._stores = 0

    def setup_once(self):
        from repro.service import ServiceClient, start_in_thread

        self._stop()
        self._stores += 1
        store = self.work_dir / f"store{self._stores}"
        start = time.perf_counter()
        handle = start_in_thread(port=0, workers=self.workers,
                                 store_dir=store)
        client = ServiceClient(handle.url)
        client.health()
        end = time.perf_counter()
        self.handle, self.client = handle, client
        return start, end

    def run_job(self, inputs, recorder=None):
        job = self.client.submit(f"{SPEC_PATH}::{SPEC_NAME}",
                                 tenant=self.tenant,
                                 root_seed=inputs["root_seed"])
        entries = list(self.client.stream(job["id"]))
        return entries, self.client.results(job["id"])

    def finish(self, inputs, handle) -> Outcome:
        entries, results = handle
        outcome = _campaign_outcome(
            entries, results["fingerprint"], self.point_us,
            [entry["wall_time"] for entry in entries
             if entry.get("source") == "executed"])
        if results["state"] != "done":
            outcome.failures.append(f"job ended {results['state']}")
        if len(entries) != results["counts"]["total"]:
            outcome.failures.append(
                f"streamed {len(entries)} of "
                f"{results['counts']['total']} points")
        return outcome

    def service_layers(self, jobs) -> Dict[str, float]:
        """Queue wait and point time from the public usage endpoint, and
        fresh-job latency beyond the point compute it waited for."""
        usage = self.client.usage(self.tenant)
        overheads = []
        for job in jobs:
            if job.outcome.point_seconds:
                compute = sum(job.outcome.point_seconds) / min(
                    self.workers, len(job.outcome.point_seconds))
                overheads.append((job.seconds - compute)
                                 / job.outcome.points)
        return {
            "service.queue_wait_p50_s":
                (usage.get("queue_wait_seconds") or {}).get("p50", 0.0),
            "service.point_p50_s":
                (usage.get("point_seconds") or {}).get("p50", 0.0),
            "service.cache_hit_ratio": usage["cache_hit_ratio"],
            "service.overhead_ms_per_point":
                1e3 * float(np.median(overheads)) if overheads else 0.0,
        }

    def _stop(self) -> None:
        """Stop the running service and wait for its pool workers."""
        if self.handle is None:
            return
        self.handle.stop(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout=5.0)
        self.handle = self.client = None

    def close(self) -> None:
        self._stop()


WORKLOADS = {cls.name: cls for cls in (AdslFig1, RefineL2, CampaignSweep,
                                       ServiceJobs)}
