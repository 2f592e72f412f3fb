"""The campaign service: an asyncio HTTP façade over sharded workers.

One :class:`CampaignService` process owns the control plane — job
admission (with static pre-flight), the fair-share chunk queue, the
single-flight tables, per-job streaming — and every chunk goes through
one lifecycle, whoever executes it:

* **lease** — two kinds of executor take chunks off the queue the same
  way: the ``workers`` local pool slots, which run chunks on a fork
  pool, and remote workers on any host that can reach the HTTP port
  and see the spec file, via ``POST /v1/workers/lease`` (pull-based
  work stealing: a faster host simply leases more often).  Both run
  :func:`~repro.service.jobs.execute_chunk`.
* **end** — a chunk ends exactly once: *complete*, with outcomes (a
  pool slot's result, or ``POST /v1/workers/complete``), or *drop*,
  without them, once its job has ended.  A remote lease not completed
  within ``lease_timeout`` seconds is re-queued by the reaper — a
  crashed worker loses its lease, never the work; a local lease ends
  when its pool future finishes or fails.

Endpoints (all JSON; one request per connection):

====== =============================== =================================
Method Path                            Purpose
====== =============================== =================================
GET    /v1/healthz                     liveness + version
POST   /v1/jobs                        submit (422 verifier-rejected,
                                       429 queue full)
GET    /v1/jobs                        list jobs (``?tenant=`` filter)
GET    /v1/jobs/{id}                   status + progress counters
POST   /v1/jobs/{id}/cancel            cancel (idempotent)
GET    /v1/jobs/{id}/stream            per-point records as JSONL
                                       (``?sse=1`` for SSE framing)
GET    /v1/jobs/{id}/results           aggregates + fingerprint
GET    /v1/jobs/{id}/telemetry         merged per-point engine telemetry
GET    /v1/jobs/{id}/trace             stitched Perfetto trace (fleet
                                       spans from every executor)
GET    /v1/tenants/{id}/usage          per-tenant SLO accounting
GET    /v1/metrics                     service metrics registry dump
GET    /metrics                        Prometheus text exposition
                                       (fleet-merged; unversioned per
                                       Prometheus convention)
POST   /v1/workers/lease               pull one chunk (204 when idle)
POST   /v1/workers/complete            return chunk outcomes
                                       (+ optional telemetry segment)
====== =============================== =================================

Fleet observability (``observe="on"``, the default): each admitted job
mints a W3C-``traceparent``-style trace context; every chunk dispatch
derives a child context carried to executors through the lease payload
and the fork/pickle boundary.  Given that context,
:func:`~repro.service.jobs.execute_chunk` ships a size-capped
telemetry segment (spans + metrics + wall-clock epoch) back with the
outcomes; the server adds its own queue-wait / lease
spans and cache-hit instants and stitches everything into one
Perfetto-loadable trace per job.  Worker metric registries are merged
(counter sum, gauge last-write, histogram bucket-merge) into the
cluster view behind ``GET /metrics``.

Determinism contract: seeds are planned once, server-side, into each
point's params; identical points (same campaign name, params incl.
seed, code version, verifier ruleset) are computed **once** fleet-wide
— concurrent duplicates wait for the in-flight point, here or in
another process sharing the store, later duplicates hit the shared
store — and every job's aggregate is
bit-identical to a serial :class:`~repro.campaign.runner.CampaignRunner`
execution of the same campaign.
"""

from __future__ import annotations

import asyncio
import logging
import os
import socket
import threading
import time
import uuid
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .. import __version__ as _VERSION
from ..campaign.cache import cache_key
from ..campaign.loader import SpecError, resolve_spec_ref, split_spec_ref
from ..campaign.records import CampaignResults, JsonlAppender, RunRecord
from ..campaign.runner import _fork_context, plan_records
from ..campaign.spec import Campaign, FixedPoints
from ..observe import MetricsRegistry
from ..observe.fleet import (
    DEFAULT_SEGMENT_SPANS,
    MetricsAggregator,
    TraceContext,
    coerce_segment,
    prometheus_text,
    split_metric_key,
    stitch_job_trace,
)
from ..observe.metrics import LATENCY_BOUNDS
from ..observe.tracer import INSTANT, SPAN
from .http import (
    HttpError,
    Request,
    Response,
    Router,
    StreamingResponse,
    start_http_server,
)
from .jobs import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    Chunk,
    Job,
    JobRequest,
    SubmitError,
    execute_chunk,
)
from .queue import FairShareQueue

logger = logging.getLogger(__name__)

#: How long a remote worker may sit on a leased chunk before the
#: reaper takes it back.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Poll cadence for results claimed by *another* service process
#: sharing the store.
EXTERNAL_POLL_SECONDS = 0.2

#: Segments retained per job for trace stitching; beyond it incoming
#: segments are dropped (and counted) — one pathological job cannot
#: hold the server's memory hostage.
MAX_JOB_SEGMENTS = 512

#: Finished jobs that keep their executors' segments; an older job's
#: trace keeps only the server's own segment and counts the evicted
#: ones as dropped, so retained spans stay bounded however many jobs
#: the server runs.
MAX_TRACED_JOBS = 32


def _pool_warmup() -> None:
    """No-op task whose submission forces the pool to spawn all of its
    worker processes (module-level so it pickles)."""
    return None


class CampaignService:
    """See the module docstring.  Construct, then :meth:`run` (blocking)
    or :func:`start_in_thread` (embedded)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321,
                 workers: int = 1, out_dir=None, store_dir=None,
                 max_pending_points: Optional[int] = 100_000,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 tenant_weights: Optional[Dict[str, float]] = None,
                 fsync: bool = False, verify: str = "auto",
                 metrics: Optional[MetricsRegistry] = None,
                 observe: str = "on"):
        self.host = host
        self.port = port
        self.workers = max(0, int(workers))
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.lease_timeout = float(lease_timeout)
        if verify not in ("auto", "on", "off"):
            raise ValueError("verify must be 'auto', 'on' or 'off'")
        self.verify = verify
        if observe not in ("on", "off"):
            raise ValueError("observe must be 'on' or 'off'")
        #: fleet observability master switch: trace contexts, stitched
        #: job traces and worker telemetry collection (per-job opt-out
        #: via the submit payload's ``observe: false``)
        self.observe = observe == "on"
        #: merged view of every worker telemetry segment's metrics;
        #: ``GET /metrics`` composes it with the live registry
        self.fleet = MetricsAggregator()
        self.owner = f"svc-{os.getpid()}-{uuid.uuid4().hex[:8]}"

        from .store import SharedResultStore
        self.store = (SharedResultStore(store_dir, fsync=fsync)
                      if store_dir is not None else None)
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.queue = FairShareQueue(max_depth=max_pending_points,
                                    weights=tenant_weights)
        self.jobs: Dict[str, Job] = {}
        self.chunks: Dict[str, Chunk] = {}
        #: cache key -> (job_id, index) computing that point in this
        #: process (the in-process claim table)
        self._leader: Dict[str, Tuple[str, int]] = {}
        #: cache key -> [(job_id, index), ...] waiting for that key's
        #: result: from this process' leader when the key is in
        #: ``_leader``, else from another process sharing the store
        self._waiters: Dict[str, List[Tuple[str, int]]] = {}
        self._appenders: Dict[str, JsonlAppender] = {}
        self._job_seq = 0
        #: every worker name that ever leased (its gauge then reads 0,
        #: not its last value, once it holds no lease)
        self._seen_workers: set = set()
        #: finished traced jobs still holding executor segments, oldest
        #: first (at most MAX_TRACED_JOBS)
        self._traced_jobs: deque[Job] = deque()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._tasks: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._stopping: Optional[asyncio.Event] = None
        self.ready = threading.Event()

        from ..verify import ruleset_version
        self._ruleset = ruleset_version()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Serve until :meth:`stop` (blocking; owns its event loop)."""
        asyncio.run(self.serve())

    async def serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stopping = asyncio.Event()
        if self.workers > 0:
            self._make_pool()
            # fork the workers NOW, before any client socket exists:
            # lazily-forked workers would inherit duplicates of open
            # connection fds and hold them for the pool's lifetime
            await self._loop.run_in_executor(self._pool, _pool_warmup)
        server = await start_http_server(self._router(), self.host,
                                         self.port)
        if self.port == 0:
            self.port = server.sockets[0].getsockname()[1]
        logger.info("campaign service listening on %s:%d (%d local "
                    "worker(s))", self.host, self.port, self.workers)
        for _ in range(self.workers):
            self._spawn(self._pool_slot())
        self._spawn(self._reaper_loop())
        if self.store is not None:
            self._spawn(self._external_poll_loop())
        self.ready.set()
        try:
            await self._stopping.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._tasks):
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
            for appender in self._appenders.values():
                appender.close()
            self._appenders.clear()

    def stop(self) -> None:
        """Thread-safe shutdown request."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(
                lambda: self._stopping and self._stopping.set())

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _make_pool(self) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=_fork_context())

    def _spawn(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _enqueue(self, chunks: List[Chunk], force: bool = True) -> None:
        """Queue ``chunks`` and wake the idle pool slots.  Only
        admission passes ``force=False``: admitted work (retries,
        requeues, promotions) is never refused by backpressure."""
        for chunk in chunks:
            self.chunks[chunk.chunk_id] = chunk
            self.queue.push(chunk, force=force)
        if self._wake is not None:
            self._wake.set()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _router(self) -> Router:
        router = Router()
        router.add("GET", "/v1/healthz", self._h_health)
        router.add("POST", "/v1/jobs", self._h_submit)
        router.add("GET", "/v1/jobs", self._h_list_jobs)
        router.add("GET", "/v1/jobs/(?P<job_id>[^/]+)", self._h_status)
        router.add("POST", "/v1/jobs/(?P<job_id>[^/]+)/cancel",
                   self._h_cancel)
        router.add("GET", "/v1/jobs/(?P<job_id>[^/]+)/stream",
                   self._h_stream)
        router.add("GET", "/v1/jobs/(?P<job_id>[^/]+)/results",
                   self._h_results)
        router.add("GET", "/v1/jobs/(?P<job_id>[^/]+)/telemetry",
                   self._h_telemetry)
        router.add("GET", "/v1/jobs/(?P<job_id>[^/]+)/trace",
                   self._h_trace)
        router.add("GET", "/v1/tenants/(?P<tenant>[^/]+)/usage",
                   self._h_usage)
        router.add("GET", "/v1/metrics", self._h_metrics)
        router.add("GET", "/metrics", self._h_prometheus)
        router.add("POST", "/v1/workers/lease", self._h_lease)
        router.add("POST", "/v1/workers/complete", self._h_complete)
        return router

    def _job_or_404(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job: {job_id}")
        return job

    # ------------------------------------------------------------------
    # fleet observability: the server's own trace segment per job
    # ------------------------------------------------------------------

    def _start_trace(self, job: Job) -> None:
        """Mint the job's trace context and open the server's own
        telemetry segment (segment 0 of the stitched trace).

        Server events are recorded with *absolute* wall-clock
        timestamps under ``epoch_unix = 0.0`` — the stitcher re-bases
        every segment onto the earliest event, so server and worker
        planes land on one timeline regardless of each process'
        ``perf_counter`` epoch.
        """
        job.trace_context = TraceContext.mint()
        job.segments.append({
            "traceparent": job.trace_context.to_traceparent(),
            "worker": "server",
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "epoch_unix": 0.0,
            "spans": [],
            "spans_dropped": 0,
            "metrics": None,
        })

    def _server_event(self, job: Job, kind: str, name: str,
                      track: str, start_wall: float, duration: float,
                      **attrs: Any) -> None:
        if job.trace_context is None or not job.segments:
            return
        segment = job.segments[0]
        if len(segment["spans"]) >= DEFAULT_SEGMENT_SPANS:
            segment["spans_dropped"] += 1
            return
        segment["spans"].append(
            [kind, name, track, start_wall, duration, attrs or None])

    def _add_segment(self, job: Job, payload: Any) -> None:
        """Adopt an executor's telemetry segment: keep its spans for
        stitching (bounded) and fold its metrics into the fleet view."""
        segment = coerce_segment(payload)
        if segment is None:
            return
        if segment["metrics"] is not None:
            self.fleet.add(segment["metrics"])
        if job.trace_context is None:
            return
        if len(job.segments) >= MAX_JOB_SEGMENTS or (
                job.terminal and job not in self._traced_jobs):
            job.segments_dropped += 1
            return
        job.segments.append(segment)

    def _retain_trace(self, job: Job) -> None:
        """Keep executor segments for the MAX_TRACED_JOBS most recently
        finished jobs only; evicted segments count as dropped."""
        self._traced_jobs.append(job)
        while len(self._traced_jobs) > MAX_TRACED_JOBS:
            oldest = self._traced_jobs.popleft()
            oldest.segments_dropped += len(oldest.segments) - 1
            del oldest.segments[1:]

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    async def _h_submit(self, request: Request) -> Response:
        try:
            job_request = JobRequest.from_payload(request.json())
        except SubmitError as exc:
            raise HttpError(400, str(exc))
        job = self._submit(job_request)
        return Response.json(job.status(), status=201)

    def _submit(self, request: JobRequest) -> Job:
        """Admission: resolve → customize → verify → plan → classify →
        enqueue.  Runs synchronously on the event loop, so admission of
        concurrent submissions is serialized and race-free."""
        try:
            campaign = resolve_spec_ref(request.spec)
        except SpecError as exc:
            raise HttpError(400, f"cannot resolve spec: {exc}")
        campaign = self._customize(campaign, request)
        records = plan_records(campaign)
        self._verify_submit(campaign, records)

        code_version = campaign.resolved_code_version()
        keys = [cache_key(campaign.name, record.params, code_version,
                          self._ruleset)
                for record in records]

        # classify every point before mutating any shared state, so a
        # 429 leaves no residue
        cached_hits: List[Tuple[int, RunRecord]] = []
        wait: List[Tuple[int, str]] = []
        dispatch: List[Tuple[int, str]] = []
        seen_in_job: set = set()
        for index, key in enumerate(keys):
            hit = self.store.get(key) if self.store is not None \
                else None
            if hit is not None and hit.status == "ok":
                cached_hits.append((index, hit))
            elif key in self._leader or key in self._waiters \
                    or key in seen_in_job \
                    or (self.store is not None and
                        self.store.claimed_elsewhere(key, self.owner)):
                wait.append((index, key))
            else:
                dispatch.append((index, key))
                seen_in_job.add(key)
        if not self.queue.has_capacity(len(dispatch)):
            self.metrics.counter("service.jobs.rejected").inc()
            raise HttpError(
                429, "queue full",
                pending=self.queue.depth(),
                limit=self.queue.max_depth,
                requested=len(dispatch))

        self._job_seq += 1
        job_id = f"j{self._job_seq:05d}"
        job = Job(job_id, request, campaign, records, keys,
                  code_version)
        path, _ = split_spec_ref(request.spec)
        job.exec_ref = f"{path}::{campaign.name}"
        self.jobs[job_id] = job
        if self.observe and request.observe:
            self._start_trace(job)
            self._server_event(job, INSTANT, "job.submit", "jobs",
                               time.time(), 0.0, job_id=job_id,
                               tenant=request.tenant,
                               campaign=campaign.name)
        self._open_appender(job)
        self.metrics.counter("service.jobs.submitted").inc()
        self.metrics.counter("service.jobs.submitted",
                             tenant=request.tenant).inc()

        for index, hit in cached_hits:
            self._finalize_point(job, index, hit, "cached")
        for index, key in wait:
            self._waiters.setdefault(key, []).append((job_id, index))
        tasks = []
        for index, key in dispatch:
            if self.store is not None:
                self.store.try_claim(key, self.owner)
            self._leader[key] = (job_id, index)
            tasks.append((index, records[index].params, 1))
        if tasks:
            self._enqueue(job.make_chunks(tasks, request.chunk_size),
                          force=False)
        elif not job.terminal and job.counts["completed"] \
                == job.counts["total"]:
            self._finish_job(job)
        return job

    @staticmethod
    def _customize(campaign: Campaign,
                   request: JobRequest) -> Campaign:
        """Apply submit-time overrides on a copy of the shared campaign
        object (spec modules are cached process-wide; never mutate)."""
        import dataclasses

        changes: Dict[str, Any] = {}
        if request.root_seed is not None:
            changes["root_seed"] = request.root_seed
        if request.limit is not None:
            changes["space"] = FixedPoints(
                campaign.points()[:request.limit])
        if not changes:
            return campaign
        return dataclasses.replace(campaign, **changes)

    def _verify_submit(self, campaign: Campaign,
                       records: List[RunRecord]) -> None:
        """Static pre-flight on a sample point: a spec whose model the
        verifier rejects is refused with a structured 422 before any
        queue slot or worker is spent.  (Per-point pre-flight remains
        the in-process runner's job; the service checks the first
        planned point as the spec's representative.)  ``run``-style
        campaigns expose no model, but their callable still gets the
        behavioral CODE lint (determinism, pickle safety)."""
        if self.verify == "off" or not records:
            return
        from ..verify import verify_callables, verify_model

        if campaign.build is None:
            if campaign.run is None:
                return
            report = verify_callables(
                [(f"{campaign.name}.run", campaign.run)],
                target=campaign.name)
            if not report.ok:
                self.metrics.counter("service.jobs.rejected").inc()
                raise HttpError(
                    422, "static verification failed",
                    campaign=campaign.name,
                    diagnostics=report.to_dict(),
                )
            return

        extra_code = [(f"{campaign.name}.build", campaign.build)]
        if campaign.metrics is not None:
            extra_code.append(
                (f"{campaign.name}.metrics", campaign.metrics))
        try:
            simulator = campaign.build(dict(records[0].params))
            report = verify_model(simulator.top,
                                  extra_code=extra_code)
        except Exception:
            # a crashing build is an *execution* failure — dispatch it
            # so the worker classifies it, exactly like CampaignRunner
            return
        if not report.ok:
            self.metrics.counter("service.jobs.rejected").inc()
            raise HttpError(
                422, "static verification failed",
                campaign=campaign.name,
                diagnostics=report.to_dict())

    # ------------------------------------------------------------------
    # point finalization, dedup and streaming
    # ------------------------------------------------------------------

    def _open_appender(self, job: Job) -> None:
        if self.out_dir is None:
            return
        directory = self.out_dir / "jobs" / job.id
        directory.mkdir(parents=True, exist_ok=True)
        self._appenders[job.id] = JsonlAppender(
            directory / "records.jsonl")

    def _finalize_point(self, job: Job, index: int, result: RunRecord,
                        source: str) -> None:
        """Complete one point of a live job from ``result``: computed
        for it (``executed``), computed for another job's point
        (``dedup``) or read from the store (``cached``)."""
        record = job.records[index]
        if job.terminal or record.status != "pending":
            return  # ended job, or late duplicate: first one won
        record.status = result.status
        record.metrics = dict(result.metrics or {})
        record.error = result.error
        record.failure_kind = result.failure_kind
        record.attempts = result.attempts
        record.wall_time += result.wall_time
        record.metrics_telemetry = result.metrics_telemetry
        record.cached = source in ("cached", "dedup")
        job.counts["completed"] += 1
        job.counts["ok" if record.status == "ok" else "failed"] += 1
        counter = {"cached": "cached", "dedup": "deduped",
                   "executed": "executed"}[source]
        job.counts[counter] += 1
        tenant = job.request.tenant
        self.metrics.counter(f"service.points.{counter}").inc()
        self.metrics.counter(f"service.points.{counter}",
                             tenant=tenant).inc()
        if record.status == "failed":
            self.metrics.counter("service.points.failed").inc()
            self.metrics.counter("service.points.failed",
                                 tenant=tenant).inc()
            # per-kind detail lives under its own family: folding the
            # failure kind into service.points.* would collide with
            # the exposition's kind="failed" discriminator label
            self.metrics.counter(
                "service.point.failures", tenant=tenant,
                kind=record.failure_kind or "unknown").inc()
        if source == "executed":
            self.metrics.histogram(
                "service.point.seconds", bounds=LATENCY_BOUNDS,
                tenant=tenant).observe(float(result.wall_time))
        else:
            self._server_event(job, INSTANT, "cache.hit", "cache",
                              time.time(), 0.0, index=index,
                              source=source)

        entry = record.to_dict()
        entry["seq"] = len(job.completed)
        entry["source"] = source
        job.completed.append(entry)
        appender = self._appenders.get(job.id)
        if appender is not None:
            appender.append(entry)
        for subscriber in list(job.subscribers):
            subscriber.put_nowait(entry)
        if job.counts["completed"] == job.counts["total"]:
            self._finish_job(job)

    def _finish_job(self, job: Job, state: str = DONE) -> None:
        job.state = state
        if job.started_monotonic is None:
            # fully served from cache/dedup: the whole lifetime was
            # waiting on others' work; run time is effectively zero
            self._mark_started(job)
        job.finished_monotonic = time.monotonic()
        run_seconds = job.run_seconds()
        if run_seconds is not None:
            self.metrics.histogram(
                "job.run_seconds",
                bounds=LATENCY_BOUNDS).observe(run_seconds)
        self._server_event(job, SPAN, "job.run", "jobs",
                           job.submitted_at,
                           time.time() - job.submitted_at,
                           job_id=job.id,
                           tenant=job.request.tenant, state=state,
                           **{key: job.counts[key]
                              for key in ("total", "cached",
                                          "deduped", "executed",
                                          "failed")})
        self.metrics.counter(
            "service.jobs.cancelled" if state == CANCELLED
            else "service.jobs.completed").inc()
        if job.trace_context is not None:
            self._retain_trace(job)
        appender = self._appenders.pop(job.id, None)
        if appender is not None:
            appender.close()
        for subscriber in list(job.subscribers):
            subscriber.put_nowait(None)

    def _mark_started(self, job: Job) -> None:
        if job.started_monotonic is None:
            job.started_monotonic = time.monotonic()
            if job.state == QUEUED:
                job.state = RUNNING
            wait = job.wait_seconds()
            if wait is not None:
                self.metrics.histogram(
                    "job.wait_seconds",
                    bounds=LATENCY_BOUNDS).observe(wait)

    def _on_point_outcome(self, job: Job,
                          outcome: Dict[str, Any]) -> None:
        index = int(outcome["index"])
        if not 0 <= index < len(job.records):
            return
        key = job.keys[index]
        record = job.records[index]
        status = outcome.get("status", "failed")
        attempt = int(outcome.get("attempt", 1))
        failure_kind = outcome.get("failure_kind")

        if status == "failed" and failure_kind != "permanent" \
                and attempt <= job.request.retries \
                and not job.terminal:
            record.wall_time += float(outcome.get("wall_time", 0.0))
            self._enqueue(job.make_chunks(
                [(index, record.params, attempt + 1)], 1))
            self.metrics.counter("service.points.retried").inc()
            return

        result = RunRecord(
            index=index, params=record.params, seed=record.seed,
            status=status, metrics=dict(outcome.get("metrics") or {}),
            error=outcome.get("error"), failure_kind=failure_kind,
            wall_time=float(outcome.get("wall_time", 0.0)),
            attempts=attempt,
            metrics_telemetry=outcome.get("metrics_telemetry"))
        self._finalize_point(job, index, result, "executed")
        if self.store is not None:
            self.store.publish(key, result, owner=self.owner)
        if self._leader.get(key) == (job.id, index):
            del self._leader[key]
        for waiter_id, waiter_index in self._waiters.pop(key, []):
            self._finalize_point(self.jobs[waiter_id], waiter_index,
                                 result, "dedup")

    def _observe_queue_depth(self) -> None:
        """Refresh the queue and lease gauges (at scrape time)."""
        self.metrics.gauge("queue.depth").set(self.queue.depth())
        for tenant in {job.request.tenant
                       for job in self.jobs.values()}:
            self.metrics.gauge("queue.depth", tenant=tenant).set(
                self.queue.depth(tenant))
        # worker liveness: active leases per executor name, local pool
        # slots included
        leases: Dict[str, int] = {}
        for chunk in self.chunks.values():
            if chunk.state == "leased":
                leases[chunk.worker] = leases.get(chunk.worker, 0) + 1
        for worker in self._seen_workers:
            self.metrics.gauge("workers.active_leases",
                               worker=worker).set(
                leases.get(worker, 0))

    # ------------------------------------------------------------------
    # the chunk lifecycle: lease, then complete or drop
    # ------------------------------------------------------------------

    def _lease(self, worker: str, timeout: Optional[float]
               ) -> Optional[Tuple[Job, Chunk]]:
        """Take the next chunk off the queue for ``worker`` (``None``
        when the queue is empty).  A local pool slot passes no
        ``timeout``: its lease never expires.  A chunk whose job has
        ended is dropped on the way."""
        while (chunk := self.queue.pop()) is not None:
            job = self.jobs[chunk.job_id]
            if job.terminal:
                self._drop(chunk)
                continue
            chunk.lease(worker, timeout)
            self._seen_workers.add(worker)
            self._mark_started(job)
            wait = max(0.0, chunk.started_wall - chunk.created_wall)
            self.metrics.histogram(
                "service.queue.wait_seconds", bounds=LATENCY_BOUNDS,
                tenant=chunk.tenant).observe(wait)
            self._server_event(job, SPAN, "queue.wait", "queue",
                               chunk.created_wall, wait,
                               chunk=chunk.chunk_id, tenant=chunk.tenant)
            self.metrics.counter("service.chunks.leased").inc()
            return job, chunk
        return None

    def _complete_chunk(self, chunk_id: str,
                        outcomes: List[Dict[str, Any]],
                        worker: str,
                        telemetry: Any = None) -> bool:
        """End a chunk with its executor's outcomes; ``False`` when the
        chunk has already ended (a duplicate or late completion)."""
        chunk = self.chunks.pop(chunk_id, None)
        if chunk is None:
            self.metrics.counter("service.chunks.duplicate").inc()
            return False
        chunk.state = "done"
        self.metrics.counter("service.chunks.completed").inc()
        job = self.jobs[chunk.job_id]
        if telemetry is not None:
            self._add_segment(job, telemetry)
        if chunk.started_wall:
            self._server_event(
                job, SPAN, "chunk.lease", "leases",
                chunk.started_wall,
                max(0.0, time.time() - chunk.started_wall),
                chunk=chunk.chunk_id, worker=worker,
                tasks=len(chunk.tasks))
        returned = set()
        for outcome in outcomes:
            if not isinstance(outcome, dict) or "index" not in outcome:
                continue
            returned.add(int(outcome["index"]))
            self._on_point_outcome(job, outcome)
        if job.terminal:
            # the keys of the points it did not return go to waiters
            self._drop(chunk)
            return True
        missing = [(index, params, attempt)
                   for index, params, attempt in chunk.tasks
                   if index not in returned
                   and job.records[index].status == "pending"]
        if missing:
            self._enqueue(job.make_chunks(missing, len(missing)))
            self.metrics.counter("service.chunks.requeued").inc()
        return True

    def _drop(self, chunk: Chunk) -> None:
        """End a chunk without outcomes, because its job has ended:
        each key the job still leads goes to its first live waiter."""
        chunk.state = "done"
        self.chunks.pop(chunk.chunk_id, None)
        job = self.jobs[chunk.job_id]
        for index, _params, _attempt in chunk.tasks:
            key = job.keys[index]
            if self._leader.get(key) == (job.id, index):
                self._promote(key)

    def _promote(self, key: str) -> None:
        """Make the first live waiter of ``key`` its leader and queue
        that point; the others keep waiting.  With no live waiter the
        key is released, store claim included."""
        self._leader.pop(key, None)
        live = [(job_id, index)
                for job_id, index in self._waiters.pop(key, [])
                if not (job := self.jobs[job_id]).terminal
                and job.records[index].status == "pending"]
        if not live:
            if self.store is not None:
                self.store.release(key, owner=self.owner)
            return
        job_id, index = live[0]
        job = self.jobs[job_id]
        if self.store is not None:
            self.store.try_claim(key, self.owner)
        self._leader[key] = (job_id, index)
        if len(live) > 1:
            self._waiters[key] = live[1:]
        self._enqueue(job.make_chunks(
            [(index, job.records[index].params, 1)], 1))

    # ------------------------------------------------------------------
    # executors: local pool slots and remote pull-workers
    # ------------------------------------------------------------------

    async def _pool_slot(self) -> None:
        """One local executor: lease a chunk, run it on the fork pool,
        complete it — what a remote worker does over HTTP."""
        while True:
            leased = self._lease("local", None)
            if leased is None:
                self._wake.clear()
                await self._wake.wait()
                continue
            job, chunk = leased
            pool = self._pool
            try:
                result = await self._loop.run_in_executor(
                    pool, execute_chunk, job.exec_ref, chunk.tasks,
                    job.request.timeout, chunk.traceparent, "pool")
            except Exception as exc:
                logger.exception("local pool failed on chunk %s",
                                 chunk.chunk_id)
                # a broken pool fails every future submitted to it: the
                # first slot to see that rebuilds it, the others do not
                if pool is self._pool:
                    pool.shutdown(wait=False, cancel_futures=True)
                    self._make_pool()
                result = {"telemetry": None, "outcomes": [
                    {"index": index, "attempt": attempt,
                     "status": "failed", "metrics": {},
                     "error": f"worker pool failure: "
                              f"{type(exc).__name__}: {exc}",
                     "failure_kind": "retryable", "diagnostic": None,
                     "metrics_telemetry": None, "wall_time": 0.0}
                    for index, _params, attempt in chunk.tasks]}
            self._complete_chunk(chunk.chunk_id, result["outcomes"],
                                 worker="local",
                                 telemetry=result["telemetry"])

    async def _h_lease(self, request: Request) -> Response:
        payload = request.json()
        leased = self._lease(str(payload.get("worker") or "remote"),
                             self.lease_timeout)
        if leased is None:
            return Response.no_content()
        job, chunk = leased
        return Response.json({
            "job_id": job.id,
            "chunk_id": chunk.chunk_id,
            "spec": job.exec_ref,
            "tasks": [[index, params, attempt]
                      for index, params, attempt in chunk.tasks],
            "timeout": job.request.timeout,
            "lease_timeout": self.lease_timeout,
            "traceparent": chunk.traceparent,
        })

    async def _h_complete(self, request: Request) -> Response:
        payload = request.json()
        chunk_id = payload.get("chunk_id")
        outcomes = payload.get("outcomes")
        if not chunk_id or not isinstance(outcomes, list):
            raise HttpError(400,
                            "complete needs chunk_id and outcomes[]")
        accepted = self._complete_chunk(
            str(chunk_id), outcomes,
            worker=str(payload.get("worker") or "?"),
            telemetry=payload.get("telemetry"))
        return Response.json({"accepted": accepted})

    async def _reaper_loop(self) -> None:
        cadence = max(0.05, min(self.lease_timeout / 4, 1.0))
        while not self._stopping.is_set():
            await asyncio.sleep(cadence)
            now = time.monotonic()
            for chunk in [chunk for chunk in self.chunks.values()
                          if chunk.expired(now)]:
                if self.jobs[chunk.job_id].terminal:
                    self._drop(chunk)
                    continue
                logger.warning(
                    "lease expired on chunk %s (worker %s); "
                    "re-queueing", chunk.chunk_id, chunk.worker)
                chunk.requeue()
                self._enqueue([chunk])
                self.metrics.counter("service.chunks.requeued").inc()

    async def _external_poll_loop(self) -> None:
        """Resolve keys waited on here but led by *another* service
        process sharing the store: adopt its published result, or
        promote a waiter once its claim is gone without one."""
        while not self._stopping.is_set():
            await asyncio.sleep(EXTERNAL_POLL_SECONDS)
            for key in [key for key in self._waiters
                        if key not in self._leader]:
                hit = self.store.get(key)
                if hit is not None and hit.status == "ok":
                    for job_id, index in self._waiters.pop(key):
                        self._finalize_point(self.jobs[job_id], index,
                                             hit, "cached")
                elif not self.store.claimed_elsewhere(key, self.owner):
                    self._promote(key)

    # ------------------------------------------------------------------
    # status / stream / results / cancel
    # ------------------------------------------------------------------

    async def _h_health(self, request: Request) -> Response:
        return Response.json({
            "ok": True, "version": _VERSION,
            "jobs": len(self.jobs),
            "queue_depth": self.queue.depth(),
            "local_workers": self.workers,
        })

    async def _h_list_jobs(self, request: Request) -> Response:
        tenant = request.query.get("tenant")
        jobs = [job.status() for job in self.jobs.values()
                if tenant is None or job.request.tenant == tenant]
        return Response.json({"jobs": jobs})

    async def _h_status(self, request: Request,
                        job_id: str) -> Response:
        return Response.json(self._job_or_404(job_id).status())

    async def _h_cancel(self, request: Request,
                        job_id: str) -> Response:
        job = self._job_or_404(job_id)
        if not job.terminal:
            self._cancel(job)
        return Response.json(job.status())

    def _cancel(self, job: Job) -> None:
        """Discard the job's queued chunks, end it, then drop its
        unleased chunks.  Leased chunks run on: their results still
        serve other jobs' waiters and the store."""
        self.queue.discard_job(job.id)
        self._finish_job(job, state=CANCELLED)
        for chunk in [chunk for chunk in self.chunks.values()
                      if chunk.job_id == job.id
                      and chunk.state == "queued"]:
            self._drop(chunk)

    async def _h_stream(self, request: Request,
                        job_id: str) -> StreamingResponse:
        job = self._job_or_404(job_id)
        sse = (request.query.get("sse") == "1"
               or "text/event-stream"
               in request.headers.get("accept", ""))
        subscriber: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(subscriber)
        # no await between registration and snapshot: the two views
        # tile the record sequence exactly (no gap, no overlap)
        snapshot = list(job.completed)
        terminal = job.terminal

        def encode(entry: Dict[str, Any]) -> bytes:
            from ..campaign.records import canonical_json
            line = canonical_json(entry)
            if sse:
                return f"data: {line}\n\n".encode()
            return (line + "\n").encode()

        async def gen():
            try:
                for entry in snapshot:
                    yield encode(entry)
                if not terminal:
                    while True:
                        entry = await subscriber.get()
                        if entry is None:
                            break
                        yield encode(entry)
                if sse:
                    yield b"event: end\ndata: {}\n\n"
            finally:
                if subscriber in job.subscribers:
                    job.subscribers.remove(subscriber)

        content_type = ("text/event-stream" if sse
                        else "application/x-ndjson")
        return StreamingResponse(gen(), content_type=content_type)

    def _results_view(self, job: Job) -> CampaignResults:
        return CampaignResults(
            [record for record in job.records
             if record.status != "pending"])

    async def _h_results(self, request: Request,
                         job_id: str) -> Response:
        job = self._job_or_404(job_id)
        results = self._results_view(job)
        payload: Dict[str, Any] = {
            "id": job.id,
            "state": job.state,
            "summary": results.summary(),
            "counts": dict(job.counts),
            "fingerprint": (results.fingerprint()
                            if job.state == DONE else None),
            "metrics": {},
        }
        ok = results.ok()
        for name in results.metric_names():
            values = ok.metric(name)
            if len(values):
                payload["metrics"][name] = {
                    "mean": float(values.mean()),
                    "min": float(values.min()),
                    "max": float(values.max()),
                    "count": int(len(values)),
                }
        return Response.json(payload)

    async def _h_telemetry(self, request: Request,
                           job_id: str) -> Response:
        job = self._job_or_404(job_id)
        merged: Dict[str, Dict[str, float]] = {}
        points = 0
        for record in job.records:
            snapshot = record.metrics_telemetry
            if not snapshot:
                continue
            points += 1
            for key, value in snapshot.items():
                if not isinstance(value, (int, float)):
                    continue
                slot = merged.setdefault(
                    key, {"sum": 0.0, "count": 0.0})
                slot["sum"] += float(value)
                slot["count"] += 1.0
        telemetry = {
            key: {"sum": slot["sum"], "count": int(slot["count"]),
                  "mean": slot["sum"] / slot["count"]}
            for key, slot in merged.items()}
        return Response.json({
            "id": job.id,
            "points_with_telemetry": points,
            "telemetry": telemetry,
        })

    async def _h_metrics(self, request: Request) -> Response:
        self._observe_queue_depth()
        return Response.json(self.metrics.to_dict())

    # ------------------------------------------------------------------
    # fleet observability endpoints
    # ------------------------------------------------------------------

    async def _h_prometheus(self, request: Request) -> Response:
        """Prometheus text exposition of the fleet-merged metrics:
        the server's live registry composed (non-destructively) with
        every worker segment's registry collected so far."""
        self._observe_queue_depth()
        text = prometheus_text(
            self.fleet.merged(self.metrics.to_dict()))
        return Response(
            200, text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8")

    async def _h_trace(self, request: Request,
                       job_id: str) -> Response:
        job = self._job_or_404(job_id)
        if job.trace_context is None:
            raise HttpError(
                404, f"no trace for job {job_id} (observability is "
                     "off for this job)")
        trace = stitch_job_trace(job.trace_context.to_traceparent(),
                                 job.segments)
        other = trace["otherData"]
        other["job"] = job.id
        other["state"] = job.state
        other["dropped_segments"] = job.segments_dropped
        return Response.json(trace)

    async def _h_usage(self, request: Request,
                       tenant: str) -> Response:
        """Per-tenant SLO accounting, assembled from the tenant-labeled
        counters/histograms this server maintains at finalization."""
        jobs = [job for job in self.jobs.values()
                if job.request.tenant == tenant]
        if not jobs:
            raise HttpError(404, f"no jobs for tenant: {tenant}")

        def counter_value(name: str, **labels: Any) -> float:
            metric = self.metrics.get(name, **labels)
            return float(metric.value) if metric is not None else 0.0

        points = {kind: counter_value(f"service.points.{kind}",
                                      tenant=tenant)
                  for kind in ("executed", "cached", "deduped",
                               "failed", )}
        completed = (points["executed"] + points["cached"]
                     + points["deduped"])
        hits = points["cached"] + points["deduped"]
        failure_kinds: Dict[str, float] = {}
        for key in self.metrics.names():
            name, labels = split_metric_key(key)
            if name == "service.point.failures" \
                    and labels.get("tenant") == tenant \
                    and "kind" in labels:
                failure_kinds[labels["kind"]] = counter_value(
                    name, **labels)
        histograms = {}
        for short, name in (("queue_wait_seconds",
                             "service.queue.wait_seconds"),
                            ("point_seconds",
                             "service.point.seconds")):
            metric = self.metrics.get(name, tenant=tenant)
            histograms[short] = (metric.to_dict()
                                 if metric is not None else None)
        return Response.json({
            "tenant": tenant,
            "jobs": {
                "total": len(jobs),
                "by_state": {
                    state: sum(1 for job in jobs
                               if job.state == state)
                    for state in (QUEUED, RUNNING, DONE, CANCELLED)},
            },
            "points": points,
            "cache_hit_ratio": (hits / completed) if completed else 0.0,
            "failure_kinds": failure_kinds,
            "queue_depth": self.queue.depth(tenant),
            **histograms,
        })


# ----------------------------------------------------------------------
# embedding helper
# ----------------------------------------------------------------------

class ServiceHandle:
    """A service running on a daemon thread (tests, notebooks)."""

    def __init__(self, service: CampaignService,
                 thread: threading.Thread):
        self.service = service
        self.thread = thread

    @property
    def url(self) -> str:
        return self.service.url

    def stop(self, timeout: float = 5.0) -> None:
        self.service.stop()
        self.thread.join(timeout=timeout)


def start_in_thread(**kwargs) -> ServiceHandle:
    """Start a :class:`CampaignService` on a daemon thread and block
    until it is accepting connections.  ``port=0`` picks a free port
    (read it back from ``handle.service.port``)."""
    service = CampaignService(**kwargs)
    thread = threading.Thread(target=service.run,
                              name="campaign-service", daemon=True)
    thread.start()
    if not service.ready.wait(timeout=10.0):
        raise RuntimeError("campaign service failed to start")
    return ServiceHandle(service, thread)
