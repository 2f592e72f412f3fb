"""Job, chunk and submission models for the campaign service.

A *job* is one submitted campaign: a spec reference, a tenant, a
priority, and the planned (seeded) records of every point.  A *chunk*
is the dispatch unit — a slice of a job's pending points leased to a
local pool slot or a remote worker.  Both run the same entry point,
:func:`execute_chunk`, which re-resolves the campaign from its textual
spec reference inside the worker process — the wire (and the pickle
stream) carries only strings and parameter dicts, never live callables
or simulators.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..campaign.loader import resolve_spec_ref
from ..campaign.records import RunRecord
from ..campaign.runner import (
    RunTask,
    _execute_chunk,
    outcome_to_json,
)
from ..campaign.spec import Campaign
from ..observe import Telemetry
from ..observe.fleet import DEFAULT_SEGMENT_SPANS, telemetry_payload
from .queue import PRIORITIES

#: Job lifecycle states.
QUEUED, RUNNING, DONE, CANCELLED = ("queued", "running", "done",
                                    "cancelled")

#: Default points per chunk when the submitter does not choose one:
#: small enough that fair-share interleaving is fine-grained, large
#: enough to amortize process round-trips.
DEFAULT_CHUNK_SIZE = 8


class SubmitError(Exception):
    """A submission is structurally invalid (maps to HTTP 400)."""


@dataclass
class JobRequest:
    """Parsed, validated submit payload."""

    spec: str
    tenant: str = "default"
    priority: str = "normal"
    root_seed: Optional[int] = None
    limit: Optional[int] = None
    timeout: Optional[float] = None
    retries: int = 1
    chunk_size: Optional[int] = None
    description: str = ""
    #: per-job telemetry opt-out; effective only when the *server* has
    #: observability on (``serve --observe on``, the default)
    observe: bool = True

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobRequest":
        if not isinstance(payload, dict):
            raise SubmitError("submit body must be a JSON object")
        spec = payload.get("spec")
        if not spec or not isinstance(spec, str):
            raise SubmitError(
                "submit needs a 'spec' reference "
                "(\"path/to/spec.py\" or \"spec.py::campaign-name\")")
        request = cls(spec=spec)
        request.tenant = str(payload.get("tenant") or "default")
        request.priority = str(payload.get("priority") or "normal")
        if request.priority not in PRIORITIES:
            raise SubmitError(
                f"priority must be one of {list(PRIORITIES)}; "
                f"got {request.priority!r}")
        for name, caster in (("root_seed", int), ("limit", int),
                             ("timeout", float), ("chunk_size", int)):
            value = payload.get(name)
            if value is not None:
                try:
                    setattr(request, name, caster(value))
                except (TypeError, ValueError):
                    raise SubmitError(
                        f"{name} must be a number; got {value!r}")
        if request.limit is not None and request.limit < 1:
            raise SubmitError("limit must be >= 1")
        if request.chunk_size is not None and request.chunk_size < 1:
            raise SubmitError("chunk_size must be >= 1")
        retries = payload.get("retries")
        if retries is not None:
            try:
                request.retries = max(0, int(retries))
            except (TypeError, ValueError):
                raise SubmitError(f"retries must be an int; "
                                  f"got {retries!r}")
        request.description = str(payload.get("description") or "")
        request.observe = bool(payload.get("observe", True))
        return request

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec, "tenant": self.tenant,
            "priority": self.priority, "root_seed": self.root_seed,
            "limit": self.limit, "timeout": self.timeout,
            "retries": self.retries, "chunk_size": self.chunk_size,
            "description": self.description, "observe": self.observe,
        }


@dataclass
class Chunk:
    """One dispatch unit: a slice of a job's pending tasks."""

    chunk_id: str
    job_id: str
    tenant: str
    priority: str
    tasks: List[RunTask]
    state: str = "queued"          # queued | leased | done
    worker: Optional[str] = None
    deadline: Optional[float] = None   # lease expiry (monotonic)
    leases: int = 0
    #: trace context for this dispatch (the job context's child),
    #: carried to executors via the lease payload / pickle stream
    traceparent: Optional[str] = None
    #: wall-clock instants bounding the queue-wait span
    created_wall: float = 0.0
    started_wall: float = 0.0

    def lease(self, worker: str, timeout: Optional[float]) -> None:
        """Hand the chunk to ``worker``; with no ``timeout`` the lease
        never expires (a local pool slot's ends with its future)."""
        self.state = "leased"
        self.worker = worker
        self.deadline = None if timeout is None \
            else time.monotonic() + timeout
        self.leases += 1
        self.started_wall = time.time()

    def requeue(self) -> None:
        self.state = "queued"
        self.worker = None
        self.deadline = None

    def expired(self, now: Optional[float] = None) -> bool:
        return (self.state == "leased" and self.deadline is not None
                and (now or time.monotonic()) > self.deadline)


class Job:
    """One submitted campaign and its live execution state."""

    def __init__(self, job_id: str, request: JobRequest,
                 campaign: Campaign, records: List[RunRecord],
                 keys: List[str], code_version: str):
        self.id = job_id
        self.request = request
        self.campaign = campaign
        #: canonical ``path::name`` reference workers execute by
        self.exec_ref = request.spec
        self.records = records          # index-ordered skeletons
        self.keys = keys                # cache key per record index
        self.code_version = code_version
        self.state = QUEUED
        self.submitted_at = time.time()
        self.started_monotonic: Optional[float] = None
        self.finished_monotonic: Optional[float] = None
        self.created_monotonic = time.monotonic()
        #: completion-ordered list of finalized record dicts, each
        #: tagged with a monotonically increasing ``seq``.
        self.completed: List[Dict[str, Any]] = []
        self.subscribers: List[Any] = []   # asyncio.Queue per stream
        #: fleet-observability state (set by the server at admission):
        #: the job's root trace context and the telemetry segments
        #: collected from every executor, stitched on demand into one
        #: Perfetto trace by ``GET /v1/jobs/{id}/trace``.
        self.trace_context: Optional[Any] = None
        self.segments: List[Dict[str, Any]] = []
        self.segments_dropped = 0
        self.counts: Dict[str, int] = {
            "total": len(records), "completed": 0, "ok": 0,
            "failed": 0, "cached": 0, "deduped": 0, "executed": 0,
        }
        self._chunk_seq = itertools.count(1)

    # -- structure -----------------------------------------------------------

    def next_chunk_id(self) -> str:
        return f"{self.id}/{next(self._chunk_seq)}"

    def make_chunks(self, tasks: List[RunTask],
                    chunk_size: Optional[int]) -> List[Chunk]:
        size = chunk_size or self.request.chunk_size \
            or DEFAULT_CHUNK_SIZE
        now = time.time()
        chunks = [
            Chunk(chunk_id=self.next_chunk_id(), job_id=self.id,
                  tenant=self.request.tenant,
                  priority=self.request.priority,
                  tasks=tasks[i:i + size], created_wall=now)
            for i in range(0, len(tasks), size)
        ]
        if self.trace_context is not None:
            for chunk in chunks:
                chunk.traceparent = \
                    self.trace_context.child().to_traceparent()
        return chunks

    # -- status --------------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, CANCELLED)

    def wait_seconds(self) -> Optional[float]:
        if self.started_monotonic is None:
            return None
        return self.started_monotonic - self.created_monotonic

    def run_seconds(self) -> Optional[float]:
        if self.started_monotonic is None \
                or self.finished_monotonic is None:
            return None
        return self.finished_monotonic - self.started_monotonic

    def status(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "state": self.state,
            "campaign": self.campaign.name,
            "spec": self.request.spec,
            "tenant": self.request.tenant,
            "priority": self.request.priority,
            "submitted_at": self.submitted_at,
            "wait_seconds": self.wait_seconds(),
            "run_seconds": self.run_seconds(),
            **self.counts,
        }


def execute_chunk(spec_ref: str, tasks: List[RunTask],
                  timeout: Optional[float],
                  traceparent: Optional[str] = None,
                  worker: str = "") -> Dict[str, Any]:
    """Worker entry point shared by the local pool and remote hosts.

    Resolves ``spec_ref`` (memoized per process by
    :func:`~repro.core.resolve.load_module_from_path`), executes the
    chunk through the campaign runner's machinery — per-run SIGALRM
    timeout, failure classification, telemetry harvest — and returns
    ``{"outcomes": [...], "telemetry": segment or None}`` with JSON-safe
    outcome dicts.  Tasks arrive as ``(index, params, attempt)`` with
    seeds already planned into ``params``, so every executor produces
    bit-identical metrics for the same task.

    With a ``traceparent`` the chunk runs under a chunk-local
    :class:`~repro.observe.Telemetry` hub (so fork-pool workers, remote
    pull-workers and the server's own threads never share mutable
    telemetry state), recording per-point ``point.run`` spans plus each
    point's simulation spans, and ``telemetry`` is the segment
    (:func:`~repro.observe.fleet.telemetry_payload`) carrying the spans,
    metrics and wall-clock epoch needed for stitching.  Without one, no
    hub is installed and no segment is shipped.
    """
    campaign = resolve_spec_ref(spec_ref)
    target = (campaign.run, campaign.build, campaign.duration,
              campaign.metrics, None)
    tasks = [(int(i), dict(p), int(a)) for i, p, a in tasks]
    telemetry = None
    if traceparent:
        hub = Telemetry(max_events=DEFAULT_SEGMENT_SPANS)
        with hub.tracer.span("chunk.run", track="chunk",
                             tasks=len(tasks)):
            outcomes = _execute_chunk(target, tasks, timeout, hub)
        telemetry = telemetry_payload(hub, worker=worker,
                                      traceparent=traceparent)
    else:
        outcomes = _execute_chunk(target, tasks, timeout)
    return {"outcomes": [outcome_to_json(outcome)
                         for outcome in outcomes],
            "telemetry": telemetry}
