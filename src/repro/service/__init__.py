"""`repro.service` — the asynchronous campaign service.

The paper frames SystemC-AMS as infrastructure for *system-level
exploration*: in production that is many users sweeping many parameter
points concurrently, not one engineer running one transient.  This
package turns the batch campaign engine (:mod:`repro.campaign`) into a
multi-tenant service:

* :class:`~repro.service.server.CampaignService` — asyncio HTTP API:
  submit / status / stream / cancel / results / metrics, plus the
  pull-based worker plane (``/v1/workers/lease`` + ``complete``), which
  remote workers use exactly as the local pool slots lease and
  complete chunks in-process;
* :func:`~repro.service.jobs.execute_chunk` — the one executor entry
  point, run by pool slots and remote workers alike;
* :class:`~repro.service.queue.FairShareQueue` — priority lanes under
  weighted round-robin across tenants, with bounded-depth
  backpressure;
* :class:`~repro.service.store.SharedResultStore` — fleet-wide
  content-addressed results with atomic publication and single-flight
  claims, so identical points submitted by different tenants are
  computed exactly once;
* :func:`~repro.service.worker.run_worker` — a remote worker any host
  can run to join a sweep;
* :class:`~repro.service.client.ServiceClient` — a pure-stdlib
  synchronous client.

Fleet observability (see :mod:`repro.observe.fleet`): jobs carry
W3C-``traceparent``-style trace contexts across the fork and HTTP
boundaries, executors ship telemetry segments back with their
results, and the server serves stitched Perfetto traces
(``GET /v1/jobs/{id}/trace``), Prometheus text exposition
(``GET /metrics``) and per-tenant SLO accounting
(``GET /v1/tenants/{id}/usage``).

Command line: ``python -m repro.service {serve,submit,status,watch,
worker,metrics,trace,usage,top}``.
"""

from .client import ServiceClient, ServiceError
from .jobs import (
    Job,
    JobRequest,
    SubmitError,
    execute_chunk,
)
from .queue import PRIORITIES, FairShareQueue, QueueFull
from .server import CampaignService, ServiceHandle, start_in_thread
from .store import SharedResultStore
from .worker import run_worker

__all__ = [
    "CampaignService",
    "FairShareQueue",
    "Job",
    "JobRequest",
    "PRIORITIES",
    "QueueFull",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "SharedResultStore",
    "SubmitError",
    "execute_chunk",
    "run_worker",
    "start_in_thread",
]
