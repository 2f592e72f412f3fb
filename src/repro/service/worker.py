"""Remote pull-worker: lease chunks over HTTP, execute, report back.

Any host that can reach the service's port and see the campaign spec
file can contribute compute to in-flight sweeps::

    python -m repro.service worker --url http://scheduler:8321

The worker is *pull-based*: it asks the server for work sized to what
it can hold, so a faster host naturally leases more chunks and load
balances itself (work stealing without a balancer).  Crash safety is
entirely server-side — a worker that dies mid-chunk simply never
completes its lease, and the server re-queues the chunk when the lease
expires.  Completing the same chunk twice is equally harmless: the
server accepts the first completion and drops the rest.
"""

from __future__ import annotations

import logging
import os
import socket
import time
import uuid
from typing import Optional

from .client import ServiceClient, ServiceError
from .jobs import execute_chunk

logger = logging.getLogger(__name__)


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-" \
           f"{uuid.uuid4().hex[:6]}"


def run_worker(url: str, worker_id: Optional[str] = None,
               poll: float = 0.25, max_idle: Optional[float] = None,
               max_chunks: Optional[int] = None,
               stop_when=None) -> int:
    """Lease/execute/complete until idle for ``max_idle`` seconds (or
    forever), or ``max_chunks`` chunks done, or ``stop_when()`` is
    true.  Returns the number of chunks completed.

    Transient HTTP failures back off and retry — the server's lease
    reaper guarantees any chunk we lost is re-queued, so the worker
    never needs local durability.
    """
    client = ServiceClient(url)
    worker = worker_id or default_worker_id()
    completed = 0
    idle_since: Optional[float] = None
    logger.info("worker %s pulling from %s", worker, url)
    while True:
        if stop_when is not None and stop_when():
            break
        if max_chunks is not None and completed >= max_chunks:
            break
        try:
            lease = client.lease(worker)
        except (ServiceError, OSError) as exc:
            logger.warning("lease failed (%s); backing off", exc)
            time.sleep(max(poll, 0.5))
            continue
        if lease is None:
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if max_idle is not None and now - idle_since > max_idle:
                break
            time.sleep(poll)
            continue
        idle_since = None
        executed = execute_chunk(
            lease["spec"], [tuple(task) for task in lease["tasks"]],
            lease.get("timeout"), traceparent=lease.get("traceparent"),
            worker=worker)
        try:
            result = client.complete(worker, lease["job_id"],
                                     lease["chunk_id"],
                                     executed["outcomes"],
                                     telemetry=executed["telemetry"])
            if not result.get("accepted"):
                logger.info("chunk %s already completed elsewhere",
                            lease["chunk_id"])
        except (ServiceError, OSError) as exc:
            # the reaper will re-queue the chunk; losing one completed
            # chunk costs recomputation, never correctness
            logger.warning("complete failed for chunk %s (%s)",
                           lease["chunk_id"], exc)
        completed += 1
    logger.info("worker %s exiting after %d chunk(s)", worker,
                completed)
    return completed
