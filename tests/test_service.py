"""Tests for repro.service: queue/store units, endpoint contracts,
fair-share scheduling, dedup, retries and worker crash recovery.

Server tests boot a real :class:`CampaignService` on a daemon thread
(port 0 → OS-picked) and talk to it over HTTP with the stdlib client,
exactly as a remote user would.  Campaign specs live in
``tests/service_specs.py`` and are always submitted by reference.
"""

import dataclasses
import http.client
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, resolve_spec_ref
from repro.service import (
    ServiceClient,
    ServiceError,
    SharedResultStore,
    execute_chunk,
    run_worker,
    start_in_thread,
)
from repro.service.jobs import Chunk, JobRequest, SubmitError
from repro.service.queue import FairShareQueue, QueueFull

SPECS = str(Path(__file__).parent / "service_specs.py")


def ref(name):
    return f"{SPECS}::{name}"


def serial_fingerprint(name, root_seed=None):
    """Fingerprint of a plain single-process CampaignRunner execution —
    the ground truth every service execution must match bit-for-bit."""
    campaign = resolve_spec_ref(ref(name))
    if root_seed is not None:
        campaign = dataclasses.replace(campaign, root_seed=root_seed)
    return CampaignRunner(campaign, workers=1,
                          use_cache=False).run().fingerprint()


@contextmanager
def serve(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("workers", 1)
    handle = start_in_thread(**kwargs)
    try:
        yield handle, ServiceClient(handle.url)
    finally:
        handle.stop()


def make_chunk(chunk_id, tenant, priority="normal", points=1,
               job_id="j1"):
    tasks = [(i, {"x": i}, 1) for i in range(points)]
    return Chunk(chunk_id=chunk_id, job_id=job_id, tenant=tenant,
                 priority=priority, tasks=tasks)


# ---------------------------------------------------------------------------
# FairShareQueue units
# ---------------------------------------------------------------------------


class TestFairShareQueue:
    def test_round_robin_between_equal_tenants(self):
        queue = FairShareQueue()
        for i in range(3):
            queue.push(make_chunk(f"a{i}", "a"))
        for i in range(3):
            queue.push(make_chunk(f"b{i}", "b"))
        order = [queue.pop().chunk_id for _ in range(6)]
        assert order == ["a0", "b0", "a1", "b1", "a2", "b2"]
        assert queue.pop() is None

    def test_weighted_tenant_served_proportionally(self):
        queue = FairShareQueue(weights={"big": 2.0})
        for i in range(20):
            queue.push(make_chunk(f"big{i}", "big"))
            queue.push(make_chunk(f"small{i}", "small"))
        first_nine = [queue.pop().tenant for _ in range(9)]
        # 2:1 service ratio — and the weight-1 tenant is never starved
        assert first_nine.count("big") == 6
        assert first_nine.count("small") == 3

    def test_priority_lanes_within_tenant(self):
        queue = FairShareQueue()
        queue.push(make_chunk("low", "a", priority="low"))
        queue.push(make_chunk("normal", "a", priority="normal"))
        queue.push(make_chunk("high", "a", priority="high"))
        order = [queue.pop().chunk_id for _ in range(3)]
        assert order == ["high", "normal", "low"]

    def test_fifo_within_lane(self):
        queue = FairShareQueue()
        for i in range(4):
            queue.push(make_chunk(f"c{i}", "a"))
        assert [queue.pop().chunk_id for _ in range(4)] \
            == ["c0", "c1", "c2", "c3"]

    def test_backpressure_counts_points_not_chunks(self):
        queue = FairShareQueue(max_depth=5)
        queue.push(make_chunk("c1", "a", points=3))
        assert queue.depth() == 3
        assert queue.has_capacity(2)
        assert not queue.has_capacity(3)
        with pytest.raises(QueueFull) as excinfo:
            queue.push(make_chunk("c2", "a", points=3))
        assert excinfo.value.pending == 3
        assert excinfo.value.requested == 3
        # force bypasses the bound (requeues must never be dropped)
        queue.push(make_chunk("c2", "a", points=3), force=True)
        assert queue.depth() == 6

    def test_discard_job_removes_only_that_job(self):
        queue = FairShareQueue()
        queue.push(make_chunk("c1", "a", points=2, job_id="j1"))
        queue.push(make_chunk("c2", "a", points=3, job_id="j2"))
        assert queue.discard_job("j1") == 2
        assert queue.depth() == 3
        assert queue.pop().chunk_id == "c2"


# ---------------------------------------------------------------------------
# SharedResultStore units
# ---------------------------------------------------------------------------


class TestSharedResultStore:
    def test_single_flight_claim(self, tmp_path):
        store = SharedResultStore(tmp_path)
        assert store.try_claim("k1", owner="alice")
        assert not store.try_claim("k1", owner="bob")
        # re-asserting one's own claim is idempotent
        assert store.try_claim("k1", owner="alice")
        assert store.claimed_elsewhere("k1", "bob")
        assert not store.claimed_elsewhere("k1", "alice")
        store.release("k1", owner="alice")
        assert store.try_claim("k1", owner="bob")

    def test_release_respects_owner(self, tmp_path):
        store = SharedResultStore(tmp_path)
        store.try_claim("k1", owner="alice")
        store.release("k1", owner="bob")  # not bob's claim: no-op
        assert store.claim_info("k1")["owner"] == "alice"

    def test_stale_claim_taken_over(self, tmp_path):
        store = SharedResultStore(tmp_path, claim_ttl=10.0)
        assert store.try_claim("k1", owner="crashed", now=1000.0)
        # within the TTL the claim holds ...
        assert not store.try_claim("k1", owner="next", now=1005.0)
        # ... after it, the next claimant atomically takes over
        assert store.try_claim("k1", owner="next", now=1011.0)
        assert store.claim_info("k1")["owner"] == "next"

    def test_publish_stores_result_and_releases_claim(self, tmp_path):
        from repro.campaign.records import RunRecord

        store = SharedResultStore(tmp_path)
        store.try_claim("k1", owner="alice")
        record = RunRecord(index=0, params={"x": 1, "seed": 7},
                           seed=7, status="ok",
                           metrics={"y": 2.0})
        store.publish("k1", record, owner="alice")
        assert store.claim_info("k1") is None
        hit = store.get("k1")
        assert hit.metrics == {"y": 2.0}
        # published keys can no longer be claimed
        assert not store.try_claim("k1", owner="bob")


# ---------------------------------------------------------------------------
# JobRequest / chunk execution units
# ---------------------------------------------------------------------------


class TestJobRequest:
    def test_requires_spec(self):
        with pytest.raises(SubmitError):
            JobRequest.from_payload({})

    def test_rejects_unknown_priority(self):
        with pytest.raises(SubmitError):
            JobRequest.from_payload({"spec": "s.py", "priority": "max"})

    def test_rejects_bad_numbers(self):
        for field, value in (("limit", 0), ("chunk_size", 0),
                             ("limit", "many"), ("timeout", "soon")):
            with pytest.raises(SubmitError):
                JobRequest.from_payload({"spec": "s.py", field: value})

    def test_defaults_and_coercion(self):
        request = JobRequest.from_payload(
            {"spec": "s.py", "retries": "3", "chunk_size": 4,
             "root_seed": 9})
        assert request.tenant == "default"
        assert request.priority == "normal"
        assert request.retries == 3
        assert request.chunk_size == 4
        assert request.root_seed == 9


def test_execute_chunk_by_ref_runs_points():
    campaign = resolve_spec_ref(ref("quick"))
    from repro.campaign import plan_records

    records = plan_records(campaign)
    tasks = [(r.index, r.params, 1) for r in records[:3]]
    outcomes = execute_chunk(ref("quick"), tasks, None)["outcomes"]
    assert [o["index"] for o in outcomes] == [0, 1, 2]
    for outcome, record in zip(outcomes, records):
        assert outcome["status"] == "ok"
        assert outcome["metrics"]["y"] == record.params["x"] * 2.0
        json.dumps(outcome)  # wire-safe


# ---------------------------------------------------------------------------
# Endpoint contracts
# ---------------------------------------------------------------------------


def test_submit_stream_results_end_to_end(tmp_path):
    out_dir = tmp_path / "out"
    with serve(workers=1, out_dir=out_dir) as (handle, client):
        assert client.health()["ok"]
        job = client.submit(ref("quick"), tenant="ana")
        assert job["state"] in ("queued", "running")
        assert job["total"] == 8

        streamed = list(client.stream(job["id"]))
        assert len(streamed) == 8
        assert [entry["seq"] for entry in streamed] == list(range(8))
        assert sorted(entry["index"] for entry in streamed) \
            == list(range(8))
        assert all(entry["status"] == "ok" for entry in streamed)
        assert all(entry["source"] == "executed" for entry in streamed)

        status = client.wait(job["id"], timeout=10)
        assert status["state"] == "done"
        assert status["executed"] == 8
        assert status["wait_seconds"] is not None
        assert status["run_seconds"] is not None

        results = client.results(job["id"])
        assert results["fingerprint"] == serial_fingerprint("quick")
        assert results["metrics"]["y"]["count"] == 8
        assert results["metrics"]["y"]["mean"] == pytest.approx(7.0)

        # the job's JSONL record log was written, one line per point
        log = out_dir / "jobs" / job["id"] / "records.jsonl"
        lines = [json.loads(line) for line
                 in log.read_text().splitlines()]
        assert len(lines) == 8

        assert client.jobs(tenant="ana")[0]["id"] == job["id"]
        assert client.jobs(tenant="nobody") == []


def test_resubmit_is_fully_cached(tmp_path):
    with serve(workers=1, store_dir=tmp_path / "store") as (_, client):
        first = client.submit(ref("quick"))
        done = client.wait(first["id"], timeout=10)
        assert done["executed"] == 8

        second = client.submit(ref("quick"))
        done = client.wait(second["id"], timeout=10)
        assert done["cached"] == 8
        assert done["executed"] == 0
        assert client.results(first["id"])["fingerprint"] \
            == client.results(second["id"])["fingerprint"]


def test_error_contracts(tmp_path):
    with serve(workers=1) as (handle, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("j99999")
        assert excinfo.value.status == 404

        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/jobs", {"tenant": "x"})
        assert excinfo.value.status == 400

        with pytest.raises(ServiceError) as excinfo:
            client.submit(str(tmp_path / "missing.py"))
        assert excinfo.value.status == 400

        with pytest.raises(ServiceError) as excinfo:
            client._request("DELETE", "/v1/jobs")
        assert excinfo.value.status == 405
        assert "POST" in excinfo.value.payload["allowed"]

        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/jobs",
                            {"spec": ref("quick"), "priority": "mega"})
        assert excinfo.value.status == 400


def test_broken_spec_rejected_with_422():
    with serve(workers=1) as (_, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(ref("broken"))
        assert excinfo.value.status == 422
        payload = excinfo.value.payload
        assert payload["campaign"] == "broken"
        diagnostics = json.dumps(payload["diagnostics"])
        assert "src.out" in diagnostics  # names the unbound port
        # nothing was admitted
        assert client.jobs() == []


def test_nondeterministic_spec_rejected_with_422():
    """A model whose processing() draws from the global random state is
    refused at submit time with the behavioral-lint diagnostic."""
    with serve(workers=1) as (_, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(ref("noisy"))
        assert excinfo.value.status == 422
        payload = excinfo.value.payload
        assert payload["campaign"] == "noisy"
        diagnostics = json.dumps(payload["diagnostics"])
        assert "CODE001" in diagnostics
        assert "random.random" in diagnostics
        assert client.jobs() == []


def test_backpressure_returns_429():
    with serve(workers=0, max_pending_points=4) as (_, client):
        accepted = client.submit(ref("quick"), limit=4)
        assert accepted["total"] == 4
        with pytest.raises(ServiceError) as excinfo:
            client.submit(ref("quick"))
        assert excinfo.value.status == 429
        assert excinfo.value.payload["pending"] == 4
        assert excinfo.value.payload["limit"] == 4
        # the first job's 4 in-flight points dedup away; only the 4
        # genuinely new points count against the bound
        assert excinfo.value.payload["requested"] == 4


def test_sse_stream_framing():
    with serve(workers=1) as (handle, client):
        job = client.submit(ref("quick"), chunk_size=8)
        client.wait(job["id"], timeout=10)

        connection = http.client.HTTPConnection(
            handle.service.host, handle.service.port, timeout=10)
        try:
            connection.request(
                "GET", f"/v1/jobs/{job['id']}/stream?sse=1")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") \
                .startswith("text/event-stream")
            body = response.read().decode()
        finally:
            connection.close()
        events = [block for block in body.split("\n\n") if block]
        assert len(events) == 9  # 8 points + terminator
        assert all(event.startswith("data: ")
                   for event in events[:8])
        assert events[-1].startswith("event: end")
        json.loads(events[0][len("data: "):])


def test_cancel_stops_queued_work():
    with serve(workers=1) as (_, client):
        job = client.submit(ref("slow"), chunk_size=1)
        stream = client.stream(job["id"])
        first = next(stream)  # at least one point computed
        assert first["status"] == "ok"
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        # idempotent
        assert client.cancel(job["id"])["state"] == "cancelled"
        # the stream terminates rather than hanging
        remaining = list(stream)
        status = client.status(job["id"])
        assert status["state"] == "cancelled"
        assert status["completed"] == 1 + len(remaining)
        assert status["completed"] < status["total"]


# ---------------------------------------------------------------------------
# Scheduling behavior over HTTP
# ---------------------------------------------------------------------------


def test_fair_share_small_tenant_finishes_during_big_sweep():
    with serve(workers=1) as (_, client):
        big = client.submit(ref("slow"), tenant="big", chunk_size=1)
        small = client.submit(ref("slow-small"), tenant="small",
                              chunk_size=1)
        done = client.wait(small["id"], timeout=15)
        assert done["state"] == "done"
        # round-robin interleaving: the 2-point tenant finished while
        # the 8-point tenant still has work in flight
        big_status = client.status(big["id"])
        assert big_status["state"] == "running"
        assert big_status["completed"] < big_status["total"]
        client.wait(big["id"], timeout=15)


def test_two_tenants_dedup_computes_each_point_once(tmp_path):
    with serve(workers=1, store_dir=tmp_path / "store",
               out_dir=tmp_path / "out") as (handle, client):
        job_a = client.submit(ref("slow"), tenant="ana", chunk_size=2)
        job_b = client.submit(ref("slow"), tenant="ben", chunk_size=2)
        done_a = client.wait(job_a["id"], timeout=20)
        done_b = client.wait(job_b["id"], timeout=20)

        # the overlapping sweep was computed exactly once fleet-wide
        assert done_a["executed"] == 8
        assert done_b["executed"] == 0
        assert done_b["cached"] + done_b["deduped"] == 8
        assert done_a["ok"] == done_b["ok"] == 8

        expected = serial_fingerprint("slow")
        assert client.results(job_a["id"])["fingerprint"] == expected
        assert client.results(job_b["id"])["fingerprint"] == expected

        metrics = client.metrics()
        counters = metrics["counters"]
        assert counters["service.points.executed"] == 8


def test_retry_recovers_transient_failures(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
    with serve(workers=1) as (_, client):
        job = client.submit(ref("flaky"), retries=1, chunk_size=1)
        done = client.wait(job["id"], timeout=15)
        assert done["state"] == "done"
        assert done["ok"] == 2
        records = list(client.stream(job["id"]))
        assert all(record["attempts"] == 2 for record in records)
        assert client.metrics()["counters"][
            "service.points.retried"] == 2


def test_retries_exhausted_marks_point_failed(tmp_path, monkeypatch):
    # retries=0: the single transient failure is final
    monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
    with serve(workers=1) as (_, client):
        job = client.submit(ref("flaky"), retries=0, chunk_size=1)
        done = client.wait(job["id"], timeout=15)
        assert done["state"] == "done"
        assert done["failed"] == 2
        records = list(client.stream(job["id"]))
        assert all(record["status"] == "failed" for record in records)
        assert all("transient flake" in record["error"]
                   for record in records)


# ---------------------------------------------------------------------------
# Remote worker plane
# ---------------------------------------------------------------------------


def test_remote_worker_executes_and_crash_is_recovered(tmp_path):
    with serve(workers=0, store_dir=tmp_path / "store",
               lease_timeout=0.75) as (handle, client):
        job = client.submit(ref("quick"), chunk_size=4)

        # a "crashed" worker: leases one chunk and never completes it
        crashed = client.lease("crasher")
        assert crashed is not None
        assert crashed["job_id"] == job["id"]
        assert len(crashed["tasks"]) == 4

        # a real worker drains everything, including the re-queued
        # chunk once its lease expires
        worker = threading.Thread(
            target=run_worker,
            args=(handle.url,),
            kwargs={"worker_id": "real", "poll": 0.05, "max_idle": 4.0},
            daemon=True)
        worker.start()
        done = client.wait(job["id"], timeout=20)
        worker.join(timeout=10)

        # no lost and no duplicated points
        assert done["state"] == "done"
        assert done["executed"] == 8
        assert done["completed"] == 8
        assert client.results(job["id"])["fingerprint"] \
            == serial_fingerprint("quick")
        counters = client.metrics()["counters"]
        assert counters["service.chunks.requeued"] >= 1


def test_duplicate_chunk_completion_is_dropped():
    with serve(workers=0) as (_, client):
        job = client.submit(ref("quick"), chunk_size=8)
        lease = client.lease("w1")
        outcomes = execute_chunk(
            lease["spec"], [tuple(task) for task in lease["tasks"]],
            lease.get("timeout"))["outcomes"]
        first = client.complete("w1", lease["job_id"],
                                lease["chunk_id"], outcomes)
        assert first["accepted"]
        second = client.complete("w1", lease["job_id"],
                                 lease["chunk_id"], outcomes)
        assert not second["accepted"]
        done = client.wait(job["id"], timeout=10)
        assert done["executed"] == 8
        assert done["completed"] == 8

        # idle queue → 204 → None
        assert client.lease("w1") is None


@pytest.mark.parametrize("corrupt", [
    lambda outcomes: [{"index": "x"}],
    lambda outcomes: [dict(o, index=o["index"] + 4) for o in outcomes],
    lambda outcomes: [dict(o, attempt="one") for o in outcomes],
    lambda outcomes: [dict(o, attempt=float("inf")) for o in outcomes],
    lambda outcomes: [dict(o, attempt=float("nan")) for o in outcomes],
    lambda outcomes: [dict(o, wall_time=None) for o in outcomes],
    lambda outcomes: [dict(o, wall_time=float("inf")) for o in outcomes],
    lambda outcomes: [dict(o, wall_time=10 ** 400) for o in outcomes],
    lambda outcomes: [dict(o, metrics_telemetry="x") for o in outcomes],
    lambda outcomes: [*outcomes[:1], ["not", "a", "dict"]],
], ids=["index-not-int", "foreign-indices", "attempt-not-number",
        "attempt-infinite", "attempt-nan", "wall-time-null",
        "wall-time-infinite", "wall-time-beyond-float",
        "telemetry-not-dict", "outcome-not-dict"])
def test_malformed_completion_is_refused_and_the_lease_kept(corrupt):
    """A completion whose outcomes do not fit the leased chunk is a 400
    that leaves the lease in place: the valid resend is accepted and
    the job ends with the serial fingerprint."""
    with serve(workers=0) as (handle, client):
        job = client.submit(ref("quick"), chunk_size=4)
        lease = client.lease("w1")
        outcomes = execute_chunk(
            lease["spec"], [tuple(task) for task in lease["tasks"]],
            lease.get("timeout"))["outcomes"]
        with pytest.raises(ServiceError) as refused:
            client.complete("w1", lease["job_id"], lease["chunk_id"],
                            corrupt(outcomes))
        assert refused.value.status == 400
        assert client.complete("w1", lease["job_id"], lease["chunk_id"],
                               outcomes)["accepted"]
        done = drain_until_done(handle, client, job["id"])
        assert done["state"] == "done"
        assert done["executed"] == 8
        assert client.results(job["id"])["fingerprint"] \
            == serial_fingerprint("quick")


def test_service_metrics_expose_queue_and_job_timings(tmp_path):
    with serve(workers=1, store_dir=tmp_path / "store") as (_, client):
        job = client.submit(ref("quick"))
        client.wait(job["id"], timeout=10)
        metrics = client.metrics()
        assert "queue.depth" in metrics["gauges"]
        histograms = metrics["histograms"]
        assert histograms["job.wait_seconds"]["count"] >= 1
        assert histograms["job.run_seconds"]["count"] >= 1
        assert metrics["counters"]["service.jobs.completed"] == 1


# ---------------------------------------------------------------------------
# fleet observability: stitched traces, /metrics, per-tenant usage
# ---------------------------------------------------------------------------


def prom_value(text, line_prefix):
    """The sample value for an exact series prefix, or None."""
    for line in text.splitlines():
        if line.startswith(line_prefix + " "):
            return float(line.split()[-1])
    return None


class TestFleetObservability:
    def test_two_process_job_one_stitched_trace(self, tmp_path):
        from repro.observe import validate_chrome_trace
        from repro.observe.fleet import TraceContext

        with serve(workers=1) as (handle, client):
            job = client.submit(ref("slow"), tenant="ana",
                                chunk_size=1)
            stop = threading.Event()
            worker = threading.Thread(
                target=run_worker, args=(handle.url,),
                kwargs={"worker_id": "pull-1", "poll": 0.02,
                        "stop_when": stop.is_set}, daemon=True)
            worker.start()
            try:
                done = client.wait(job["id"], timeout=30)
            finally:
                stop.set()
                worker.join(timeout=10)
            assert done["state"] == "done"

            trace = client.job_trace(job["id"])
            assert validate_chrome_trace(trace) == []

            other = trace["otherData"]
            # one job, one trace id, carried across every boundary
            context = TraceContext.parse(other["traceparent"])
            assert len(context.trace_id) == 32
            # spans from at least two processes (the server plus an
            # executor; with both planes active, three)
            assert other["processes"] >= 2
            process_names = {
                event["args"]["name"]
                for event in trace["traceEvents"]
                if event.get("ph") == "M"
                and event["name"] == "process_name"}
            assert any(name.startswith("server")
                       for name in process_names)
            assert any(not name.startswith("server")
                       for name in process_names)

            names = {event["name"]
                     for event in trace["traceEvents"]
                     if event.get("ph") in ("X", "i")}
            # the documented service span taxonomy (TUTORIAL §12)
            assert {"job.submit", "job.run", "queue.wait",
                    "chunk.run", "point.run"} <= names

            # the worker plane contributed real point spans
            point_spans = [event for event in trace["traceEvents"]
                           if event.get("ph") == "X"
                           and event["name"] == "point.run"]
            assert len(point_spans) == 8
            assert all(event["dur"] >= 0 for event in point_spans)

    def test_lease_carries_job_trace_context(self):
        from repro.observe.fleet import TraceContext

        with serve(workers=0) as (_, client):
            job = client.submit(ref("quick"), chunk_size=4)
            lease = client.lease("w1")
            context = TraceContext.parse(lease["traceparent"])
            trace = client.job_trace(job["id"])
            job_context = TraceContext.parse(
                trace["otherData"]["traceparent"])
            # chunk context is a child: same trace, different span
            assert context.trace_id == job_context.trace_id
            assert context.span_id != job_context.span_id

    def test_prometheus_reconciles_with_job_records(self, tmp_path):
        from repro.observe import validate_prometheus_text

        out_dir = tmp_path / "out"
        with serve(workers=1, out_dir=out_dir) as (_, client):
            job = client.submit(ref("quick"), tenant="ana")
            done = client.wait(job["id"], timeout=10)
            assert done["state"] == "done"

            log = out_dir / "jobs" / job["id"] / "records.jsonl"
            records = [json.loads(line)
                       for line in log.read_text().splitlines()]
            executed = sum(1 for record in records
                           if record["source"] == "executed")

            text = client.prometheus()
            assert validate_prometheus_text(text) == []
            assert prom_value(
                text, 'service_points_total{kind="executed"}') \
                == executed
            assert prom_value(
                text, 'service_points_total'
                '{kind="executed",tenant="ana"}') == executed
            assert prom_value(
                text, 'service_jobs_total{event="completed"}') == 1
            assert prom_value(
                text, 'service_point_seconds_count{tenant="ana"}') \
                == executed

    def test_usage_endpoint_accounts_per_tenant(self, tmp_path):
        with serve(workers=1,
                   store_dir=tmp_path / "store") as (_, client):
            first = client.submit(ref("quick"), tenant="ana")
            client.wait(first["id"], timeout=10)
            second = client.submit(ref("quick"), tenant="ana")
            client.wait(second["id"], timeout=10)

            usage = client.usage("ana")
            assert usage["tenant"] == "ana"
            assert usage["jobs"]["total"] == 2
            assert usage["points"]["executed"] == 8
            assert usage["points"]["cached"] == 8
            assert usage["points"]["failed"] == 0
            assert usage["cache_hit_ratio"] == pytest.approx(0.5)
            # the cached job never queued a chunk, so only the first
            # job's dispatch contributes queue-wait observations
            assert usage["queue_wait_seconds"]["count"] >= 1
            assert usage["point_seconds"]["count"] == 8

            with pytest.raises(ServiceError) as excinfo:
                client.usage("nobody")
            assert excinfo.value.status == 404

    def test_usage_counts_failures_by_kind(self, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
        with serve(workers=1) as (_, client):
            job = client.submit(ref("flaky"), tenant="bob",
                                retries=0, chunk_size=1)
            done = client.wait(job["id"], timeout=15)
            assert done["failed"] == 2
            usage = client.usage("bob")
            assert usage["points"]["failed"] == 2
            assert sum(usage["failure_kinds"].values()) \
                == usage["points"]["failed"]

    def test_observe_off_serverwide_disables_tracing(self):
        with serve(workers=1, observe="off") as (_, client):
            job = client.submit(ref("quick"))
            client.wait(job["id"], timeout=10)
            with pytest.raises(ServiceError) as excinfo:
                client.job_trace(job["id"])
            assert excinfo.value.status == 404
            # lease/complete still work untraced, and /metrics still
            # serves the server's own registry
            assert "service_jobs_total" in client.prometheus()

    def test_observe_off_per_job(self):
        with serve(workers=0) as (_, client):
            job = client.submit(ref("quick"), chunk_size=8,
                                observe=False)
            lease = client.lease("w1")
            assert lease.get("traceparent") is None
            outcomes = execute_chunk(
                lease["spec"],
                [tuple(task) for task in lease["tasks"]],
                lease.get("timeout"))["outcomes"]
            client.complete("w1", lease["job_id"],
                            lease["chunk_id"], outcomes)
            client.wait(job["id"], timeout=10)
            with pytest.raises(ServiceError) as excinfo:
                client.job_trace(job["id"])
            assert excinfo.value.status == 404

    def test_trace_retention_bound_drops_oldest_segments(
            self, tmp_path, capsys, monkeypatch):
        from repro.observe import validate_chrome_trace
        from repro.observe.__main__ import main as observe_main
        from repro.service import server

        monkeypatch.setattr(server, "MAX_TRACED_JOBS", 2)
        with serve(workers=1) as (_, client):
            jobs = []
            for _ in range(server.MAX_TRACED_JOBS + 1):
                job = client.submit(ref("quick"), chunk_size=4)
                assert client.wait(job["id"], timeout=10)["state"] \
                    == "done"
                jobs.append(job["id"])
            oldest = client.job_trace(jobs[0])
            newest = client.job_trace(jobs[-1])

        # the oldest job keeps only the server's own segment; its two
        # executor segments are reported, and the trace still checks
        assert oldest["otherData"]["dropped_segments"] == 2
        assert oldest["otherData"]["processes"] == 1
        assert validate_chrome_trace(oldest) == []
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(oldest))
        assert observe_main(["check", str(path)]) == 0
        assert "2 executor segment(s) dropped" in capsys.readouterr().err

        assert newest["otherData"]["dropped_segments"] == 0
        point_spans = [event for event in newest["traceEvents"]
                       if event.get("ph") == "X"
                       and event["name"] == "point.run"]
        assert len(point_spans) == 8

    def test_traced_overhead_within_documented_bound(self):
        import time as time_module

        def timed_run(observe, repeats=3):
            best = float("inf")
            for _ in range(repeats):
                with serve(workers=1,
                           observe=observe) as (_, client):
                    start = time_module.perf_counter()
                    job = client.submit(ref("quick"))
                    client.wait(job["id"], timeout=10, poll=0.02)
                    best = min(best,
                               time_module.perf_counter() - start)
            return best

        # Same contract as tests/test_observe.py::TestOverhead, at
        # the service tier: tracing every chunk and shipping segments
        # stays within 2x of the untraced service (absolute floor
        # absorbs scheduler/poll jitter on a sub-second job).
        disabled = timed_run("off")
        enabled = timed_run("on")
        assert enabled <= max(2.0 * disabled, disabled + 0.25), (
            f"fleet telemetry overhead too high: {enabled:.4f}s vs "
            f"{disabled:.4f}s untraced")


# ---------------------------------------------------------------------------
# Crash recovery and cross-process dedup
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_local_pool_crash_is_retried(tmp_path, monkeypatch, workers):
    """A pool process that dies mid-point breaks the fork pool: the pool
    is rebuilt and the lost points run again.  (No serial comparison:
    the crash would end this process.)"""
    monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
    with serve(workers=workers) as (_, client):
        job = client.submit(ref("crashy"), retries=1, chunk_size=1)
        done = client.wait(job["id"], timeout=30)
        assert done["state"] == "done"
        assert done["ok"] == done["total"] == 4
        records = list(client.stream(job["id"]))
        crashed = [record for record in records
                   if record["params"]["x"] == 1]
        assert [record["attempts"] for record in crashed] == [2]
        assert client.metrics()["counters"][
            "service.points.retried"] >= 1


def test_pool_slots_share_the_queue(tmp_path):
    """More pool slots than cores on one-point chunks of several jobs:
    every point runs exactly once, and no idle slot misses work."""
    with serve(workers=4, store_dir=tmp_path / "store") as (_, client):
        seeds = [None, 11, 12, None]
        jobs = [client.submit(ref("quick"), tenant=f"t{i}", chunk_size=1,
                              root_seed=seed)
                for i, seed in enumerate(seeds)]
        done = [client.wait(job["id"], timeout=30) for job in jobs]
        assert [status["state"] for status in done] == ["done"] * 4
        assert sum(status["executed"] for status in done) == 24
        assert client.metrics()["counters"][
            "service.points.executed"] == 24
        for job, seed in zip(jobs, seeds):
            assert client.results(job["id"])["fingerprint"] \
                == serial_fingerprint("quick", root_seed=seed)


def test_two_services_share_one_store(tmp_path):
    """Two service processes on one store dedup through its claims."""
    store = tmp_path / "store"
    with serve(workers=0, store_dir=store) as (handle_a, client_a), \
            serve(workers=0, store_dir=store) as (handle_b, client_b):
        assert handle_a.service.owner != handle_b.service.owner

        # B waits on A's claims and adopts A's published results
        job_a = client_a.submit(ref("quick"))
        job_b = client_b.submit(ref("quick"))
        run_worker(handle_a.url, worker_id="a", poll=0.05, max_idle=0.5)
        done_a = client_a.wait(job_a["id"], timeout=10)
        done_b = client_b.wait(job_b["id"], timeout=10)
        assert done_a["executed"] == 8
        assert done_b["state"] == "done"
        assert done_b["cached"] == 8
        assert done_b["executed"] == 0
        assert client_b.results(job_b["id"])["fingerprint"] \
            == client_a.results(job_a["id"])["fingerprint"]

        # A cancels before any lease: its claims are released and B's
        # store poll takes the points over
        job_a = client_a.submit(ref("quick"), root_seed=7)
        job_b = client_b.submit(ref("quick"), root_seed=7)
        assert client_a.cancel(job_a["id"])["state"] == "cancelled"
        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker, args=(handle_b.url,),
            kwargs={"worker_id": "b", "poll": 0.05,
                    "stop_when": stop.is_set}, daemon=True)
        worker.start()
        try:
            done_b = client_b.wait(job_b["id"], timeout=15)
        finally:
            stop.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert done_b["state"] == "done"
        assert done_b["executed"] == 8
        assert client_b.results(job_b["id"])["fingerprint"] \
            == serial_fingerprint("quick", root_seed=7)


# ---------------------------------------------------------------------------
# Cancellation never strands another job's waiting points
# ---------------------------------------------------------------------------


def drain_until_done(handle, client, job_id, timeout=10.0):
    """Run a pull-worker thread until ``job_id`` ends; its status."""
    stop = threading.Event()
    worker = threading.Thread(
        target=run_worker, args=(handle.url,),
        kwargs={"worker_id": "drain", "poll": 0.05,
                "stop_when": stop.is_set}, daemon=True)
    worker.start()
    try:
        return client.wait(job_id, timeout=timeout)
    finally:
        stop.set()
        worker.join(timeout=10)
        assert not worker.is_alive()


def test_cancel_with_duplicate_points_hands_keys_to_other_job():
    """A cancelled job's own duplicate point must not inherit the key
    it led: the other job's waiting points take it over."""
    with serve(workers=0) as (handle, client):
        job_a = client.submit(ref("dup"))
        job_b = client.submit(ref("dup"))
        assert client.cancel(job_a["id"])["state"] == "cancelled"
        done = drain_until_done(handle, client, job_b["id"])
        assert done["state"] == "done"
        assert done["ok"] == 3
        assert done["executed"] + done["deduped"] == 3


def test_lost_lease_of_cancelled_job_hands_keys_to_other_job():
    """A cancelled job's leased chunk runs on for the jobs waiting on
    it; when its lease is lost instead, they take its keys over."""
    with serve(workers=0, lease_timeout=0.3) as (handle, client):
        job_a = client.submit(ref("quick"), chunk_size=8)
        job_b = client.submit(ref("quick"), chunk_size=8)
        crashed = client.lease("crasher")
        assert crashed["job_id"] == job_a["id"]
        assert client.cancel(job_a["id"])["state"] == "cancelled"
        time.sleep(0.8)  # past the crasher's lease
        done = drain_until_done(handle, client, job_b["id"])
        assert done["state"] == "done"
        assert done["executed"] == 8
        assert client.results(job_b["id"])["fingerprint"] \
            == serial_fingerprint("quick")
