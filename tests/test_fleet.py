"""Tests for repro.observe.fleet: trace context propagation, segment
envelopes, trace stitching, metric aggregation and the Prometheus text
exposition (render + validator round trip).

These are the fleet-observability *primitives*; the end-to-end service
behavior (a real two-process job producing one stitched trace) lives
in tests/test_service.py::TestFleetObservability.
"""

import json

import pytest

from repro.observe import (
    LATENCY_BOUNDS,
    Telemetry,
    validate_chrome_trace,
)
from repro.observe.__main__ import main as observe_main
from repro.observe.fleet import (
    DEFAULT_SEGMENT_SPANS,
    MetricsAggregator,
    TraceContext,
    coerce_segment,
    prometheus_text,
    sanitize_metric_name,
    split_metric_key,
    stitch_job_trace,
    telemetry_payload,
    validate_prometheus_text,
)


def make_segment(worker="w", host="h", pid=1, epoch=100.0,
                 spans=None, metrics=None, dropped=0):
    return {
        "traceparent": None,
        "worker": worker,
        "host": host,
        "pid": pid,
        "epoch_unix": epoch,
        "spans": spans if spans is not None else [
            ["span", "chunk.run", "chunk", 0.0, 0.5, None],
        ],
        "spans_dropped": dropped,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# TraceContext
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_mint_shapes(self):
        context = TraceContext.mint()
        assert len(context.trace_id) == 32
        assert len(context.span_id) == 16
        assert context.flags == "01"
        int(context.trace_id, 16)  # hex or raise

    def test_mint_is_unique(self):
        ids = {TraceContext.mint().trace_id for _ in range(32)}
        assert len(ids) == 32

    def test_child_keeps_trace_changes_span(self):
        root = TraceContext.mint()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id

    def test_traceparent_roundtrip(self):
        root = TraceContext.mint()
        parsed = TraceContext.parse(root.to_traceparent())
        assert parsed == root

    def test_parse_normalizes_case_and_whitespace(self):
        header = f"  00-{'AB' * 16}-{'CD' * 8}-01  "
        parsed = TraceContext.parse(header)
        assert parsed.trace_id == "ab" * 16

    @pytest.mark.parametrize("header", [
        "", None, "garbage", "00-short-short-01",
        f"00-{'g' * 32}-{'1' * 16}-01",        # non-hex
        f"00-{'1' * 32}-{'2' * 16}-01-extra",  # trailing junk
        f"00-{'0' * 32}-{'2' * 16}-01",        # all-zero trace id
        f"00-{'1' * 32}-{'0' * 16}-01",        # all-zero span id
    ])
    def test_parse_rejects_malformed(self, header):
        with pytest.raises(ValueError):
            TraceContext.parse(header)


# ---------------------------------------------------------------------------
# telemetry segments
# ---------------------------------------------------------------------------


class TestTelemetryPayload:
    def test_envelope_fields(self):
        hub = Telemetry()
        with hub.tracer.span("chunk.run", track="chunk"):
            pass
        hub.metrics.counter("worker.points", status="ok").inc()
        payload = telemetry_payload(hub, worker="w1",
                                    traceparent="00-" + "1" * 32
                                    + "-" + "2" * 16 + "-01")
        assert payload["worker"] == "w1"
        assert payload["spans_dropped"] == 0
        assert len(payload["spans"]) == 1
        assert payload["spans"][0][1] == "chunk.run"
        assert "worker.points[status=ok]" in \
            payload["metrics"]["counters"]
        # the payload must survive the wire
        json.dumps(payload)

    def test_epoch_unix_locates_relative_spans_on_wall_clock(self):
        import time
        hub = Telemetry()
        before = time.time()
        with hub.tracer.span("s", track="t"):
            pass
        payload = telemetry_payload(hub, worker="w")
        start = payload["spans"][0][3]
        absolute = payload["epoch_unix"] + start
        assert abs(absolute - before) < 5.0

    def test_cap_truncates_and_counts(self):
        hub = Telemetry()
        for index in range(10):
            with hub.tracer.span("s", track="t", index=index):
                pass
        payload = telemetry_payload(hub, worker="w", max_spans=4)
        assert len(payload["spans"]) == 4
        assert payload["spans_dropped"] == 6

    def test_tracer_cap_drops_are_included(self):
        hub = Telemetry(max_events=3)
        for _ in range(5):
            with hub.tracer.span("s", track="t"):
                pass
        assert hub.tracer.dropped == 2
        payload = telemetry_payload(hub, worker="w")
        assert payload["spans_dropped"] == 2


class TestCoerceSegment:
    @pytest.mark.parametrize("junk", [
        None, 17, "x", ["spans"], {"spans": "not-a-list",
                                   "epoch_unix": "soon"},
    ])
    def test_junk_never_raises(self, junk):
        segment = coerce_segment(junk)
        assert segment is None or isinstance(segment, dict)

    def test_server_side_cap_is_enforced(self):
        spans = [["span", "s", "t", float(i), 0.0, None]
                 for i in range(8)]
        segment = coerce_segment(make_segment(spans=spans, dropped=1),
                                 max_spans=5)
        assert len(segment["spans"]) == 5
        assert segment["spans_dropped"] == 1 + 3

    def test_default_cap_matches_contract(self):
        spans = [["span", "s", "t", 0.0, 0.0, None]] \
            * (DEFAULT_SEGMENT_SPANS + 7)
        segment = coerce_segment(make_segment(spans=spans))
        assert len(segment["spans"]) == DEFAULT_SEGMENT_SPANS
        assert segment["spans_dropped"] == 7


# ---------------------------------------------------------------------------
# trace stitching
# ---------------------------------------------------------------------------


class TestStitchJobTrace:
    def test_two_processes_one_valid_trace(self):
        a = make_segment(worker="pool", pid=10, epoch=100.0)
        b = make_segment(worker="pull-1", pid=20, epoch=100.2)
        trace = stitch_job_trace("00-" + "a" * 32 + "-" + "b" * 16
                                 + "-01", [a, b])
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["processes"] == 2
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "M"
                 and e["name"] == "process_name"}
        assert names == {"pool (h:10)", "pull-1 (h:20)"}

    def test_rebases_onto_earliest_event(self):
        a = make_segment(epoch=100.0,
                         spans=[["span", "s", "t", 1.0, 0.5, None]])
        b = make_segment(worker="v", pid=2, epoch=50.0,
                         spans=[["span", "s", "t", 2.0, 0.5, None]])
        trace = stitch_job_trace(None, [a, b])
        stamps = sorted(e["ts"] for e in trace["traceEvents"]
                        if e.get("ph") == "X")
        # earliest absolute event (epoch 50 + 2.0) maps to ts 0; the
        # other (epoch 100 + 1.0) lands 49 wall-seconds later
        assert stamps[0] == 0.0
        assert abs(stamps[1] - 49.0 * 1e6) < 1.0

    def test_instants_and_attrs_survive(self):
        spans = [["instant", "cache.hit", "cache", 0.1, 0.0,
                  {"index": 3}]]
        trace = stitch_job_trace(None, [make_segment(spans=spans)])
        instants = [e for e in trace["traceEvents"]
                    if e.get("ph") == "i"]
        assert instants[0]["name"] == "cache.hit"
        assert instants[0]["s"] == "t"
        assert instants[0]["args"] == {"index": 3}

    def test_negative_duration_clamped(self):
        spans = [["span", "s", "t", 0.0, -1.0, None]]
        trace = stitch_job_trace(None, [make_segment(spans=spans)])
        assert validate_chrome_trace(trace) == []

    def test_garbage_events_counted_not_fatal(self):
        spans = [["span", "good", "t", 0.0, 0.1, None],
                 ["span", "bad", "t", "soon", 0.1, None],
                 ["wat", "bad-kind", "t", 0.0, 0.1, None]]
        trace = stitch_job_trace(None, [make_segment(spans=spans),
                                        "not-a-segment"])
        assert validate_chrome_trace(trace) == []
        body = [e for e in trace["traceEvents"]
                if e.get("ph") == "X"]
        assert [e["name"] for e in body] == ["good"]
        assert trace["otherData"]["dropped_events"] == 3

    def test_segment_drop_counts_propagate(self):
        trace = stitch_job_trace(None, [make_segment(dropped=4)])
        assert trace["otherData"]["dropped_events"] == 4

    def test_empty_input_is_a_valid_empty_trace(self):
        trace = stitch_job_trace(None, [])
        assert validate_chrome_trace(trace) == []
        assert trace["traceEvents"] == []
        assert trace["otherData"]["processes"] == 0


# ---------------------------------------------------------------------------
# MetricsAggregator
# ---------------------------------------------------------------------------


def hist_dump(bounds, values):
    from repro.observe.metrics import Histogram
    histogram = Histogram(bounds)
    for value in values:
        histogram.observe(value)
    return histogram.to_dict()


class TestMetricsAggregator:
    def test_counters_sum(self):
        aggregator = MetricsAggregator()
        aggregator.add({"counters": {"a": 3, "b[k=v]": 1}})
        aggregator.add({"counters": {"a": 4}})
        merged = aggregator.to_dict()
        assert merged["counters"]["a"] == 7
        assert merged["counters"]["b[k=v]"] == 1

    def test_gauges_last_write_wins(self):
        aggregator = MetricsAggregator()
        aggregator.add({"gauges": {"depth": 5}})
        aggregator.add({"gauges": {"depth": 2}})
        assert aggregator.to_dict()["gauges"]["depth"] == 2

    def test_histograms_bucket_merge_gives_pooled_quantiles(self):
        bounds = (1.0, 2.0, 4.0)
        aggregator = MetricsAggregator()
        aggregator.add({"histograms":
                        {"h": hist_dump(bounds, [0.5, 0.5])}})
        aggregator.add({"histograms":
                        {"h": hist_dump(bounds, [3.0, 3.0])}})
        view = aggregator.to_dict()["histograms"]["h"]
        assert view["count"] == 4
        assert view["sum"] == pytest.approx(7.0)
        assert view["min"] == 0.5 and view["max"] == 3.0
        assert sum(view["buckets"]) == 4
        # pooled p95 must land in the (2, 4] bucket, not the mean
        assert 2.0 <= view["p95"] <= 4.0

    def test_bounds_mismatch_keeps_moments_drops_buckets(self):
        aggregator = MetricsAggregator()
        aggregator.add({"histograms":
                        {"h": hist_dump((1.0, 2.0), [0.5])}})
        aggregator.add({"histograms":
                        {"h": hist_dump((10.0,), [20.0])}})
        view = aggregator.to_dict()["histograms"]["h"]
        assert view["count"] == 2
        assert "buckets" not in view
        assert view["p50"] == pytest.approx(view["mean"])

    def test_merged_is_non_mutating(self):
        aggregator = MetricsAggregator()
        aggregator.add({"counters": {"a": 1}})
        composite = aggregator.merged({"counters": {"a": 5}})
        assert composite["counters"]["a"] == 6
        assert aggregator.to_dict()["counters"]["a"] == 1

    def test_tolerates_junk(self):
        aggregator = MetricsAggregator()
        aggregator.add(None)
        aggregator.add({"counters": {"a": "NaN-string"},
                        "histograms": {"h": "junk"}})
        merged = aggregator.to_dict()
        assert merged["counters"] == {}
        assert merged["histograms"] == {}


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


class TestPrometheusText:
    def test_split_metric_key(self):
        assert split_metric_key("a.b") == ("a.b", {})
        assert split_metric_key("a.b[k=v,k2=v2]") == \
            ("a.b", {"k": "v", "k2": "v2"})

    def test_sanitize(self):
        assert sanitize_metric_name("job.wait seconds") == \
            "job_wait_seconds"
        assert sanitize_metric_name("0abc")[0] == "_"

    def test_counter_family_remap(self):
        text = prometheus_text({"counters": {
            "service.points.executed[tenant=ana]": 8,
            "service.jobs.submitted": 2}})
        assert 'service_points_total{kind="executed",tenant="ana"} 8' \
            in text
        assert 'service_jobs_total{event="submitted"} 2' in text
        assert validate_prometheus_text(text) == []

    def test_integer_values_render_as_integers(self):
        text = prometheus_text({"counters": {"a": 8.0}})
        assert "a_total 8\n" in text

    def test_label_escaping(self):
        text = prometheus_text({"gauges":
                                {'g[k=a"b\\c]': 1.5}})
        assert 'g{k="a\\"b\\\\c"} 1.5' in text
        assert validate_prometheus_text(text) == []

    def test_histogram_series_roundtrip(self):
        dump = hist_dump((0.1, 1.0), [0.05, 0.5, 5.0])
        text = prometheus_text({"histograms": {"h[tenant=t]": dump}})
        assert validate_prometheus_text(text) == []
        assert '# TYPE h histogram' in text
        assert 'h_bucket{le="+Inf",tenant="t"} 3' in text
        assert 'h_count{tenant="t"} 3' in text

    def test_validator_catches_missing_type(self):
        assert validate_prometheus_text("a_total 3\n")

    def test_validator_catches_non_cumulative_buckets(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 5\n'
                'h_bucket{le="+Inf"} 3\n'
                "h_sum 1\nh_count 3\n")
        problems = validate_prometheus_text(text)
        assert any("cumulative" in p for p in problems)

    def test_validator_catches_inf_count_mismatch(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 3\n'
                "h_sum 1\nh_count 4\n")
        problems = validate_prometheus_text(text)
        assert any("+Inf" in p for p in problems)

    def test_validator_catches_garbage_lines(self):
        assert validate_prometheus_text("!!! not prometheus\n")

    def test_aggregated_service_snapshot_is_valid(self):
        aggregator = MetricsAggregator()
        aggregator.add({
            "counters": {"service.points.executed[tenant=a]": 5,
                         "worker.points[status=ok]": 5},
            "gauges": {"queue.depth[tenant=a]": 0},
            "histograms": {"service.point.seconds[tenant=a]":
                           hist_dump(LATENCY_BOUNDS,
                                     [0.01, 0.2, 1.5])},
        })
        text = prometheus_text(aggregator.to_dict())
        assert validate_prometheus_text(text) == []


# ---------------------------------------------------------------------------
# latency bounds + truncation accounting (satellites 1 and 2)
# ---------------------------------------------------------------------------


class TestLatencyBounds:
    def test_power_of_two_coverage(self):
        assert LATENCY_BOUNDS[0] == pytest.approx(2.0 ** -10)
        assert LATENCY_BOUNDS[-1] == pytest.approx(64.0)
        ratios = [b / a for a, b in zip(LATENCY_BOUNDS,
                                        LATENCY_BOUNDS[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_latency_histogram_quantiles_resolve_millis(self):
        hub = Telemetry()
        histogram = hub.metrics.histogram("job.wait_seconds",
                                          bounds=LATENCY_BOUNDS)
        for value in (0.002, 0.004, 0.008):
            histogram.observe(value)
        assert histogram.quantile(0.5) < 0.02


class TestTruncationAccounting:
    def test_export_writes_dropped_counter(self, tmp_path):
        hub = Telemetry(max_events=2)
        for _ in range(5):
            with hub.tracer.span("s", track="t"):
                pass
        paths = hub.export(tmp_path)
        metrics = json.loads(paths["metrics"].read_text())
        assert metrics["counters"]["trace.events.dropped"] == 3

    def test_check_warns_on_truncation(self, tmp_path, capsys):
        hub = Telemetry(max_events=2)
        for _ in range(5):
            with hub.tracer.span("s", track="t"):
                pass
        hub.export(tmp_path)
        code = observe_main(["check", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0  # truncation is a warning, not a failure
        assert "truncated" in captured.err
        assert "3 event(s)" in captured.err

    def test_check_silent_when_complete(self, tmp_path, capsys):
        hub = Telemetry()
        with hub.tracer.span("s", track="t"):
            pass
        hub.export(tmp_path)
        code = observe_main(["check", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "truncated" not in captured.err


class TestPromcheckCli:
    def test_valid_scrape_passes(self, tmp_path, capsys):
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(prometheus_text(
            {"counters": {"service.points.executed": 8}}))
        code = observe_main(["promcheck", str(scrape)])
        captured = capsys.readouterr()
        assert code == 0
        assert "ok:" in captured.out

    def test_invalid_scrape_fails(self, tmp_path, capsys):
        scrape = tmp_path / "metrics.prom"
        scrape.write_text("definitely not prometheus !!\n")
        code = observe_main(["promcheck", str(scrape)])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.err

    def test_missing_file_is_usage_error(self, capsys):
        code = observe_main(["promcheck", "/nonexistent/file.prom"])
        assert code == 2
