"""Tests for `repro.observe`: tracer, metrics registry, exporters,
simulator/campaign integration, and the satellite guarantees (VCD
writer behavior, `Trace.watch` channel ownership, disabled-path
overhead)."""

import io
import json
import time

import numpy as np
import pytest

from repro.campaign import Campaign, RunRecord, Sweep, run_campaign
from repro.campaign.records import (
    SCHEMA_VERSION,
    CampaignResults,
    VOLATILE_FIELDS,
)
from repro.core import (
    Module,
    Signal,
    SimTime,
    Simulator,
    Trace,
    VcdWriter,
)
from repro.core.errors import SimulationError
from repro.eln import Capacitor, Network, Resistor, Vsource
from repro.lib import SineSource, TdfSink
from repro.observe import (
    MetricsRegistry,
    Telemetry,
    Tracer,
    chrome_trace_events,
    find_non_finite,
    metric_key,
    summarize,
    validate_chrome_trace,
    validate_metrics,
    write_trace_jsonl,
)
from repro.observe.tracer import NULL_SPAN
from repro.sync import ElnTdfModule
from repro.tdf import TdfSignal


def us(x):
    return SimTime(x, "us")


def ms(x):
    return SimTime(x, "ms")


class ToneTop(Module):
    """Minimal all-TDF system: sine source into a recording sink."""

    def __init__(self, timestep=us(100)):
        super().__init__("top")
        self.src = SineSource("src", frequency=1e3, parent=self,
                              timestep=timestep)
        self.sink = TdfSink("sink", parent=self)
        sig = TdfSignal("sig")
        self.src.out(sig)
        self.sink.inp(sig)

    def metrics(self):
        samples = np.asarray(self.sink.samples)
        return {"rms": float(np.sqrt(np.mean(samples ** 2)))}


class RcTop(Module):
    """TDF source driving an ELN RC network (embedded CT solver)."""

    def __init__(self):
        super().__init__("top")
        net = Network()
        net.add(Vsource("Vin", "in", "0"))
        net.add(Resistor("R1", "in", "out", 1e3))
        net.add(Capacitor("C1", "out", "0", 1e-6))
        self.src = SineSource("src", frequency=1e3, parent=self,
                              timestep=us(10))
        self.rc = ElnTdfModule("rc", net, parent=self)
        self.sink = TdfSink("sink", parent=self)
        s_in, s_out = TdfSignal("s_in"), TdfSignal("s_out")
        self.src.out(s_in)
        self.rc.drive_voltage("Vin")(s_in)
        self.rc.sample_voltage("out")(s_out)
        self.sink.inp(s_out)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_span_context_manager_records(self):
        tracer = Tracer()
        with tracer.span("work", track="kernel", size=3):
            pass
        assert len(tracer) == 1
        spans = tracer.spans_named("work")
        assert len(spans) == 1
        _start, duration, attrs = spans[0]
        assert duration >= 0.0
        assert attrs == {"size": 3}
        assert tracer.open_spans() == []

    def test_nested_spans_and_tracks(self):
        tracer = Tracer()
        with tracer.span("outer", track="a"):
            with tracer.span("inner", track="b"):
                pass
        # Inner closes (and records) first; both tracks are visible.
        assert [e[1] for e in tracer.events] == ["inner", "outer"]
        assert set(tracer.tracks()) == {"a", "b"}

    def test_complete_hot_path_form(self):
        tracer = Tracer()
        start = time.perf_counter()
        tracer.complete("step", start, 0.25, track="solver.rc",
                        attrs={"t": 1.0})
        (_kind, name, track, _ts, duration, attrs), = tracer.events
        assert (name, track, duration) == ("step", "solver.rc", 0.25)
        assert attrs == {"t": 1.0}

    def test_instant_event(self):
        tracer = Tracer()
        tracer.instant("escalation", track="resilience", tier="bdf")
        (kind, name, _track, _ts, duration, attrs), = tracer.events
        assert (kind, name, duration) == ("instant", "escalation", 0.0)
        assert attrs == {"tier": "bdf"}

    def test_max_events_cap_counts_dropped(self):
        tracer = Tracer(max_events=3)
        for k in range(10):
            tracer.instant(f"e{k}")
        assert len(tracer.events) == 3
        assert tracer.dropped == 7

    def test_open_spans_reported(self):
        tracer = Tracer()
        handle = tracer.span("leaky")
        assert tracer.open_spans() == ["leaky"]
        handle.close()
        assert tracer.open_spans() == []
        handle.close()  # double-close is harmless
        assert len(tracer.events) == 1

    def test_span_records_error_attribute(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (_k, _n, _t, _ts, _d, attrs), = tracer.events
        assert attrs["error"] == "RuntimeError"

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("x")
        assert span is NULL_SPAN
        with span:
            span.set(a=1)
        tracer.instant("y")
        tracer.complete("z", 0.0, 1.0)
        assert len(tracer.events) == 0


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("solver.steps")
        counter.inc()
        counter.inc(4.0)
        assert counter.value == 5.0
        assert registry.counter("solver.steps") is counter

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(7)
        gauge.inc(2)
        assert gauge.value == 9.0

    def test_histogram_statistics(self):
        hist = MetricsRegistry().histogram("batch")
        for value in (1, 1, 2, 4, 8):
            hist.observe(value)
        assert hist.count == 5
        assert hist.total == 16.0
        assert hist.mean == pytest.approx(3.2)
        assert hist.minimum == 1.0 and hist.maximum == 8.0
        dump = hist.to_dict()
        assert dump["count"] == 5 and dump["max"] == 8.0
        assert 0.0 <= dump["p50"] <= dump["p95"] <= 8.0

    def test_metric_key_sorts_labels(self):
        assert metric_key("a", {}) == "a"
        assert metric_key("a", {"z": 1, "b": "x"}) == "a[b=x,z=1]"

    def test_registry_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("n", cluster="c0")
        with pytest.raises(TypeError):
            registry.gauge("n", cluster="c0")
        # same name, different labels is a different metric
        registry.gauge("n", cluster="c1")

    def test_scalars_flattens_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(2.0)
        flat = registry.scalars()
        assert flat["c"] == 3.0
        assert flat["h.count"] == 1.0 and flat["h.sum"] == 2.0
        assert "h.p95" in flat

    def test_update_scalars_merges(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.update_scalars({"c": 10.0, "new.gauge": 4.0})
        assert registry.counter("c").value == 10.0
        assert registry.gauge("new.gauge").value == 4.0

    def test_find_non_finite(self):
        dump = {"gauges": {"ok": 1.0, "bad": float("nan")},
                "histograms": {"h": {"sum": float("inf")}}}
        bad = find_non_finite(dump)
        assert "gauges.bad" in bad
        assert "histograms.h.sum" in bad
        assert not find_non_finite({"gauges": {"ok": 0.0}})


# ---------------------------------------------------------------------------
# exporters and validators
# ---------------------------------------------------------------------------

class TestExporters:
    def _tracer(self):
        tracer = Tracer()
        with tracer.span("outer", track="kernel"):
            with tracer.span("inner", track="kernel"):
                pass
        tracer.instant("mark", track="resilience")
        return tracer

    def test_chrome_trace_structure(self):
        events = chrome_trace_events(self._tracer())
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {m["args"]["name"] for m in metadata} == \
            {"kernel", "resilience"}
        assert {s["name"] for s in spans} == {"outer", "inner"}
        assert all(s["dur"] >= 0 for s in spans)
        assert len(instants) == 1
        body = [e for e in events if e["ph"] != "M"]
        assert body == sorted(body, key=lambda e: (e["tid"], e["ts"]))

    def test_unclosed_span_flagged(self):
        tracer = Tracer()
        tracer.span("leaky", track="kernel")  # never closed
        payload = {"traceEvents": chrome_trace_events(tracer)}
        problems = validate_chrome_trace(payload)
        assert any("leaky" in p for p in problems)

    def test_validate_chrome_trace_accepts_valid(self):
        payload = {"traceEvents": chrome_trace_events(self._tracer())}
        assert validate_chrome_trace(payload) == []
        assert validate_chrome_trace([]) != []  # wrong top-level shape

    def test_validate_metrics_flags_nan(self):
        assert validate_metrics({"gauges": {"x": 1.0}}) == []
        problems = validate_metrics({"gauges": {"x": float("nan")}})
        assert problems and "x" in problems[0]

    def test_trace_jsonl_roundtrip(self):
        buffer = io.StringIO()
        write_trace_jsonl(self._tracer(), buffer)
        records = [json.loads(line) for line
                   in buffer.getvalue().splitlines()]
        assert len(records) == 3
        assert {r["kind"] for r in records} == {"span", "instant"}
        assert all({"name", "track", "ts", "dur"} <= r.keys()
                   for r in records)

    def test_summarize_mentions_span_and_metric_names(self):
        registry = MetricsRegistry()
        registry.counter("tdf.periods").inc(5)
        text = summarize(self._tracer(), registry,
                         extra={"solver.steps": 12.0})
        assert "outer" in text
        assert "tdf.periods" in text
        assert "solver.steps" in text


# ---------------------------------------------------------------------------
# the Telemetry hub
# ---------------------------------------------------------------------------

class TestTelemetry:
    def test_coerce_off(self):
        assert Telemetry.coerce(None) is None
        assert Telemetry.coerce(False) is None

    def test_coerce_modes(self):
        on = Telemetry.coerce(True)
        assert on.spans and on.detail == "normal" and not on.fine
        assert Telemetry.coerce("on").spans
        metrics_only = Telemetry.coerce("metrics")
        assert not metrics_only.spans
        fine = Telemetry.coerce("fine")
        assert fine.fine
        hub = Telemetry()
        assert Telemetry.coerce(hub) is hub

    def test_coerce_invalid_raises(self):
        with pytest.raises(ValueError):
            Telemetry.coerce("verbose")
        with pytest.raises(ValueError):
            Telemetry(detail="extreme")

    def test_export_writes_three_valid_files(self, tmp_path):
        hub = Telemetry()
        with hub.tracer.span("s", track="kernel"):
            pass
        hub.metrics.counter("c").inc()
        paths = hub.export(tmp_path / "out", extra_metrics={"x": 1.0})
        for key in ("chrome", "jsonl", "metrics"):
            assert paths[key].exists()
        with open(paths["chrome"]) as handle:
            assert validate_chrome_trace(json.load(handle)) == []
        with open(paths["metrics"]) as handle:
            dump = json.load(handle)
        assert validate_metrics(dump) == []
        assert dump["counters"]["c"] == 1.0
        assert dump["gauges"]["x"] == 1.0

    def test_ambient_install_and_restore(self):
        from repro.observe import current

        assert current() is None
        hub = Telemetry()
        with hub.ambient():
            assert current() is hub
        assert current() is None


# ---------------------------------------------------------------------------
# simulator integration
# ---------------------------------------------------------------------------

class TestSimulatorIntegration:
    def test_observe_disabled_installs_nothing(self):
        simulator = Simulator(ToneTop())
        simulator.run(ms(10))
        assert simulator.telemetry is None
        assert simulator.kernel.telemetry is None
        assert simulator.kernel._h_events_per_delta is None
        for cluster in simulator.tdf_registry.clusters:
            assert cluster.telemetry is None
        for module in simulator.top.walk():
            assert getattr(module, "_telemetry", None) is None

    def test_tdf_run_records_spans_and_metrics(self):
        simulator = Simulator(ToneTop(), observe=True)
        simulator.run(ms(10))
        tracer = simulator.telemetry.tracer
        assert tracer.open_spans() == []
        names = {event[1] for event in tracer.events}
        assert {"elaborate", "simulate.run", "cluster.activate"} <= names
        assert any(track.startswith("tdf.") for track in tracer.tracks())
        flat = simulator.telemetry.metrics.scalars()
        assert flat["tdf.periods[cluster=cluster0]"] > 0
        assert flat["moc.tdf.seconds"] > 0
        assert flat["simulate.run.seconds"] > 0
        payload = {"traceEvents": chrome_trace_events(tracer)}
        assert validate_chrome_trace(payload) == []

    def test_fine_detail_records_delta_spans(self):
        simulator = Simulator(ToneTop(), observe="fine")
        simulator.run(ms(2))
        tracer = simulator.telemetry.tracer
        assert tracer.spans_named("kernel.delta")
        assert "kernel" in tracer.tracks()

    def test_metrics_only_mode_records_no_spans(self):
        simulator = Simulator(ToneTop(), observe="metrics")
        simulator.run(ms(2))
        assert len(simulator.telemetry.tracer.events) == 0
        flat = simulator.telemetry.metrics.scalars()
        assert flat["tdf.periods[cluster=cluster0]"] > 0

    def test_metrics_snapshot_without_telemetry(self):
        simulator = Simulator(RcTop())
        simulator.run(ms(2))
        snap = simulator.metrics_snapshot()
        assert snap["kernel.delta_cycles"] > 0
        assert snap["tdf.activations"] > 0
        assert snap["solver.steps"] > 0
        assert snap["solver.steps[module=top.rc]"] > 0
        # tier keys are zero-defaulted so dashboards can rely on them
        for tier in ("primary", "halved", "bdf"):
            assert f"resilience.tier.{tier}" in snap
        assert not any(np.isnan(v) for v in snap.values())

    def test_eln_solver_telemetry(self):
        simulator = Simulator(RcTop(), observe=True)
        simulator.run(ms(2))
        snap = simulator.metrics_snapshot()
        assert snap["moc.eln.seconds"] > 0
        assert snap["moc.tdf.seconds"] >= snap["moc.eln.seconds"]
        # a plain linear solve never escalates, but the tier keys are
        # still present (zero-defaulted)
        assert snap["resilience.tier.primary"] == 0.0
        assert simulator.telemetry.tracer.open_spans() == []

    def test_module_seconds_only_with_telemetry(self):
        # Telemetry is the one timing channel: each TDF module's wall
        # time is a counter of the hub, and the snapshot adds exactly
        # the registry's metrics to the telemetry-off keys.
        plain = Simulator(RcTop())
        plain.run(ms(2))
        assert not any(key.startswith("tdf.module_seconds")
                       for key in plain.metrics_snapshot())
        simulator = Simulator(RcTop(), observe="metrics")
        simulator.run(ms(2))
        flat = simulator.telemetry.metrics.scalars()
        seconds = {name: flat[f"tdf.module_seconds[module={name}]"]
                   for name in ("top.src", "top.rc", "top.sink")}
        assert all(value > 0 for value in seconds.values())
        assert sum(seconds.values()) <= flat["moc.tdf.seconds"]
        snap = simulator.metrics_snapshot()
        assert set(snap) == set(plain.metrics_snapshot()) | set(flat)

    def test_export_telemetry_files(self, tmp_path):
        simulator = Simulator(ToneTop(), observe=True)
        simulator.run(ms(5))
        paths = simulator.export_telemetry(tmp_path / "telemetry")
        with open(paths["chrome"]) as handle:
            assert validate_chrome_trace(json.load(handle)) == []
        with open(paths["metrics"]) as handle:
            dump = json.load(handle)
        assert validate_metrics(dump) == []
        # harvested snapshot is merged into the gauges section
        assert dump["gauges"]["kernel.delta_cycles"] > 0

    def test_export_telemetry_requires_observe(self, tmp_path):
        simulator = Simulator(ToneTop())
        simulator.run(ms(1))
        with pytest.raises(SimulationError):
            simulator.export_telemetry(tmp_path)


# ---------------------------------------------------------------------------
# campaign integration and record schema v2
# ---------------------------------------------------------------------------

def _build_tone(params):
    return Simulator(ToneTop(), observe=False)


class TestCampaignTelemetry:
    def test_build_campaign_attaches_snapshot(self):
        campaign = Campaign(
            name="tone", space=Sweep({"freq": [1.0, 2.0]}),
            build=_build_tone, duration=ms(5), seed_key=None)
        results = run_campaign(campaign, workers=1, use_cache=False)
        for record in results:
            assert record.schema == SCHEMA_VERSION
            assert record.metrics_telemetry is not None
            assert record.metrics_telemetry["kernel.delta_cycles"] > 0
        steps = results.telemetry_metric("kernel.delta_cycles")
        assert len(steps) == 2 and (steps > 0).all()

    def test_run_style_campaign_has_no_snapshot(self):
        campaign = Campaign(
            name="fn", space=Sweep({"x": [1.0]}),
            run=lambda params: {"y": params["x"]}, root_seed=1)
        results = run_campaign(campaign, workers=1, use_cache=False)
        assert results[0].metrics_telemetry is None
        assert results.telemetry_metric("anything").size == 0

    def test_v1_record_back_compat(self, tmp_path):
        v1_line = json.dumps({
            "index": 0, "params": {"a": 1}, "seed": 7,
            "status": "ok", "metrics": {"m": 2.0}, "error": None,
            "failure_kind": None, "wall_time": 0.1, "attempts": 1,
            "cached": False,
        })
        path = tmp_path / "records.jsonl"
        path.write_text(v1_line + "\n")
        results = CampaignResults.read_jsonl(path)
        record = results[0]
        assert record.schema == 1
        assert record.metrics_telemetry is None
        assert record.metrics["m"] == 2.0
        # round-trips as v1 content under the current writer
        results.write_jsonl(path)
        again = CampaignResults.read_jsonl(path)[0]
        assert again.schema == 1 and again.metrics_telemetry is None

    def test_fingerprint_ignores_telemetry(self):
        base = dict(index=0, params={"a": 1}, seed=3,
                    metrics={"m": 1.0})
        bare = RunRecord(**base)
        loaded = RunRecord(**base, metrics_telemetry={"solver.steps": 9},
                           schema=1)
        assert "metrics_telemetry" in VOLATILE_FIELDS
        assert CampaignResults([bare]).fingerprint() == \
            CampaignResults([loaded]).fingerprint()


# ---------------------------------------------------------------------------
# Trace.watch channel ownership (regression)
# ---------------------------------------------------------------------------

class TestTraceWatch:
    def test_watch_same_signal_twice_returns_channel(self):
        trace = Trace()
        signal = Signal("data", initial=0)
        first = trace.watch(signal, "data")
        assert trace.watch(signal, "data") is first

    def test_watch_conflicting_signal_raises(self):
        trace = Trace()
        trace.watch(Signal("a", initial=0), "data")
        with pytest.raises(ValueError, match="already watches"):
            trace.watch(Signal("b", initial=0), "data")
        # a distinct explicit name resolves the conflict
        trace.watch(Signal("b", initial=0), "data_b")


# ---------------------------------------------------------------------------
# VcdWriter direct tests
# ---------------------------------------------------------------------------

class TestVcdWriterDirect:
    def _trace(self):
        trace = Trace()
        trace.sample("v", 500, 1.5)
        trace.sample("v", 0, 0.5)
        trace.sample("n", 250, 3)
        return trace

    def test_header_layout_and_timescale(self):
        stream = io.StringIO()
        VcdWriter(self._trace(), timescale="10 ps").write(stream)
        lines = stream.getvalue().splitlines()
        assert lines[0] == "$timescale 10 ps $end"
        assert lines[1] == "$scope module top $end"
        upscope = lines.index("$upscope $end")
        assert lines[upscope + 1] == "$enddefinitions $end"
        assert all(line.startswith("$var")
                   for line in lines[2:upscope])

    def test_value_changes_time_ordered(self):
        stream = io.StringIO()
        VcdWriter(self._trace()).write(stream)
        stamps = [int(line[1:]) for line
                  in stream.getvalue().splitlines()
                  if line.startswith("#")]
        assert stamps == sorted(stamps) == [0, 250, 500]

    def test_write_is_reopen_safe(self):
        writer = VcdWriter(self._trace())
        first, second = io.StringIO(), io.StringIO()
        writer.write(first)
        writer.write(second)
        assert first.getvalue() == second.getvalue()

    def test_empty_trace_emits_valid_header(self):
        stream = io.StringIO()
        VcdWriter(Trace()).write(stream)
        text = stream.getvalue()
        assert "$timescale" in text
        assert "$enddefinitions $end" in text
        assert "#" not in text


# ---------------------------------------------------------------------------
# overhead guard
# ---------------------------------------------------------------------------

def _timed_run(observe, repeats=3):
    """Best-of-N wall time of a fixed small simulation."""
    best = float("inf")
    for _ in range(repeats):
        simulator = Simulator(ToneTop(timestep=us(50)), observe=observe)
        start = time.perf_counter()
        simulator.run(ms(50))
        best = min(best, time.perf_counter() - start)
    return best


class TestOverhead:
    def test_disabled_path_leaves_hot_loops_unhooked(self):
        # The structural half of the "within noise" guarantee: with
        # observe off, every per-event call site short-circuits on a
        # single pre-bound None (no registry lookups, no spans).
        simulator = Simulator(ToneTop())
        simulator.elaborate()
        assert simulator.telemetry is None
        assert simulator.kernel._h_events_per_delta is None
        assert simulator.kernel._fine_tracer is None
        cluster = simulator.tdf_registry.clusters[0]
        assert cluster.telemetry is None
        assert getattr(cluster, "_m_seconds", None) is None

    def test_enabled_overhead_within_documented_bound(self):
        # Documented bound (TUTORIAL §9 / ISSUE): normal-detail spans
        # + metrics stay within 2x of the untelemetered engine.  The
        # comparison uses best-of-N timings so scheduler noise cannot
        # produce false failures; the instrumentation cost is per
        # cluster *batch*, far off the per-sample hot path.
        disabled = _timed_run(observe=None)
        enabled = _timed_run(observe=True)
        assert enabled <= max(2.0 * disabled, disabled + 0.05), (
            f"telemetry overhead too high: {enabled:.4f}s vs "
            f"{disabled:.4f}s disabled"
        )
