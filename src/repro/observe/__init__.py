"""`repro.observe` — unified simulation telemetry.

The paper's design objectives demand that the layered kernel (DE ↔ TDF
↔ CT/ELN synchronization) be *inspectable*: arguing schedule validity,
solver accuracy, or sync consistency requires seeing what the kernel
actually did.  This package is the common event model those arguments
stand on:

* :class:`~repro.observe.tracer.Tracer` — span/instant recording onto
  per-component tracks (kernel, clusters, solvers, elaboration);
* :class:`~repro.observe.metrics.MetricsRegistry` — counters, gauges
  and histograms with stable names (see ``docs/TUTORIAL.md`` §9 for
  the name contract);
* exporters — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``), structured JSONL, and the terminal summary
  behind ``python -m repro.observe``.

Everything hangs off one :class:`Telemetry` hub, installed with
``Simulator(top, observe=True)`` (or an explicit ``Telemetry``
instance).  It is the only timing channel: with a hub installed, each
TDF cluster adds the wall time of every schedule entry to
``tdf.module_seconds[module=<name>]``.  When no hub is installed the
instrumented layers skip their guards entirely — the disabled path
costs one ``is None`` test per cluster wake-up, nothing per sample.

Effort counters that need no clock (solver steps, factorizations,
resilience tiers, health checks) are not metrics of the hub: solvers
and modules report them through ``stats()``, and
``Simulator.metrics_snapshot`` folds them in with or without a hub.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Any, Dict, Optional

from .exporters import (
    chrome_trace_events,
    summarize,
    summarize_metrics_dump,
    validate_chrome_trace,
    validate_metrics,
    write_chrome_trace,
    write_metrics_json,
    write_trace_jsonl,
)
from .fleet import (
    MetricsAggregator,
    TraceContext,
    prometheus_text,
    stitch_job_trace,
    telemetry_payload,
    validate_prometheus_text,
)
from .metrics import (
    LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    find_non_finite,
    metric_key,
)
from .tracer import DEFAULT_MAX_EVENTS, SpanHandle, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BOUNDS",
    "MetricsAggregator",
    "MetricsRegistry",
    "SpanHandle",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "chrome_trace_events",
    "current",
    "find_non_finite",
    "metric_key",
    "prometheus_text",
    "stitch_job_trace",
    "summarize",
    "summarize_metrics_dump",
    "telemetry_payload",
    "validate_chrome_trace",
    "validate_metrics",
    "validate_prometheus_text",
    "write_chrome_trace",
    "write_metrics_json",
    "write_trace_jsonl",
]

#: span detail levels: ``"normal"`` records cluster wake-ups, kernel
#: run segments, elaboration phases and resilience escalations;
#: ``"fine"`` adds per-solver-advance and per-delta-cycle spans.
DETAIL_LEVELS = ("normal", "fine")


class Telemetry:
    """One run's telemetry hub: a tracer plus a metrics registry.

    Parameters
    ----------
    spans:
        Record spans/instants (``False`` keeps metrics only; span
        call sites degrade to shared no-ops).
    detail:
        ``"normal"`` or ``"fine"`` — see :data:`DETAIL_LEVELS`.
    max_events:
        Tracer buffer cap; overflowing events are counted in
        ``tracer.dropped`` rather than recorded.
    """

    def __init__(self, spans: bool = True, detail: str = "normal",
                 max_events: int = DEFAULT_MAX_EVENTS):
        if detail not in DETAIL_LEVELS:
            raise ValueError(
                f"detail must be one of {DETAIL_LEVELS}; got {detail!r}"
            )
        self.tracer = Tracer(enabled=spans, max_events=max_events)
        self.metrics = MetricsRegistry()
        self.detail = detail

    @property
    def spans(self) -> bool:
        return self.tracer.enabled

    @property
    def fine(self) -> bool:
        return self.detail == "fine" and self.tracer.enabled

    # -- construction shorthand ---------------------------------------------

    @classmethod
    def coerce(cls, value: Any) -> Optional["Telemetry"]:
        """Normalize ``Simulator(observe=...)`` arguments.

        ``None``/``False`` → no telemetry; ``True``/``"on"`` → spans at
        normal detail; ``"metrics"`` → registry only (no spans);
        ``"fine"`` → fine-grained spans; a :class:`Telemetry` instance
        passes through (sharing one hub across simulators is allowed —
        e.g. a restore-from-checkpoint pair).
        """
        if value is None or value is False:
            return None
        if isinstance(value, Telemetry):
            return value
        if value is True or value == "on":
            return cls()
        if value == "metrics":
            return cls(spans=False)
        if value == "fine":
            return cls(detail="fine")
        raise ValueError(
            "observe must be None/False, True/'on', 'metrics', 'fine' "
            f"or a Telemetry instance; got {value!r}"
        )

    # -- export --------------------------------------------------------------

    def export(self, directory,
               extra_metrics: Optional[Dict[str, float]] = None
               ) -> Dict[str, Path]:
        """Write ``trace.json`` (Chrome/Perfetto), ``trace.jsonl`` and
        ``metrics.json`` under ``directory``; returns the paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "chrome": directory / "trace.json",
            "jsonl": directory / "trace.jsonl",
            "metrics": directory / "metrics.json",
        }
        # A truncated trace must be *visible* downstream, not just in
        # the in-memory tracer: mirror the drop count into the metrics
        # dump so `repro.observe check` and fleet aggregation see it.
        if self.tracer.dropped:
            self.metrics.counter("trace.events.dropped").value = \
                float(self.tracer.dropped)
        with open(paths["chrome"], "w", encoding="utf-8") as handle:
            write_chrome_trace(self.tracer, handle)
        with open(paths["jsonl"], "w", encoding="utf-8") as handle:
            write_trace_jsonl(self.tracer, handle)
        with open(paths["metrics"], "w", encoding="utf-8") as handle:
            write_metrics_json(self.metrics, handle, extra_metrics)
        return paths

    def summary(self, extra: Optional[Dict[str, float]] = None) -> str:
        return summarize(self.tracer, self.metrics, extra)

    def chrome_trace(self) -> Dict[str, Any]:
        """The Chrome trace payload as a Python object (for tests)."""
        return json.loads(_dumps_chrome(self))

    # -- ambient access ------------------------------------------------------

    @contextlib.contextmanager
    def ambient(self):
        """Install this hub as the process-ambient telemetry.

        Free functions with no path to a simulator (e.g. the homotopy
        ladders in :mod:`repro.resilience.homotopy`) report through
        :func:`current`; the :class:`~repro.core.Simulator` wraps
        ``elaborate()``/``run()`` in this context.
        """
        global _CURRENT
        previous = _CURRENT
        _CURRENT = self
        try:
            yield self
        finally:
            _CURRENT = previous


_CURRENT: Optional[Telemetry] = None


def current() -> Optional[Telemetry]:
    """The ambient :class:`Telemetry` hub, or ``None``."""
    return _CURRENT


def _dumps_chrome(telemetry: Telemetry) -> str:
    import io

    buffer = io.StringIO()
    write_chrome_trace(telemetry.tracer, buffer)
    return buffer.getvalue()
