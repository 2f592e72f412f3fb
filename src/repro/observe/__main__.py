"""Terminal front-end for exported telemetry.

Usage::

    python -m repro.observe summary OUT_DIR      # human digest
    python -m repro.observe check OUT_DIR        # structural gate
    python -m repro.observe promcheck FILE       # Prometheus text gate

``OUT_DIR`` is a :meth:`repro.observe.Telemetry.export` output
directory (``trace.json`` + ``metrics.json``); individual file paths
are also accepted.  ``check`` exits non-zero when the Chrome trace is
structurally invalid (unmatched ``B``/``E`` spans, negative durations,
non-monotonic per-track timestamps) or any metric value is NaN/Inf —
the CI observability job gates on it.  A *truncated* trace (the tracer
hit its event cap and dropped events, or the service dropped executor
segments of a job) still passes but prints a warning, so a silently
partial trace never masquerades as a complete one.  ``promcheck``
validates a saved ``GET /metrics`` scrape as Prometheus text
exposition — the CI service-smoke job gates on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from . import (
    summarize_metrics_dump,
    validate_chrome_trace,
    validate_metrics,
    validate_prometheus_text,
)


def _resolve(path_argument: str) -> Tuple[Optional[Path], Optional[Path]]:
    """``(trace_path, metrics_path)`` for a directory or file path."""
    path = Path(path_argument)
    if path.is_dir():
        trace = path / "trace.json"
        metrics = path / "metrics.json"
        return (trace if trace.exists() else None,
                metrics if metrics.exists() else None)
    if path.name.startswith("metrics"):
        return None, path
    return path, None


def _load(path: Path) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _span_digest(trace: Dict[str, Any], top: int = 12) -> str:
    totals: Dict[str, list] = {}
    unclosed = 0
    for event in trace.get("traceEvents", []):
        phase = event.get("ph")
        if phase == "X":
            bucket = totals.setdefault(event.get("name", "?"),
                                       [0, 0.0])
            bucket[0] += 1
            bucket[1] += float(event.get("dur", 0.0))
        elif phase == "B":
            unclosed += 1
    lines = ["spans (by total wall time):",
             f"  {'name':<32} {'count':>9} {'total_ms':>10}"]
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][1])
    for name, (count, total_us) in ranked[:top]:
        lines.append(f"  {name:<32} {count:>9} {total_us / 1e3:>10.2f}")
    if unclosed:
        lines.append(f"  UNCLOSED spans: {unclosed}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command",
                        choices=("summary", "check", "promcheck"),
                        help="'summary' prints a digest; 'check' "
                        "validates structurally and exits non-zero "
                        "on problems; 'promcheck' validates a "
                        "Prometheus text exposition file")
    parser.add_argument("path", help="telemetry export directory "
                        "(or a trace.json / metrics.json path; for "
                        "promcheck, a saved /metrics scrape)")
    args = parser.parse_args(argv)

    if args.command == "promcheck":
        try:
            text = Path(args.path).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        prom_problems = validate_prometheus_text(text)
        if prom_problems:
            for problem in prom_problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        samples = sum(1 for line in text.splitlines()
                      if line.strip() and not line.startswith("#"))
        print(f"ok: {args.path} ({samples} sample(s))")
        return 0

    trace_path, metrics_path = _resolve(args.path)
    if trace_path is None and metrics_path is None:
        print(f"error: no trace.json or metrics.json under "
              f"{args.path!r}", file=sys.stderr)
        return 2

    problems = []
    trace = metrics = None
    if trace_path is not None:
        try:
            trace = _load(trace_path)
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{trace_path}: unreadable ({exc})")
    if metrics_path is not None:
        try:
            metrics = _load(metrics_path)
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{metrics_path}: unreadable ({exc})")

    if args.command == "check":
        if trace is not None:
            problems.extend(validate_chrome_trace(trace))
        if metrics is not None:
            problems.extend(validate_metrics(metrics))
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        if isinstance(trace, dict):
            other = trace.get("otherData") or {}
            dropped = other.get("dropped_events") or 0
            if dropped:
                # truncation is not a structural failure (everything
                # recorded is still valid) but must not pass silently
                print(f"warning: trace truncated — {dropped} "
                      "event(s) dropped at the tracer cap "
                      "(raise max_events to capture them)",
                      file=sys.stderr)
            segments = other.get("dropped_segments") or 0
            if segments:
                print(f"warning: trace truncated — {segments} "
                      "executor segment(s) dropped by the service's "
                      "retention bounds", file=sys.stderr)
        checked = [str(p) for p in (trace_path, metrics_path) if p]
        print(f"ok: {', '.join(checked)}")
        return 0

    # summary
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    sections = []
    if trace is not None:
        sections.append(_span_digest(trace))
    if metrics is not None:
        sections.append(summarize_metrics_dump(metrics))
    print("\n\n".join(sections) if sections
          else "no telemetry found")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `... summary DIR | head`
        sys.exit(0)
