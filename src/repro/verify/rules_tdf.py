"""Timed-dataflow cluster checks (TDF0xx).

TDF004-TDF008 report the findings of elaboration's own cluster
analysis (rate solving, timestep propagation, schedule synthesis; see
:class:`~repro.tdf.TdfCluster`), which records every finding instead of
raising the first, so one broken stage does not hide findings from the
others.
"""

from __future__ import annotations

from typing import Iterator

from .context import VerifyContext
from .diagnostics import Diagnostic
from .registry import rule


@rule("TDF001", domain="tdf", severity="error")
def unbound_tdf_port(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A TDF port is not bound to any TDF signal."""
    for module in ctx.tdf_modules:
        for port in module.tdf_ports():
            if port.signal is None:
                yield ctx.diag(
                    "TDF001", "error", port.full_name(),
                    f"TDF {port.direction}-port is unbound",
                    hint="bind it to a TdfSignal shared with its peer "
                         "module",
                )


@rule("TDF002", domain="tdf", severity="error")
def signal_without_writer(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A TDF signal is read but no out-port drives it."""
    for cluster in ctx.clusters:
        for signal in cluster.signals:
            if signal.writer is None and signal.readers:
                readers = sorted(r.full_name() for r in signal.readers)
                yield ctx.diag(
                    "TDF002", "error", signal.name,
                    f"signal has {len(signal.readers)} reader(s) but "
                    f"no writer",
                    hint="bind a TdfOut port to the signal",
                    readers=readers,
                )


@rule("TDF003", domain="tdf", severity="warning")
def signal_without_readers(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A TDF signal is written but never read."""
    for cluster in ctx.clusters:
        for signal in cluster.signals:
            if signal.writer is not None and not signal.readers:
                yield ctx.diag(
                    "TDF003", "warning", signal.name,
                    f"samples written by "
                    f"{signal.writer.full_name()!r} are never read",
                    hint="connect a TdfIn port or remove the signal",
                )


@rule("TDF004", domain="tdf", severity="error")
def rate_inconsistent_cluster(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """TDF balance equations admit no consistent repetition vector."""
    for cluster in ctx.clusters:
        for location, detail in cluster.rate_conflicts:
            yield ctx.diag(
                "TDF004", "error", location,
                f"cluster {cluster.name} is rate-inconsistent: {detail}",
                hint="adjust port rates so producer and consumer sample "
                     "counts balance along every path",
            )


@rule("TDF005", domain="tdf", severity="error")
def no_timestep_in_cluster(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """No module or port of a cluster declares a timestep."""
    for cluster in ctx.clusters:
        if cluster.timestep_missing:
            members = sorted(m.full_name() for m in cluster.modules)
            yield ctx.diag(
                "TDF005", "error", members[0],
                f"cluster {cluster.name} ({len(members)} module(s)) "
                f"has no timestep; at least one module or port must "
                f"call set_timestep()",
                hint="call set_timestep() in some member's "
                     "set_attributes()",
                members=members,
            )


@rule("TDF006", domain="tdf", severity="error")
def conflicting_timesteps(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Two timestep declarations imply different cluster periods."""
    for cluster in ctx.clusters:
        for location, detail in cluster.timestep_conflicts:
            yield ctx.diag(
                "TDF006", "error", location,
                f"conflicting timestep constraint: {detail}",
                hint="declare the timestep once, or make the "
                     "declarations consistent with the rate ratios",
            )


@rule("TDF007", domain="tdf", severity="error")
def timestep_not_divisible(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """The cluster period does not divide evenly over rates."""
    for cluster in ctx.clusters:
        for location, detail in cluster.divisibility_errors:
            yield ctx.diag(
                "TDF007", "error", location,
                detail,
                hint="choose a cluster timestep divisible by every "
                     "module's activation count and port rate",
            )


@rule("TDF008", domain="tdf", severity="error")
def cluster_deadlock(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A zero-delay feedback loop makes the cluster unschedulable."""
    for cluster in ctx.clusters:
        if not cluster.deadlocked:
            continue
        cycles = [" -> ".join(cycle) for cycle in cluster.cycles]
        detail = (f"; zero-delay cycles: {cycles}" if cycles else "")
        yield ctx.diag(
            "TDF008", "error", cluster.deadlocked[0],
            f"cluster {cluster.name} deadlocks; modules never "
            f"scheduled: {cluster.deadlocked}{detail}",
            hint="break each feedback loop with an out-port delay "
                 "(set_delay) providing the initial samples",
            stuck=cluster.deadlocked,
            cycles=cluster.cycles,
        )


@rule("TDF009", domain="tdf", severity="info")
def batching_pinned(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A module pins its cluster to unbatched one-period execution."""
    for cluster in ctx.clusters:
        for module in cluster.batching_pinned_by():
            cause = ("batch_unsafe=True" if module.batch_unsafe
                     else "raw DE ports held as attributes")
            yield ctx.diag(
                "TDF009", "info", module.full_name(),
                f"{cause} disables period batching for the whole "
                f"cluster {cluster.name}",
                hint="use converter ports (TdfDeIn/TdfDeOut) or drop "
                     "batch_unsafe if the module is batch-tolerant",
            )


@rule("TDF010", domain="tdf", severity="error")
def invalid_port_attributes(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A TDF port carries a non-positive rate or negative delay."""
    for module in ctx.tdf_modules:
        for port in module.tdf_ports():
            if port.rate < 1:
                yield ctx.diag(
                    "TDF010", "error", port.full_name(),
                    f"port rate {port.rate} must be >= 1",
                    hint="pass rate >= 1 (or call set_rate in "
                         "set_attributes)",
                )
            if port.delay < 0:
                yield ctx.diag(
                    "TDF010", "error", port.full_name(),
                    f"port delay {port.delay} must be >= 0",
                    hint="delays count initial samples and cannot be "
                         "negative",
                )
