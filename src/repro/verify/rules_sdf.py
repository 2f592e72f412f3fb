"""Untimed SDF graph checks (SDF0xx).

SDF001, SDF002 and SDF005 run :class:`~repro.sdf.SdfGraph`'s own rate
analysis and token simulation, the ones its scheduler runs.
"""

from __future__ import annotations

from typing import Iterator

from ..core.errors import SchedulingError
from .context import VerifyContext
from .diagnostics import Diagnostic
from .registry import rule

#: Edges whose statically predicted peak occupancy exceeds this many
#: tokens per schedule period are reported by SDF005.
DEFAULT_BUFFER_LIMIT = 4096


def _token_run(graph):
    """(sorted stuck actor names, peak occupancy per edge) of one
    period's token simulation, or None when the graph's rates are
    inconsistent (SDF001 reports the graph already)."""
    try:
        _entries, stuck, peak = graph.token_run()
    except SchedulingError:
        return None
    return sorted(actor.name for actor in stuck), peak


@rule("SDF001", domain="sdf", severity="error")
def sdf_rate_inconsistent(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """SDF balance equations admit only the zero solution."""
    for location, graph in ctx.sdf_graphs:
        try:
            graph.repetition_vector()
        except SchedulingError as exc:
            yield ctx.diag(
                "SDF001", "error", location,
                str(exc),
                hint="fix the produce/consume rates so every cycle "
                     "of the graph balances",
            )


@rule("SDF002", domain="sdf", severity="error")
def sdf_deadlock(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """An SDF graph deadlocks for lack of initial tokens."""
    for location, graph in ctx.sdf_graphs:
        run = _token_run(graph)
        if run is None:
            continue
        stuck, _peak = run
        if stuck:
            cycles = graph.zero_delay_cycles()
            yield ctx.diag(
                "SDF002", "error", f"{location}.{stuck[0]}",
                f"graph deadlocks; actors never fired to completion: "
                f"{stuck}"
                + (f"; zero-delay cycles: {cycles}" if cycles else ""),
                hint="place initial tokens on each feedback cycle",
                stuck=stuck,
                cycles=cycles,
            )


@rule("SDF003", domain="sdf", severity="error")
def sdf_undriven_input(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A declared SDF input port has no edge feeding it."""
    for location, graph in ctx.sdf_graphs:
        driven = {(id(e.dst), e.dst_port) for e in graph.edges}
        for actor in graph.actors:
            for port in actor.input_rates:
                if (id(actor), port) not in driven:
                    yield ctx.diag(
                        "SDF003", "error",
                        f"{location}.{actor.name}.{port}",
                        f"input port {port!r} of actor "
                        f"{actor.name!r} is not driven by any edge",
                        hint="connect an edge to the port or remove "
                             "it from input_rates",
                    )


@rule("SDF004", domain="sdf", severity="warning")
def sdf_unconnected_output(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A declared SDF output port feeds no edge."""
    for location, graph in ctx.sdf_graphs:
        used = {(id(e.src), e.src_port) for e in graph.edges}
        for actor in graph.actors:
            for port in actor.output_rates:
                if (id(actor), port) not in used:
                    yield ctx.diag(
                        "SDF004", "warning",
                        f"{location}.{actor.name}.{port}",
                        f"output port {port!r} of actor "
                        f"{actor.name!r} feeds no edge; its tokens "
                        f"are discarded",
                        hint="connect the port or remove it from "
                             "output_rates",
                    )


@rule("SDF005", domain="sdf", severity="warning")
def sdf_buffer_bound(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """An edge's predicted peak occupancy exceeds the buffer limit."""
    for location, graph in ctx.sdf_graphs:
        run = _token_run(graph)
        if run is None:
            continue
        stuck, peak = run
        if stuck:
            continue  # SDF002 covers deadlocked graphs
        for edge, bound in zip(graph.edges, peak):
            if bound > DEFAULT_BUFFER_LIMIT:
                yield ctx.diag(
                    "SDF005", "warning",
                    f"{location}.{edge.src.name}.{edge.src_port}->"
                    f"{edge.dst.name}.{edge.dst_port}",
                    f"predicted peak occupancy of {bound} tokens per "
                    f"schedule period exceeds the "
                    f"{DEFAULT_BUFFER_LIMIT}-token limit",
                    hint="lower the rate mismatch or split the "
                         "transfer across more firings",
                    bound=bound,
                )
