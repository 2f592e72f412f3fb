"""E14 — SDF substrate validity and scheduling throughput.

The dataflow MoC underneath everything: balance-equation solving and
PASS construction on generated multirate graphs (validity), scheduling
throughput versus graph size, and buffer bounds of the static schedule.
"""

from conftest import print_table
from repro.sdf import (
    Downsample,
    Fir,
    Fork,
    Ramp,
    SdfGraph,
    Sink,
    Upsample,
)


def build_multirate_graph(depth: int) -> tuple[SdfGraph, Sink]:
    """A chain of alternating up/down-samplers with a filtered side
    branch folded back in — a representative multirate DSP graph."""
    graph = SdfGraph(f"g{depth}")
    source = Ramp("src")
    fork = Fork("fork")
    graph.connect(source, "out", fork, "in")
    previous, port = fork, "a"
    for k in range(depth):
        node = Upsample(f"u{k}", 2) if k % 2 == 0 \
            else Downsample(f"d{k}", 2)
        graph.connect(previous, port, node, "in")
        previous, port = node, "out"
    # Side branch: FIR at source rate, then matched rate conversion.
    side = Fir("fir", [0.5, 0.5])
    graph.connect(fork, "b", side, "in")
    sink_side = Sink("sink_side")
    graph.connect(side, "out", sink_side, "in")
    sink = Sink("sink")
    graph.connect(previous, port, sink, "in")
    return graph, sink


def test_e14_balance_and_schedule_validity(benchmark):
    rows = []
    results = {}

    def measure():
        for depth in (2, 4, 8, 12):
            graph, _sink = build_multirate_graph(depth)
            repetitions = graph.repetition_vector()
            schedule = graph.schedule()
            graph.run(3)
            results[depth] = (repetitions, schedule, graph)
        return results

    benchmark.pedantic(measure, rounds=1, iterations=1)
    for depth, (repetitions, schedule, graph) in results.items():
        max_rep = max(repetitions.values())
        max_buffer = max(graph.buffer_bounds().values())
        rows.append([depth, len(repetitions), len(schedule), max_rep,
                     max_buffer])
    print_table(
        "E14: multirate graph scheduling",
        ["depth", "actors", "schedule length", "max repetitions",
         "max buffer"],
        rows,
    )
    for depth, (repetitions, schedule, graph) in results.items():
        # Balance equations hold on every edge.
        for edge in graph.edges:
            assert repetitions[edge.src] * edge.produce_rate == \
                repetitions[edge.dst] * edge.consume_rate
        # Schedule contains each actor exactly its repetition count.
        for actor, count in repetitions.items():
            assert schedule.count(actor) == count
        # After full periods, buffers return to initial occupancy.
        for edge in graph.edges:
            assert len(edge.tokens) == len(edge.initial_tokens)


def test_e14_scheduling_throughput(benchmark):
    """Cost of building the static schedule for a 12-deep graph."""

    def build_and_schedule():
        graph, _sink = build_multirate_graph(12)
        return graph.schedule()

    schedule = benchmark(build_and_schedule)
    assert len(schedule) > 12


def test_e14_execution_throughput(benchmark):
    """Steady-state execution rate of a scheduled graph."""
    graph, sink = build_multirate_graph(6)
    graph.schedule()

    benchmark(lambda: graph.run(10))
    assert len(sink.collected) > 0
