"""One dataflow analysis: the static verifier, TDF elaboration and
``SdfGraph`` scheduling agree on generated models.

The TDF property builds chains and feedback rings from the blocks of
``test_tdf_properties`` and checks that the verifier reports a
TDF004-TDF008 error exactly when elaboration raises, with the exception
type of the first failing elaboration stage, and that on clean models
the verifier's repetitions, period and timesteps are the elaborated
ones.  The SDF property checks the shared token simulation against the
per-firing reference loop kept below.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ElaborationError,
    Module,
    SchedulingError,
    SimTime,
    Simulator,
)
from repro.sdf import Actor, SdfGraph
from repro.sdf.graph import simulate_tokens
from repro.tdf import TdfIn, TdfModule, TdfOut, TdfSignal
from repro.verify import verify
from repro.verify.context import build_context

from .test_tdf_properties import HeadSource, RateBlock, TailSink

#: elaboration's stage order, with the rule reporting each stage and the
#: exception type elaboration raises for it
STAGES = (("TDF004", SchedulingError), ("TDF006", ElaborationError),
          ("TDF005", ElaborationError), ("TDF007", ElaborationError),
          ("TDF008", SchedulingError))

#: femtosecond ticks: the small ones often leave a module or port
#: timestep that is not a whole number of ticks (TDF007); two modules
#: with timesteps often conflict (TDF006)
TIMESTEPS = (1, 3, 12, 24_000_000, 48_000_000)


def test_million_firing_cluster_verifies_and_elaborates():
    """A rate-1 source feeding a rate-1,000,001 sink needs 1,000,002
    firings per period: no deadlock, for the verifier as for
    elaboration."""
    top = Module("top")
    src = HeadSource("src", top, timestep=SimTime(1, "ns"))
    sink = TailSink("sink", top, rate=1_000_001)
    sig = TdfSignal("s")
    src.out(sig)
    sink.inp(sig)
    report = verify(top)
    assert report.ok
    assert not report.by_rule("TDF008")
    sim = Simulator(top)
    sim.elaborate()
    cluster = sim.tdf_registry.clusters[0]
    assert cluster.repetitions == {id(src): 1_000_001, id(sink): 1}
    assert cluster.period.ticks == SimTime(1_000_001, "ns").ticks


class Relay(TdfModule):
    """Copies one sample per firing through an out port of the given
    delay."""

    def __init__(self, name, parent, delay, timestep=None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.out = TdfOut("out", delay=delay)
        self._ts = timestep

    def set_attributes(self):
        if self._ts is not None:
            self.set_timestep(self._ts)

    def processing(self):
        self.out.write(self.inp.read())


def test_negative_delay_ring_deadlocks():
    """A negative delay leaves a ring's edge short of tokens: the
    verifier reports it (TDF010) and the deadlock (TDF008), and
    elaboration raises, instead of the simulation firing negative
    runs forever."""
    def build():
        top = Module("top")
        a = Relay("a", top, delay=-1, timestep=SimTime(1, "us"))
        b = Relay("b", top, delay=0)
        forward, back = TdfSignal("forward"), TdfSignal("back")
        a.out(forward)
        b.inp(forward)
        b.out(back)
        a.inp(back)
        return top

    report = verify(build())
    errors = {(d.rule, d.location) for d in report if d.severity == "error"}
    assert errors == {("TDF010", "top.a.out"), ("TDF008", "top.a")}
    with pytest.raises(SchedulingError):
        Simulator(build()).elaborate()


def test_zero_rate_port_is_an_elaboration_error():
    """A port built with ``rate=0`` is the verifier's TDF010 alone, and
    elaboration raises an ElaborationError naming the port instead of
    dividing a timestep by zero."""
    def build():
        top = Module("top")
        src = HeadSource("src", top, rate=0, timestep=SimTime(1, "us"))
        sink = TailSink("sink", top)
        sig = TdfSignal("s")
        src.out(sig)
        sink.inp(sig)
        return top

    report = verify(build())
    assert {(d.rule, d.location) for d in report
            if d.severity == "error"} == {("TDF010", "top.src.out")}
    with pytest.raises(ElaborationError, match="'top.src.out'.*rate 0"):
        Simulator(build()).elaborate()


def test_negative_tokens_fire_once_they_are_made_up():
    """An edge starting at -1 tokens keeps its consumer from firing
    until the producer has made the deficit up, and then holds back
    exactly one firing, as a per-firing simulation would."""
    entries, stuck, peak = simulate_tokens(
        ["b", "a"], [("a", 2, "b", 1, -1)], {"a": 2, "b": 4})
    assert entries == [("a", 2, True), ("b", 3, True)]
    assert stuck == ["b"]
    assert peak == [3]


@st.composite
def tdf_models(draw):
    """(ring, head, blocks, tail_rate, timed): a HeadSource -> RateBlock*
    -> TailSink chain, or a ring of RateBlocks feeding back into the
    first (half of the rings with equal in and out rates, so they
    balance); out-port delays 0-2; timesteps on zero, one or two
    modules."""
    rates, delays = st.integers(1, 4), st.integers(0, 2)
    ring = draw(st.booleans())
    blocks = draw(st.lists(st.tuples(rates, rates, delays),
                           min_size=1, max_size=3))
    if ring and draw(st.booleans()):
        blocks = [(in_rate, in_rate, delay)
                  for in_rate, _out_rate, delay in blocks]
    head = (draw(rates), draw(delays))
    tail_rate = draw(rates)
    modules = len(blocks) if ring else len(blocks) + 2
    count = draw(st.integers(0, min(2, modules)))
    timed = draw(st.lists(
        st.tuples(st.integers(0, modules - 1), st.sampled_from(TIMESTEPS)),
        min_size=count, max_size=count, unique_by=lambda entry: entry[0]))
    return ring, head, blocks, tail_rate, timed


def build_tdf(ring, head, blocks, tail_rate, timed):
    top = Module("top")
    modules = []
    for k, (in_rate, out_rate, delay) in enumerate(blocks):
        block = RateBlock(f"b{k}", top, in_rate, out_rate)
        block.out.set_delay(delay)
        modules.append(block)
    if not ring:
        source = HeadSource("src", top, rate=head[0])
        source.out.set_delay(head[1])
        modules = [source, *modules, TailSink("sink", top, tail_rate)]
    links = len(modules) if ring else len(modules) - 1
    for k in range(links):
        sig = TdfSignal(f"s{k}")
        modules[k].out(sig)
        modules[(k + 1) % len(modules)].inp(sig)
    for index, ticks in timed:
        modules[index].set_timestep(SimTime(ticks, "fs"))
    return top


@given(tdf_models())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_verifier_flags_exactly_what_elaboration_rejects(spec):
    top = build_tdf(*spec)
    report = verify(top, select=["TDF"])
    flagged = {d.rule for d in report if d.severity == "error"}
    [analysis] = build_context(top).clusters
    sim = Simulator(top)
    expected = next((error for rule, error in STAGES if rule in flagged),
                    None)
    if expected is not None:
        with pytest.raises(expected):
            sim.elaborate()
        return
    assert not flagged
    sim.elaborate()
    [cluster] = sim.tdf_registry.clusters
    assert analysis.repetitions == cluster.repetitions
    assert analysis.period_ticks == cluster.period.ticks
    assert analysis.module_timestep_ticks == {
        id(module): module.timestep.ticks for module in cluster.modules}


def reference_run(graph, repetitions):
    """The per-firing token simulation: one firing per step.  Returns
    (firing order, run-length entries with their ``fusable`` flag,
    stuck actors, peak occupancy per edge)."""
    counts = {id(e): len(e.initial_tokens) for e in graph.edges}
    peak = dict(counts)
    remaining = dict(repetitions)
    inputs_of = {a: [e for e in graph.edges if e.dst is a]
                 for a in graph.actors}
    outputs_of = {a: [e for e in graph.edges if e.src is a]
                  for a in graph.actors}
    order, entries = [], []
    progress = True
    while progress and any(remaining.values()):
        progress = False
        for actor in graph.actors:
            before = [counts[id(e)] for e in inputs_of[actor]]
            fired = 0
            while remaining[actor] > 0 and all(
                counts[id(e)] >= e.consume_rate for e in inputs_of[actor]
            ):
                for e in inputs_of[actor]:
                    counts[id(e)] -= e.consume_rate
                for e in outputs_of[actor]:
                    counts[id(e)] += e.produce_rate
                    peak[id(e)] = max(peak[id(e)], counts[id(e)])
                remaining[actor] -= 1
                order.append(actor)
                fired += 1
            if fired:
                progress = True
                fusable = all(have >= fired * e.consume_rate
                              for have, e in zip(before, inputs_of[actor]))
                if entries and entries[-1][0] is actor:
                    entries[-1] = (actor, entries[-1][1] + fired, False)
                else:
                    entries.append((actor, fired, fusable))
    stuck = [a for a in graph.actors if remaining[a] > 0]
    return order, entries, stuck, [peak[id(e)] for e in graph.edges]


@st.composite
def sdf_graphs(draw):
    """(actor count, edges): each edge ``(src, produce, dst, consume,
    initial tokens)`` gets ports of its own; self-loops and parallel
    edges included.  Half the graphs balance by construction
    (``produce = r[dst]``, ``consume = r[src]``)."""
    n = draw(st.integers(1, 4))
    reps = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    balanced = draw(st.booleans())
    edges = []
    for _ in range(draw(st.integers(1, 5))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if balanced:
            produce, consume = reps[dst], reps[src]
        else:
            produce, consume = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        edges.append((src, produce, dst, consume, draw(st.integers(0, 2))))
    return n, edges


def build_sdf(n, edges):
    graph = SdfGraph("g")
    actors = [graph.add(Actor(
        f"a{k}",
        input_rates={f"in{j}": edge[3] for j, edge in enumerate(edges)
                     if edge[2] == k},
        output_rates={f"out{j}": edge[1] for j, edge in enumerate(edges)
                      if edge[0] == k})) for k in range(n)]
    for j, (src, _produce, dst, _consume, tokens) in enumerate(edges):
        graph.connect(actors[src], f"out{j}", actors[dst], f"in{j}",
                      initial_tokens=[0.0] * tokens)
    return graph


@given(sdf_graphs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_sdf_schedule_matches_per_firing_reference(spec):
    graph = build_sdf(*spec)
    rules = {d.rule for d in verify(graph)}
    if "SDF001" in rules:
        with pytest.raises(SchedulingError):
            graph.schedule()
        return
    order, entries, stuck, peak = reference_run(
        graph, graph.repetition_vector())
    assert graph.token_run() == (entries, stuck, peak)
    assert bool(stuck) == ("SDF002" in rules)
    if stuck:
        with pytest.raises(SchedulingError):
            graph.schedule()
    else:
        assert graph.schedule() == order
