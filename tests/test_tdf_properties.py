"""Property-based tests for TDF cluster elaboration invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import ElaborationError, Module, SimTime, Simulator
from repro.tdf import TdfIn, TdfModule, TdfOut, TdfSignal


class RateBlock(TdfModule):
    """Consumes ``in_rate`` tokens and produces ``out_rate`` per firing."""

    def __init__(self, name, parent=None, in_rate=1, out_rate=1):
        super().__init__(name, parent)
        self.inp = TdfIn("inp", rate=in_rate)
        self.out = TdfOut("out", rate=out_rate)

    def processing(self):
        values = [self.inp.read(k) for k in range(self.inp.rate)]
        total = float(np.sum(values))
        for k in range(self.out.rate):
            self.out.write(total, k)


class HeadSource(TdfModule):
    def __init__(self, name, parent=None, rate=1, timestep=None):
        super().__init__(name, parent)
        self.out = TdfOut("out", rate=rate)
        self._ts = timestep
        self.count = 0

    def set_attributes(self):
        if self._ts is not None:
            self.set_timestep(self._ts)

    def processing(self):
        for k in range(self.out.rate):
            self.out.write(float(self.count), k)
            self.count += 1


class TailSink(TdfModule):
    def __init__(self, name, parent=None, rate=1):
        super().__init__(name, parent)
        self.inp = TdfIn("inp", rate=rate)
        self.received = 0

    def processing(self):
        for k in range(self.inp.rate):
            self.inp.read(k)
            self.received += 1


@st.composite
def rate_chains(draw):
    return draw(st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        min_size=1, max_size=4,
    ))


@given(rate_chains(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_timestep_propagation_invariants(chain, src_rate):
    """In any consistent chain: module_timestep * repetitions is the
    same (the cluster period) for every module, every port timestep
    divides its module timestep by the rate, and token conservation
    holds over whole periods."""

    class Top(Module):
        def __init__(self):
            super().__init__("top")
            self.src = HeadSource("src", self, rate=src_rate,
                                  timestep=SimTime(8, "us"))
            previous_port = self.src.out
            self.blocks = []
            for k, (in_rate, out_rate) in enumerate(chain):
                block = RateBlock(f"b{k}", self, in_rate, out_rate)
                sig = TdfSignal(f"s{k}")
                previous_port(sig)
                block.inp(sig)
                previous_port = block.out
                self.blocks.append(block)
            self.sink = TailSink("sink", self)
            sig = TdfSignal("s_end")
            previous_port(sig)
            self.sink.inp(sig)

    top = Top()
    sim = Simulator(top)
    try:
        sim.run(SimTime(400, "us"))
    except ElaborationError as exc:
        # Some random rate combinations make a timestep that is not an
        # integer number of femtosecond ticks — correctly rejected at
        # elaboration; filter those examples.
        assume("divisible" not in str(exc))
        raise
    registry = sim.tdf_registry
    assert len(registry.clusters) == 1
    cluster = registry.clusters[0]
    period = cluster.period.ticks
    for module in cluster.modules:
        reps = cluster.repetitions[id(module)]
        # The defining invariant of timestep propagation.
        assert module.timestep.ticks * reps == period
        for port in module.tdf_ports():
            assert port.timestep.ticks * port.rate == \
                module.timestep.ticks
    # Token conservation across the chain over completed periods: the
    # sink consumed exactly what the source produced for the periods
    # both completed.
    produced = top.src.count
    consumed = top.sink.received
    # Rates along the chain scale the counts.
    scale = 1.0
    for in_rate, out_rate in chain:
        scale *= out_rate / in_rate
    # Both counts correspond to an integer number of periods.
    assert consumed == int(round(produced * scale))


@given(st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_two_module_rate_ratio(prod_rate, cons_rate):
    """Producer/consumer activation counts follow the balance equation
    regardless of the rate pair."""

    class Top(Module):
        def __init__(self):
            super().__init__("top")
            self.src = HeadSource("src", self, rate=prod_rate,
                                  timestep=SimTime(6, "us"))
            self.sink = TailSink("sink", self, rate=cons_rate)
            sig = TdfSignal("s")
            self.src.out(sig)
            self.sink.inp(sig)

    top = Top()
    sim = Simulator(top)
    sim.run(SimTime(360, "us"))
    from math import gcd

    g = gcd(prod_rate, cons_rate)
    src_reps = cons_rate // g
    sink_reps = prod_rate // g
    cluster = sim.tdf_registry.clusters[0]
    assert cluster.repetitions[id(top.src)] == src_reps
    assert cluster.repetitions[id(top.sink)] == sink_reps
    # Activation counts over N whole periods keep the exact ratio.
    periods = cluster.period_count
    assert top.src.activation_count == src_reps * periods
    assert top.sink.activation_count == sink_reps * periods
