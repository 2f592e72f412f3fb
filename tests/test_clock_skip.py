"""Differential tests for a clock that no process observes.

The kernel need not simulate a clock edge that no process can see.
Each property below runs one random model twice: as it is, and with
one extra method statically sensitive to the clock, which keeps every
edge simulated.  What the model's threads observe, and the order in
which processes run at the instants the kernel still visits, must not
differ.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Clock, Module, SimTime, Simulator

from .test_scheduling_digest import _wrap

#: the clock events a script step may wait on
EDGE_WAITS = ("posedge", "negedge", "changed")


def fs(ticks: int) -> SimTime:
    return SimTime.from_ticks(ticks)


@st.composite
def clock_settings(draw):
    period = draw(st.integers(2, 40))
    high = draw(st.integers(1, period - 1))
    return {"period": fs(period), "duty_cycle": high / period,
            "posedge_first": draw(st.booleans()),
            "start_time": fs(draw(st.integers(0, 50)))}


#: a step is a timed wait in ticks or a wait on a clock event.  No wait
#: is zero ticks: that revisits the instant, and there ``event()`` sees
#: the extra delta the observer method itself takes after an edge.
scripts = st.lists(
    st.lists(st.one_of(st.integers(1, 60), st.sampled_from(EDGE_WAITS)),
             min_size=1, max_size=10),
    min_size=1, max_size=3)
#: the run is cut into these many-tick segments
chunks = st.lists(st.integers(1, 200), min_size=1, max_size=5)


class ClockedScripts(Module):
    """A clock and one thread per script; each thread logs
    ``(thread, ticks, delta within the instant, level, clk event)`` at
    its start and at every wake."""

    def __init__(self, clock: dict, scripts: list, observed: bool):
        super().__init__("top")
        self.clk = Clock("clk", parent=self, **clock)
        self.records = []
        self.kernel = None
        self.first_delta = 0
        for index, script in enumerate(scripts):
            self.thread(lambda index=index, script=script:
                        self.follow(index, script), name=f"t{index}")
        if observed:
            self.method(lambda: None, sensitivity=[self.clk],
                        dont_initialize=True, name="observer")

    def follow(self, index, script):
        clk = self.clk
        events = {"posedge": clk.posedge_event(),
                  "negedge": clk.negedge_event(),
                  "changed": clk.default_event()}
        self.log(index)
        for step in script:
            yield fs(step) if isinstance(step, int) else events[step]
            self.log(index)

    def log(self, index):
        kernel = self.kernel
        self.records.append((index, kernel.now_ticks,
                             kernel.delta_count - self.first_delta,
                             self.clk.read(), self.clk.signal.event()))

    def enter_instant(self, ticks):
        self.first_delta = self.kernel.delta_count


def simulate(clock, scripts, chunks, observed):
    top = ClockedScripts(clock, scripts, observed)
    sim = Simulator(top)
    top.kernel = sim.kernel
    sim.kernel.add_time_callback(top.enter_instant)
    for chunk in chunks:
        sim.run(fs(chunk))
    return top.records, sim.kernel.now_ticks, top.clk.read()


@given(clock_settings(), scripts, chunks)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_unobserved_clock_matches_observed_clock(clock, scripts, chunks):
    assert simulate(clock, scripts, chunks, observed=False) == \
        simulate(clock, scripts, chunks, observed=True)


def activation_order(clock, scripts, chunks, observed):
    """``(ticks, delta within the instant, process)`` of every
    activation but the observer method's."""
    top = ClockedScripts(clock, scripts, observed)
    sim = Simulator(top)
    sim.elaborate()
    kernel = top.kernel = sim.kernel
    # No wait is zero ticks, so the kernel visits each instant once.
    first_delta = {0: 0}
    kernel.add_time_callback(
        lambda ticks: first_delta.setdefault(ticks, kernel.delta_count))
    record = []
    for process in kernel._processes:
        if process.name != "top.observer":
            process.func = _wrap(process, kernel, record)
    for chunk in chunks:
        sim.run(fs(chunk))
    return [(ticks, delta - first_delta[ticks], name)
            for ticks, delta, name in record]


@given(clock_settings(), scripts, chunks)
@settings(max_examples=100, deadline=None, derandomize=True)
# The thread's wake lands on an edge whose wake the clock scheduled
# first: the clock must still run first there.
@example({"period": fs(10), "duty_cycle": 0.5, "posedge_first": True,
          "start_time": fs(0)}, [["posedge", 5, 5]], [100])
def test_unobserved_clock_keeps_activation_order(clock, scripts, chunks):
    """At every instant the kernel still visits, the same processes run
    in the same deltas and order as with every edge simulated."""
    lazy = activation_order(clock, scripts, chunks, observed=False)
    eager = activation_order(clock, scripts, chunks, observed=True)
    visited = {ticks for ticks, _, _ in lazy}
    assert lazy == [entry for entry in eager if entry[0] in visited]


class OneWaiter(Module):
    """A 10-tick clock and one thread that waits on it twice."""

    def __init__(self, observed: bool):
        super().__init__("top")
        self.clk = Clock("clk", period=fs(10), parent=self)
        self.thread(self.script)
        if observed:
            self.method(lambda: None, sensitivity=[self.clk],
                        dont_initialize=True, name="observer")

    def script(self):
        yield fs(333)
        yield self.clk.posedge_event()
        yield fs(1000)
        yield self.clk.negedge_event()


def test_unobserved_edges_are_not_simulated():
    activations = {}
    for observed in (False, True):
        sim = Simulator(OneWaiter(observed))
        sim.run(fs(5000))
        activations[observed] = sim.kernel.activation_count
    # Observed, all 1,001 edges run the clock and the method.  Otherwise
    # the clock runs only where the thread does or waits on it: at 0,
    # 335, 340, 1340 and 1345, and the run ends without the edge at the
    # limit (5000), which nothing observes either.
    assert activations[False] * 10 <= activations[True], activations
    assert activations[False] == 10, activations
