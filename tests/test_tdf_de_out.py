"""What a ``TdfDeOut`` converter port shows its DE signal.

The port replays each cluster period's samples onto a DE signal at
their sample times.  The property below writes a stream rich in
repeats through ``write`` (rate 1 or 2) and ``write_at`` inside the
current period, onto a ``Signal`` and a ``BitSignal``, and checks that
every change the signals make is the change the stream implies, at its
tick and in its delta: SystemC 2.0 signal semantics, where a write of
an equal value (``1`` over ``True``, ``-0.0`` over ``0.0``) notifies
nothing and a NaN always differs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BitSignal,
    Module,
    Signal,
    SimTime,
    Simulator,
    SynchronizationError,
)
from repro.core.process import METHOD, Process
from repro.lib import TdfSink
from repro.tdf import TdfDeOut, TdfModule, TdfOut, TdfSignal

from .test_scheduling_digest import _wrap

NAN = float("nan")
#: bools, ints and floats that compare equal across types, and a NaN
VALUES = (False, True, 0, 1, 2, 0.0, -0.0, 1.0, 2.5, NAN)


class StreamWriter(TdfModule):
    """Writes ``stream`` through two converter ports, ``rate`` samples
    per activation, and the ``extras`` of each activation with
    ``write_at``."""

    def __init__(self, name, parent, timestep_ticks, rate, stream, extras):
        super().__init__(name, parent)
        self.out = TdfOut("out")
        self.to_signal = TdfDeOut("to_signal", rate=rate)
        self.to_bit = TdfDeOut("to_bit", rate=rate)
        self.timestep_ticks = timestep_ticks
        self.stream = stream
        self.extras = extras

    def set_attributes(self):
        self.set_timestep(SimTime.from_ticks(self.timestep_ticks))

    def processing(self):
        rate = self.to_signal.rate
        index = self.activation_count
        for k, value in enumerate(self.stream[index * rate:
                                              (index + 1) * rate]):
            self.to_signal.write(value, k)
            self.to_bit.write(value, k)
        for ticks, value in self.extras.get(index, ()):
            self.to_signal.write_at(ticks, value)
            self.to_bit.write_at(ticks, value)
        self.out.write(0.0)


class StreamTop(Module):
    """A ``StreamWriter`` whose cluster period holds ``per_period``
    activations (a sink of that rate reads its TDF output)."""

    def __init__(self, timestep_ticks, rate, per_period, stream, extras):
        super().__init__("top")
        self.writer = StreamWriter("writer", self, timestep_ticks, rate,
                                   stream, extras)
        self.sink = TdfSink("sink", parent=self, rate=per_period)
        samples = TdfSignal("samples")
        self.writer.out(samples)
        self.sink.inp(samples)
        self.signal = Signal("signal", initial=0)
        self.bit = BitSignal("bit", initial=False)
        self.writer.to_signal(self.signal)
        self.writer.to_bit(self.bit)


def recorded_changes(top, until_ticks):
    """Every change of ``top``'s two signals as ``(ticks, delta within
    the instant, value)``, per signal."""
    sim = Simulator(top)
    sim.elaborate()
    kernel = sim.kernel
    instant = [0]
    kernel.add_time_callback(
        lambda ticks: instant.__setitem__(0, kernel.delta_count))
    changes = {}
    for signal in (top.signal, top.bit):
        log = changes[signal.name] = []

        def record(signal=signal, log=log):
            log.append((kernel.now_ticks, kernel.delta_count - instant[0],
                        signal.read()))

        kernel.register_process(Process(
            f"record.{signal.name}", METHOD, record,
            [signal.default_event()], dont_initialize=True))
    sim.run(SimTime.from_ticks(until_ticks))
    return changes


def expected_changes(items, period_ticks, initial, convert):
    """The changes ``items`` (``(ticks, value)`` in the order queued)
    imply on a signal that applies ``convert`` to what it is written.

    The last write at an instant wins, and it changes the signal when
    it differs from the value held.  The change shows one delta after
    the writer runs: at a period start the writer itself waits one
    delta for the cluster's notification.
    """
    last = dict(sorted(items, key=lambda item: item[0]))
    held, changes = initial, []
    for ticks, value in last.items():
        value = convert(value)
        if value != held:
            held = value
            changes.append((ticks, 2 if ticks % period_ticks == 0 else 1,
                            value))
    return changes


@st.composite
def streams(draw):
    """A stream of runs of repeated values, the port rate, the
    activations per period and ``write_at`` items in the current
    period."""
    runs = draw(st.lists(
        st.tuples(st.sampled_from(VALUES), st.integers(1, 5)),
        min_size=1, max_size=12))
    stream = [value for value, length in runs for _ in range(length)]
    rate = draw(st.sampled_from((1, 2)))
    per_period = draw(st.integers(1, 4))
    timestep = draw(st.integers(3, 12))
    activations = -(-len(stream) // rate)
    period = per_period * timestep
    extras = {}
    for index, offset, value in draw(st.lists(
            st.tuples(st.integers(0, activations - 1),
                      st.integers(0, period - 1), st.sampled_from(VALUES)),
            max_size=8)):
        period_start = index // per_period * period
        extras.setdefault(index, []).append((period_start + offset, value))
    return stream, rate, per_period, timestep, extras


@given(streams())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_signal_changes_follow_the_stream(case):
    stream, rate, per_period, timestep, extras = case
    top = StreamTop(timestep, rate, per_period, stream, extras)
    step = timestep // rate
    queued = []
    for index in range(-(-len(stream) // rate)):
        base = index * timestep
        queued += [(base + k * step, value) for k, value
                   in enumerate(stream[index * rate:(index + 1) * rate])]
        queued += extras.get(index, [])
    period = per_period * timestep
    end = (max(ticks for ticks, _ in queued) // period + 2) * period
    changes = recorded_changes(top, end)
    # repr tells 1 from True and -0.0 from 0.0
    assert repr(changes["signal"]) == repr(
        expected_changes(queued, period, 0, lambda value: value))
    assert repr(changes["bit"]) == repr(
        expected_changes(queued, period, False, bool))


@pytest.mark.parametrize("timestep", [10, 7])
def test_write_block_queues_what_scalar_writes_queue(timestep):
    """At rate 2, also where the rate does not divide the timestep."""
    top = StreamTop(timestep, 2, 1, [], {})
    Simulator(top).elaborate()
    writer, port = top.writer, top.writer.to_signal
    values = [0.5, True, 2, -0.0, NAN, 1.0]
    writer._activation_index = 3
    port.write_block(values)
    block, port._queue = port._queue, []
    for index in range(3):
        writer._activation_index = 3 + index
        for k in range(2):
            port.write(values[2 * index + k], k)
    assert block == port._queue
    expected = {10: [30, 35, 40, 45, 50, 55], 7: [21, 24, 28, 31, 35, 38]}
    assert [offset for offset, _ in block] == expected[timestep]
    with pytest.raises(SynchronizationError):
        port.write_block(values[:3])


def test_unchanged_samples_do_not_wake_the_writer():
    """1,000 samples, ten per period, that change the signal three
    times: the writer thread wakes for the changes, not per sample."""
    stream = [0] * 250 + [1] * 250 + [2.5] * 250 + [0.0] * 250
    top = StreamTop(10, 1, 10, stream, {})
    sim = Simulator(top)
    sim.elaborate()
    record = []
    for process in sim.kernel._processes:
        process.func = _wrap(process, sim.kernel, record)
    sim.run(SimTime.from_ticks(10 * len(stream)))
    wakes = [entry for entry in record
             if entry[2] == "top.writer.to_signal.writer"]
    assert len(wakes) <= 103, len(wakes)
    assert top.signal.read() == 0.0 and type(top.signal.read()) is float


def test_port_that_queues_nothing_is_not_resolved():
    """A flush with nothing queued leaves the port alone, so an unbound
    converter port that is never written does not stop a run."""

    class Silent(TdfModule):
        def __init__(self, name, parent):
            super().__init__(name, parent)
            self.out = TdfOut("out")
            self.de_out = TdfDeOut("de_out")

        def set_attributes(self):
            self.set_timestep(SimTime(1, "us"))

        def processing(self):
            self.out.write(0.0)

    class Top(Module):
        def __init__(self):
            super().__init__("top")
            self.silent = Silent("silent", self)
            self.sink = TdfSink("sink", parent=self)
            samples = TdfSignal("samples")
            self.silent.out(samples)
            self.sink.inp(samples)

    top = Top()
    Simulator(top).run(SimTime(10, "us"))
    assert len(top.sink.samples) == 11
