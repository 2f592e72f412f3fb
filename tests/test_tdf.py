"""Tests for the TDF MoC: cluster discovery, rate analysis, timestep
propagation, static scheduling, delays, and DE converter ports."""

import pytest

from repro.core import (
    ElaborationError,
    Kernel,
    Module,
    SchedulingError,
    Signal,
    SimTime,
    Simulator,
    SynchronizationError,
    Trace,
)
from repro.tdf import TdfDeIn, TdfDeOut, TdfIn, TdfModule, TdfOut, TdfSignal


def us(x):
    return SimTime(x, "us")


class RampSource(TdfModule):
    """Emits 0, 1, 2, ... one sample per activation."""

    def __init__(self, name, parent=None, timestep=None, rate=1):
        super().__init__(name, parent)
        self.out = TdfOut("out", rate=rate)
        self._timestep = timestep
        self._n = 0

    def set_attributes(self):
        if self._timestep is not None:
            self.set_timestep(self._timestep)

    def processing(self):
        for k in range(self.out.rate):
            self.out.write(float(self._n), k)
            self._n += 1


class Collector(TdfModule):
    """Collects samples (rate per activation configurable)."""

    def __init__(self, name, parent=None, rate=1, delay=0, timestep=None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp", rate=rate, delay=delay)
        self.collected = []
        self._timestep = timestep

    def set_attributes(self):
        if self._timestep is not None:
            self.set_timestep(self._timestep)

    def processing(self):
        for k in range(self.inp.rate):
            self.collected.append(self.inp.read(k))


class ScaleBlock(TdfModule):
    def __init__(self, name, parent=None, gain=2.0):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.out = TdfOut("out")
        self.gain = gain

    def processing(self):
        self.out.write(self.gain * self.inp.read())


def build_chain(timestep=us(1), n_periods=4):
    class Top(Module):
        def __init__(self):
            super().__init__("top")
            self.sig_a = TdfSignal("a")
            self.sig_b = TdfSignal("b")
            self.src = RampSource("src", self, timestep=timestep)
            self.scale = ScaleBlock("scale", self)
            self.sink = Collector("sink", self)
            self.src.out(self.sig_a)
            self.scale.inp(self.sig_a)
            self.scale.out(self.sig_b)
            self.sink.inp(self.sig_b)

    return Top()


class TestBasicExecution:
    def test_chain_produces_scaled_ramp(self):
        top = build_chain()
        sim = Simulator(top)
        sim.run(us(10))
        # Periods at 0,1,...,10 us inclusive start -> 11 activations.
        assert top.sink.collected[:5] == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert len(top.sink.collected) == 11

    def test_timestep_propagates_to_all_modules(self):
        top = build_chain(timestep=us(5))
        sim = Simulator(top)
        sim.run(us(20))
        assert top.scale.timestep == us(5)
        assert top.sink.timestep == us(5)
        assert top.src.out.timestep == us(5)

    def test_local_time_runs_ahead(self):
        times = []

        class Probe(TdfModule):
            def __init__(self, name, parent=None):
                super().__init__(name, parent)
                self.inp = TdfIn("inp")

            def processing(self):
                self.inp.read()
                times.append(self.local_time.ticks)

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.sig = TdfSignal("s")
                self.src = RampSource("src", self, timestep=us(2))
                self.probe = Probe("probe", self)
                self.src.out(self.sig)
                self.probe.inp(self.sig)

        sim = Simulator(Top())
        sim.run(us(7))
        assert times == [0, us(2).ticks, us(4).ticks, us(6).ticks]


class TestMultirate:
    def test_downsampling_reader(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.sig = TdfSignal("s")
                self.src = RampSource("src", self, timestep=us(1))
                self.sink = Collector("sink", self, rate=4)
                self.src.out(self.sig)
                self.sink.inp(self.sig)

        top = Top()
        sim = Simulator(top)
        sim.run(us(8))
        # Sink activates once per 4 source activations.
        assert top.sink.activation_count in (2, 3)
        assert top.sink.collected[:8] == [float(k) for k in range(8)]
        assert top.sink.timestep == us(4)

    def test_rate_producer(self):
        class Burst(TdfModule):
            def __init__(self, name, parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out", rate=3)
                self._n = 0

            def set_attributes(self):
                self.set_timestep(us(3))

            def processing(self):
                for k in range(3):
                    self.out.write(float(self._n), k)
                    self._n += 1

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.sig = TdfSignal("s")
                self.src = Burst("src", self)
                self.sink = Collector("sink", self)
                self.src.out(self.sig)
                self.sink.inp(self.sig)

        top = Top()
        sim = Simulator(top)
        sim.run(us(6))
        # Sink timestep = 1 us (3 activations per 3 us period).
        assert top.sink.timestep == us(1)
        assert top.sink.collected[:6] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


class TestDelaysAndFeedback:
    def test_reader_delay_prepends_initial(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.sig = TdfSignal("s")
                self.src = RampSource("src", self, timestep=us(1))
                self.sink = Collector("sink", self, delay=2)
                self.sink.inp.initial_value = -1.0
                self.src.out(self.sig)
                self.sink.inp(self.sig)

        top = Top()
        sim = Simulator(top)
        sim.run(us(5))
        assert top.sink.collected[:5] == [-1.0, -1.0, 0.0, 1.0, 2.0]

    def test_feedback_without_delay_deadlocks(self):
        class Loop(TdfModule):
            def __init__(self, name, parent=None):
                super().__init__(name, parent)
                self.inp = TdfIn("inp")
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(us(1))

            def processing(self):
                self.out.write(self.inp.read() + 1.0)

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.sig = TdfSignal("s")
                self.loop = Loop("loop", self)
                self.loop.out(self.sig)
                self.loop.inp(self.sig)

        sim = Simulator(Top())
        with pytest.raises(SchedulingError):
            sim.run(us(3))

    def test_feedback_with_delay_accumulates(self):
        class Acc(TdfModule):
            """y[n] = y[n-1] + 1 via an out-port delay of one sample."""

            def __init__(self, name, parent=None):
                super().__init__(name, parent)
                self.inp = TdfIn("inp")
                self.out = TdfOut("out", delay=1)
                self.history = []

            def set_attributes(self):
                self.set_timestep(us(1))

            def processing(self):
                value = self.inp.read() + 1.0
                self.history.append(value)
                self.out.write(value)

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.sig = TdfSignal("s")
                self.acc = Acc("acc", self)
                self.acc.out(self.sig)
                self.acc.inp(self.sig)

        top = Top()
        sim = Simulator(top)
        sim.run(us(4))
        assert top.acc.history[:5] == [1.0, 2.0, 3.0, 4.0, 5.0]


class TestTimestepValidation:
    def test_no_timestep_anywhere_rejected(self):
        top = build_chain(timestep=None)
        sim = Simulator(top)
        with pytest.raises(ElaborationError):
            sim.run(us(1))

    def test_conflicting_timesteps_rejected(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.sig = TdfSignal("s")
                self.src = RampSource("src", self, timestep=us(1))
                self.sink = Collector("sink", self, timestep=us(2))
                self.src.out(self.sig)
                self.sink.inp(self.sig)

        sim = Simulator(Top())
        with pytest.raises(ElaborationError):
            sim.run(us(1))

    def test_port_timestep_constraint(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.sig = TdfSignal("s")
                self.src = RampSource("src", self)
                self.sink = Collector("sink", self, rate=2)
                self.src.out(self.sig)
                self.sink.inp(self.sig)
                # Constrain via the sink's input port: 1 us per sample,
                # rate 2 -> sink module timestep 2 us, src 1 us.
                self.sink.inp.set_timestep(us(1))

        top = Top()
        sim = Simulator(top)
        sim.run(us(4))
        assert top.src.timestep == us(1)
        assert top.sink.timestep == us(2)

    def test_rate_inconsistency_detected(self):
        class TwoIn(TdfModule):
            def __init__(self, name, parent=None):
                super().__init__(name, parent)
                self.a = TdfIn("a", rate=1)
                self.b = TdfIn("b", rate=2)

            def set_attributes(self):
                self.set_timestep(us(1))

            def processing(self):
                self.a.read()
                self.b.read()

        class Fork(TdfModule):
            def __init__(self, name, parent=None):
                super().__init__(name, parent)
                self.o1 = TdfOut("o1")
                self.o2 = TdfOut("o2")

            def processing(self):
                self.o1.write(0.0)
                self.o2.write(0.0)

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.s1 = TdfSignal("s1")
                self.s2 = TdfSignal("s2")
                self.fork = Fork("fork", self)
                self.two = TwoIn("two", self)
                self.fork.o1(self.s1)
                self.fork.o2(self.s2)
                self.two.a(self.s1)
                self.two.b(self.s2)

        sim = Simulator(Top())
        with pytest.raises(SchedulingError):
            sim.run(us(1))

    def test_unbound_port_rejected(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.src = RampSource("src", self, timestep=us(1))

        sim = Simulator(Top())
        with pytest.raises(ElaborationError):
            sim.run(us(1))


class TestDeConverters:
    def test_tdf_to_de_sample_times(self):
        class ToDe(TdfModule):
            def __init__(self, name, parent=None):
                super().__init__(name, parent)
                self.inp = TdfIn("inp")
                self.out = TdfDeOut("out")

            def processing(self):
                self.out.write(self.inp.read())

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.sig = TdfSignal("s")
                self.de_sig = Signal("de", initial=0.0)
                self.src = RampSource("src", self, timestep=us(3))
                self.conv = ToDe("conv", self)
                self.src.out(self.sig)
                self.conv.inp(self.sig)
                self.conv.out(self.de_sig)

        top = Top()
        trace = Trace()
        trace.watch(top.de_sig, "de")
        sim = Simulator(top, trace=trace)
        sim.run(us(10))
        chan = trace["de"]
        # Samples 1.0, 2.0, 3.0 land at 3, 6, 9 us (0.0 = initial).
        assert chan.value_at(us(4)) == 1.0
        assert chan.value_at(us(7)) == 2.0
        assert chan.value_at(us(9)) == 3.0

    def test_multirate_de_out_offsets(self):
        class BurstToDe(TdfModule):
            def __init__(self, name, parent=None):
                super().__init__(name, parent)
                self.inp = TdfIn("inp", rate=2)
                self.out = TdfDeOut("out", rate=2)

            def set_attributes(self):
                self.set_timestep(us(4))

            def processing(self):
                self.out.write(self.inp.read(0), 0)
                self.out.write(self.inp.read(1), 1)

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.sig = TdfSignal("s")
                self.de_sig = Signal("de", initial=-1.0)
                self.src = RampSource("src", self)
                self.conv = BurstToDe("conv", self)
                self.src.out(self.sig)
                self.conv.inp(self.sig)
                self.conv.out(self.de_sig)

        top = Top()
        trace = Trace()
        trace.watch(top.de_sig, "de")
        sim = Simulator(top, trace=trace)
        sim.run(us(9))
        chan = trace["de"]
        # Two samples per 4 us period: at 0 and 2 us offsets.
        assert chan.value_at(us(1)) == 0.0
        assert chan.value_at(us(3)) == 1.0
        assert chan.value_at(us(5)) == 2.0
        assert chan.value_at(us(7)) == 3.0

    def test_write_at_past_the_period_arrives_on_time(self):
        """Each value is due 25 us after its 10 us activation, so it is
        queued two periods ahead of the period it falls in."""

        class Late(TdfModule):
            def __init__(self, name, parent=None):
                super().__init__(name, parent)
                self.out = TdfDeOut("out")

            def set_attributes(self):
                self.set_timestep(us(10))

            def processing(self):
                if self.activation_count < 6:
                    self.out.write_at(
                        self.local_time.ticks + us(25).ticks,
                        self.activation_count)

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.de_sig = Signal("de", initial=-1)
                self.conv = Late("conv", self)
                self.conv.out(self.de_sig)
                self.changes = []
                self.method(self.capture, sensitivity=[self.de_sig],
                            dont_initialize=True)

            def capture(self):
                self.changes.append((Kernel.current().now_ticks,
                                     self.de_sig.read()))

        top = Top()
        Simulator(top).run(us(100))
        assert top.changes == [(us(25 + 10 * k).ticks, k)
                               for k in range(6)]

    def test_write_at_before_the_period_start_is_rejected(self):
        class Early(TdfModule):
            def __init__(self, name, parent=None):
                super().__init__(name, parent)
                self.out = TdfDeOut("out")

            def set_attributes(self):
                self.set_timestep(us(10))

            def processing(self):
                if self.activation_count == 1:
                    self.out.write_at(us(5).ticks, 1.0)

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.de_sig = Signal("de", initial=0.0)
                self.conv = Early("conv", self)
                self.conv.out(self.de_sig)

        top = Top()
        with pytest.raises(SynchronizationError) as error:
            Simulator(top).run(us(30))
        message = str(error.value)
        assert "top.conv.out" in message
        assert "5 us" in message and "10 us" in message
        assert top.de_sig.read() == 0.0

    def test_de_to_tdf_sampling(self):
        class FromDe(TdfModule):
            def __init__(self, name, parent=None):
                super().__init__(name, parent)
                self.inp = TdfDeIn("inp")
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(us(2))

            def processing(self):
                self.out.write(self.inp.read())

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.de_sig = Signal("de", initial=0.0)
                self.sig = TdfSignal("s")
                self.conv = FromDe("conv", self)
                self.sink = Collector("sink", self)
                self.conv.inp(self.de_sig)
                self.conv.out(self.sig)
                self.sink.inp(self.sig)
                self.thread(self.stim)

            def stim(self):
                yield us(3)
                self.de_sig.write(10.0)
                yield us(4)
                self.de_sig.write(20.0)

        top = Top()
        sim = Simulator(top)
        sim.run(us(9))
        # Sampled at 0, 2, 4, 6, 8 us: values 0, 0, 10, 10, 20.
        assert top.sink.collected == [0.0, 0.0, 10.0, 10.0, 20.0]


class TestMultiReader:
    def test_one_writer_two_readers(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.sig = TdfSignal("s")
                self.src = RampSource("src", self, timestep=us(1))
                self.sink1 = Collector("sink1", self)
                self.sink2 = Collector("sink2", self, rate=2)
                self.src.out(self.sig)
                self.sink1.inp(self.sig)
                self.sink2.inp(self.sig)

        top = Top()
        sim = Simulator(top)
        sim.run(us(6))
        assert top.sink1.collected[:6] == [float(k) for k in range(6)]
        assert top.sink2.collected[:6] == [float(k) for k in range(6)]

    def test_double_writer_rejected(self):
        sig = TdfSignal("s")
        a = RampSource("a")
        b = RampSource("b")
        a.out(sig)
        with pytest.raises(ElaborationError):
            b.out(sig)
