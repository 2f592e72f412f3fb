"""Tests for the DE helpers: RTL primitives and the bus-functional model."""

import pytest

from repro.core import (
    BitSignal,
    Clock,
    ElaborationError,
    Module,
    Signal,
    SimTime,
    SimulationError,
    Simulator,
)
from repro.de import (
    Bus,
    BusMaster,
    CombinationalLogic,
    Counter,
    DFlipFlop,
    EdgeDetector,
    RegisterFile,
    ShiftRegister,
    Synchronizer,
)


def ns(x):
    return SimTime(x, "ns")


class TestRtl:
    def test_dff_latches_on_edge(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), parent=self)
                self.d = Signal("d", initial=0)
                self.ff = DFlipFlop("ff", self.clk, parent=self)
                self.ff.d(self.d)
                self.thread(self.stim)

            def stim(self):
                yield ns(12)       # past the edge at 10
                self.d.write(7)    # changes mid-cycle
                yield ns(3)        # at 15: ff.q still old value
                assert self.ff.q.read() == 0
                yield ns(6)        # past the edge at 20
                assert self.ff.q.read() == 7

        Simulator(Top()).run(ns(50))

    def test_counter_counts_and_clears(self):
        # Edges at 0,10,20,30,40: at 45 the counter has seen 5 edges.
        class Top2(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), parent=self)
                self.en = Signal("en", initial=True)
                self.clr = Signal("clr", initial=False)
                self.counter = Counter("cnt", self.clk, width=4,
                                       parent=self)
                self.counter.enable(self.en)
                self.counter.clear(self.clr)
                self.observed = {}
                self.thread(self.stim)

            def stim(self):
                yield ns(45)
                self.observed["mid"] = self.counter.value.read()
                self.clr.write(True)
                yield ns(10)
                self.observed["cleared"] = self.counter.value.read()

        top = Top2()
        Simulator(top).run(ns(60))
        assert top.observed["mid"] == 5
        assert top.observed["cleared"] == 0

    def test_counter_wraps(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), parent=self)
                self.en = Signal("en", initial=True)
                self.counter = Counter("cnt", self.clk, width=2,
                                       parent=self)
                self.counter.enable(self.en)
                self.counter.clear(Signal("nc", initial=False))

        top = Top()
        Simulator(top).run(ns(95))  # 10 edges
        assert top.counter.value.read() == 10 % 4

    def test_shift_register(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), parent=self)
                self.serial = Signal("ser", initial=0)
                self.sr = ShiftRegister("sr", self.clk, width=4,
                                        parent=self)
                self.sr.serial_in(self.serial)
                self.thread(self.stim)

            def stim(self):
                # Drive mid-cycle so each rising edge samples cleanly.
                yield ns(5)
                for bit in (1, 0, 1, 1):
                    self.serial.write(bit)
                    yield ns(10)

        top = Top()
        Simulator(top).run(ns(45))
        assert top.sr.value.read() == 0b1011

    def test_edge_detector_single_pulse(self):
        pulses = []

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), parent=self)
                self.raw = BitSignal("raw", initial=False)
                self.det = EdgeDetector("det", self.clk, parent=self)
                self.det.inp(self.raw)
                self.method(self._capture,
                            sensitivity=[self.det.pulse.posedge_event()],
                            dont_initialize=True)
                self.thread(self.stim)

            def _capture(self):
                pulses.append(1)

            def stim(self):
                yield ns(15)
                self.raw.write(True)   # stays high for many cycles
                yield ns(50)
                self.raw.write(False)
                yield ns(20)

        Simulator(Top()).run(ns(100))
        assert len(pulses) == 1  # exactly one pulse despite long high

    def test_synchronizer_two_cycle_latency(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), parent=self)
                self.async_in = Signal("async", initial=0)
                self.sync = Synchronizer("sync", self.clk, parent=self)
                self.sync.inp(self.async_in)
                self.observed = []
                self.thread(self.stim)

            def stim(self):
                yield ns(12)
                self.async_in.write(9)
                yield ns(10)  # edge at 20 captures into stage
                self.observed.append(self.sync.out.read())
                yield ns(10)  # edge at 30 moves stage to out
                yield ns(5)
                self.observed.append(self.sync.out.read())

        top = Top()
        Simulator(top).run(ns(60))
        assert top.observed == [0, 9]

    def test_combinational_logic(self):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.a = Signal("a", initial=1)
                self.b = Signal("b", initial=2)
                self.logic = CombinationalLogic(
                    "and3", [self.a, self.b], lambda a, b: a + b,
                    parent=self,
                )
                self.thread(self.stim)

            def stim(self):
                yield ns(1)
                assert self.logic.out.read() == 3
                self.a.write(10)
                yield ns(1)
                assert self.logic.out.read() == 12

        Simulator(Top()).run(ns(5))

    def test_width_validation(self):
        clk = Clock("clk", period=ns(10))
        with pytest.raises(ElaborationError):
            Counter("c", clk, width=0)


class TestBusFunctionalModel:
    def make_system(self, program):
        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), parent=self)
                self.bus = Bus("bus")
                self.master = BusMaster("cpu", self.bus, self.clk,
                                        parent=self)
                self.regs = RegisterFile("regs", self.bus, self.clk,
                                         size=16, parent=self)
                self.log = []
                self.thread(lambda: program(self))

        return Top()

    def test_write_then_read_back(self):
        def program(top):
            yield from top.master.write(3, 0xAB)
            value = yield from top.master.read(3)
            top.log.append(value)

        top = self.make_system(program)
        Simulator(top).run(SimTime(1, "us"))
        assert top.log == [0xAB]
        assert top.regs.peek(3) == 0xAB
        assert top.master.transaction_count == 2

    def test_multiple_registers(self):
        def program(top):
            for address in range(5):
                yield from top.master.write(address, address * 10)
            for address in range(5):
                value = yield from top.master.read(address)
                top.log.append(value)

        top = self.make_system(program)
        Simulator(top).run(SimTime(2, "us"))
        assert top.log == [0, 10, 20, 30, 40]

    def test_mirror_signal_updates_on_write(self):
        changes = []

        def program(top):
            yield from top.master.idle(2)
            yield from top.master.write(7, 55)
            yield from top.master.idle(2)

        top = self.make_system(program)
        mirror = top.regs.mirror(7)
        top.method(lambda: changes.append(mirror.read()),
                   sensitivity=[mirror], dont_initialize=True)
        Simulator(top).run(SimTime(1, "us"))
        assert changes == [55]

    def test_backdoor_poke_peek(self):
        def program(top):
            yield from top.master.idle(1)

        top = self.make_system(program)
        Simulator(top).run(SimTime(100, "ns"))
        top.regs.poke(9, 123)
        assert top.regs.peek(9) == 123

    @pytest.mark.parametrize("address", [-1, -16, 16, 99])
    def test_backdoor_rejects_out_of_range_address(self, address):
        regs = RegisterFile("r", Bus("b"), Clock("clk", period=ns(10)),
                            size=16)
        with pytest.raises(SimulationError, match=f"address {address} "):
            regs.poke(address, 7)
        with pytest.raises(SimulationError, match=f"address {address} "):
            regs.peek(address)
        assert regs.registers == [0] * 16

    def test_out_of_range_addresses_ignored(self):
        def program(top):
            yield from top.master.write(99, 1)  # silently dropped
            value = yield from top.master.read(99)
            top.log.append(value)

        top = self.make_system(program)
        Simulator(top).run(SimTime(1, "us"))
        assert top.regs.write_count == 0

    def test_register_file_validation(self):
        clk = Clock("clk", period=ns(10))
        bus = Bus("b")
        with pytest.raises(ElaborationError):
            RegisterFile("r", bus, clk, size=0)
        regs = RegisterFile("r", bus, clk, size=4)
        with pytest.raises(ElaborationError):
            regs.mirror(10)


class TestIdle:
    """``BusMaster.idle(n)`` resumes where ``n`` posedge waits would: in
    delta 1 of the n-th rising edge after the call, with nothing else
    observing the clock.  The clock is high for 3 of its 10 ns."""

    #: how the thread reaches the call: the call's instant, and the
    #: first rising edge after it
    STARTS = {
        "initialization": (0, 0),
        "after a posedge": (ns(30).ticks, ns(40).ticks),
        "at a negedge": (ns(23).ticks, ns(30).ticks),
    }

    def idle_from(self, start, cycles):
        marks = []

        class Top(Module):
            def __init__(self):
                super().__init__("top")
                self.clk = Clock("clk", period=ns(10), duty_cycle=0.3,
                                 parent=self)
                self.master = BusMaster("cpu", Bus("bus"), self.clk,
                                        parent=self)
                self.thread(self.program)

            def program(self):
                if start == "after a posedge":
                    yield ns(25)
                    yield self.clk.posedge_event()
                elif start == "at a negedge":
                    yield ns(21)
                    yield self.clk.negedge_event()
                marks.append(self.mark())
                yield from self.master.idle(cycles)
                marks.append(self.mark())

            def mark(self):
                return (kernel.now_ticks, kernel.delta_count - instant[0])

        top = Top()
        sim = Simulator(top)
        kernel = sim.kernel
        # delta count at the first delta of the current instant
        instant = [0]
        kernel.add_time_callback(
            lambda ticks: instant.__setitem__(0, kernel.delta_count))
        sim.run(ns(10) * (cycles + 10))
        return marks

    @pytest.mark.parametrize("start", list(STARTS))
    @pytest.mark.parametrize("cycles", [1, 2, 3, 2000])
    def test_resumes_in_delta_one_of_the_nth_posedge(self, start, cycles):
        called, first_posedge = self.STARTS[start]
        marks = self.idle_from(start, cycles)
        assert marks[0][0] == called
        assert marks[1] == (first_posedge + (cycles - 1) * ns(10).ticks, 1)

    @pytest.mark.parametrize("start", list(STARTS))
    def test_idle_zero_returns_at_once(self, start):
        marks = self.idle_from(start, 0)
        assert marks[0][0] == self.STARTS[start][0]
        assert marks[1] == marks[0]
