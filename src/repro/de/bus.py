"""A simple synchronous bus: bus-functional master and register file.

Figure 1 of the paper embeds "the control software ... in an
event-driven digital model using a bus functional model".  This module
provides that substrate: a clocked bus with one master, a register file
slave, and a generator-based transaction API so software models read
like sequential programs::

    def program(self):
        yield from self.bus.write(0x00, 0x5A)
        value = yield from self.bus.read(0x04)
        ...
"""

from __future__ import annotations

from typing import Optional

from ..core.clock import Clock
from ..core.errors import ElaborationError, SimulationError
from ..core.module import Module
from ..core.signal import BitSignal, Signal


class Bus:
    """The signal bundle of a single-master synchronous bus."""

    def __init__(self, name: str = "bus"):
        self.name = name
        self.addr = Signal(f"{name}.addr", initial=0)
        self.wdata = Signal(f"{name}.wdata", initial=0)
        self.rdata = Signal(f"{name}.rdata", initial=0)
        self.write_enable = BitSignal(f"{name}.we", initial=False)
        self.read_enable = BitSignal(f"{name}.re", initial=False)


class BusMaster(Module):
    """Bus-functional model: drives transactions from generator code.

    ``write``/``read`` are sub-generators to be driven with
    ``yield from`` inside a thread process.  Each transaction takes one
    clock cycle: signals are driven, the next rising edge latches them
    in the slave, then the strobes deassert.
    """

    def __init__(self, name: str, bus: Bus, clock: Clock,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.bus = bus
        self.clock = clock
        self.transaction_count = 0

    def write(self, address: int, data):
        """Sub-generator: one write transaction."""
        self.bus.addr.write(address)
        self.bus.wdata.write(data)
        self.bus.write_enable.write(True)
        yield self.clock.posedge_event()
        self.bus.write_enable.write(False)
        self.transaction_count += 1

    def read(self, address: int):
        """Sub-generator: one read transaction; returns the data."""
        self.bus.addr.write(address)
        self.bus.read_enable.write(True)
        yield self.clock.posedge_event()
        self.bus.read_enable.write(False)
        # The slave updated rdata at the edge; let the delta settle.
        yield self.clock.signal.default_event()  # next change = negedge
        self.transaction_count += 1
        return self.bus.rdata.read()

    def idle(self, cycles: int = 1):
        """Sub-generator: wait ``cycles`` rising clock edges.

        Resumes in the delta after the last edge, as ``cycles`` posedge
        waits would, but sleeps through the edges in between with one
        timed wait, so that the clock is unobserved and the kernel can
        skip them.  The timed wait ends in the delta where the clock
        drives the last edge, so the posedge wait that follows catches
        that edge.
        """
        if cycles <= 0:
            return
        posedge = self.clock.posedge_event()
        yield posedge
        if cycles > 1:
            yield self.clock.period * (cycles - 1)
            yield posedge


class RegisterFile(Module):
    """Synchronous register-file slave.

    Registers are plain integers addressed 0..size-1.  Writes latch on
    the rising clock edge while ``write_enable`` is high; reads drive
    ``rdata`` on the edge while ``read_enable`` is high.  Individual
    registers can be mirrored onto DE signals (:meth:`mirror`) so
    hardware (e.g. an AMS block's control input) can react to software
    writes.

    A thread serves the bus and waits on the clock only while a strobe
    is high, so an idle bus leaves the clock unobserved.  Within a
    rising edge's delta it may run after the master, where a method on
    the edge always ran first; each delta's signal changes are the
    same.
    """

    def __init__(self, name: str, bus: Bus, clock: Clock, size: int = 32,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        if size < 1:
            raise ElaborationError("register file needs at least one register")
        self.bus = bus
        self.clock = clock
        self.registers = [0] * size
        self._mirrors: dict[int, Signal] = {}
        self.write_count = 0
        self.thread(self._serve, name="serve")

    def mirror(self, address: int, initial=0) -> Signal:
        """Expose a register as a DE signal updated on every write."""
        if not 0 <= address < len(self.registers):
            raise ElaborationError(f"register address {address} out of range")
        signal = self._mirrors.get(address)
        if signal is None:
            signal = Signal(f"{self.name}.reg{address}", initial=initial)
            self._mirrors[address] = signal
            self.registers[address] = initial
        return signal

    def _serve(self):
        """Run :meth:`_edge` on every rising edge that finds a strobe
        high."""
        bus = self.bus
        clk = self.clock.signal
        posedge = clk.posedge_event()
        strobes = (bus.write_enable.posedge_event(),
                   bus.read_enable.posedge_event())
        while True:
            if bus.write_enable.read() or bus.read_enable.read():
                yield posedge
            else:
                yield strobes
                # A strobe that rose with the clock meets this edge.
                if not (clk.event() and clk.read()):
                    yield posedge
            self._edge()

    def _edge(self) -> None:
        if self.bus.write_enable.read():
            address = int(self.bus.addr.read())
            if 0 <= address < len(self.registers):
                value = self.bus.wdata.read()
                self.registers[address] = value
                self.write_count += 1
                mirror = self._mirrors.get(address)
                if mirror is not None:
                    mirror.write(value)
        if self.bus.read_enable.read():
            address = int(self.bus.addr.read())
            if 0 <= address < len(self.registers):
                self.bus.rdata.write(self.registers[address])

    def poke(self, address: int, value) -> None:
        """Backdoor write (hardware-originated status updates)."""
        self._check_backdoor(address)
        self.registers[address] = value
        mirror = self._mirrors.get(address)
        if mirror is not None:
            mirror.write(value)

    def peek(self, address: int):
        """Backdoor read."""
        self._check_backdoor(address)
        return self.registers[address]

    def _check_backdoor(self, address: int) -> None:
        # A negative index would silently reach the last registers.
        if not 0 <= address < len(self.registers):
            raise SimulationError(
                f"{self.name}: backdoor register address {address} out "
                f"of range 0..{len(self.registers) - 1}")
