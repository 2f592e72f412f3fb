"""Small RTL building blocks for the DE layer.

The paper's Figure 1 models "the digital interfaces ... as RTL
components"; these clocked primitives provide that substrate.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.clock import Clock
from ..core.errors import ElaborationError
from ..core.module import Module
from ..core.port import InPort
from ..core.signal import BitSignal, Signal


class DFlipFlop(Module):
    """D register: output follows input on the rising clock edge."""

    def __init__(self, name: str, clock: Clock,
                 parent: Optional[Module] = None, initial=0):
        super().__init__(name, parent)
        self.d = InPort("d")
        self.q = Signal(f"{name}.q", initial=initial)
        self.method(self._edge, sensitivity=[clock.posedge_event()],
                    dont_initialize=True)

    def _edge(self) -> None:
        self.q.write(self.d.read())


class Counter(Module):
    """Up-counter with synchronous enable and clear."""

    def __init__(self, name: str, clock: Clock, width: int = 8,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        if width < 1:
            raise ElaborationError("counter width must be >= 1")
        self.enable = InPort("enable")
        self.clear = InPort("clear")
        self.value = Signal(f"{name}.value", initial=0)
        self.modulo = 1 << width
        self.method(self._edge, sensitivity=[clock.posedge_event()],
                    dont_initialize=True)

    def _edge(self) -> None:
        if self.clear.bound and self.clear.read():
            self.value.write(0)
        elif not self.enable.bound or self.enable.read():
            self.value.write((self.value.read() + 1) % self.modulo)


class ShiftRegister(Module):
    """Serial-in shift register; parallel value on ``value``."""

    def __init__(self, name: str, clock: Clock, width: int = 8,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.serial_in = InPort("serial_in")
        self.value = Signal(f"{name}.value", initial=0)
        self.width = width
        self.method(self._edge, sensitivity=[clock.posedge_event()],
                    dont_initialize=True)

    def _edge(self) -> None:
        shifted = ((self.value.read() << 1)
                   | int(bool(self.serial_in.read())))
        self.value.write(shifted & ((1 << self.width) - 1))


class EdgeDetector(Module):
    """One-cycle pulse on each rising edge of a sampled boolean input."""

    def __init__(self, name: str, clock: Clock,
                 parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.inp = InPort("inp")
        self.pulse = BitSignal(f"{name}.pulse", initial=False)
        self._last = False
        self.method(self._edge, sensitivity=[clock.posedge_event()],
                    dont_initialize=True)

    def _edge(self) -> None:
        current = bool(self.inp.read())
        self.pulse.write(current and not self._last)
        self._last = current


class Synchronizer(Module):
    """Two-flop synchronizer for signals crossing into a clock domain."""

    def __init__(self, name: str, clock: Clock,
                 parent: Optional[Module] = None, initial=0):
        super().__init__(name, parent)
        self.inp = InPort("inp")
        self.out = Signal(f"{name}.out", initial=initial)
        self._stage = initial
        self.method(self._edge, sensitivity=[clock.posedge_event()],
                    dont_initialize=True)

    def _edge(self) -> None:
        self.out.write(self._stage)
        self._stage = self.inp.read()


class CombinationalLogic(Module):
    """Arbitrary combinational function of its input ports.

    ``func`` receives the read values of ``inputs`` (in order) and its
    return value drives ``out``.  Re-evaluates whenever any input
    changes.
    """

    def __init__(self, name: str, inputs: list, func: Callable,
                 parent: Optional[Module] = None, initial=0):
        super().__init__(name, parent)
        self.inputs = inputs
        self.func = func
        self.out = Signal(f"{name}.out", initial=initial)
        self.method(
            self._evaluate,
            sensitivity=[sig.default_event() for sig in inputs],
        )

    def _evaluate(self) -> None:
        values = [sig.read() for sig in self.inputs]
        self.out.write(self.func(*values))
