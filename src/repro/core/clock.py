"""Clock generator module."""

from __future__ import annotations

from typing import Optional

from .module import Module
from .signal import BitSignal
from .time import SimTime, ZERO_TIME


class Clock(Module):
    """A periodic boolean clock.

    Produces a :class:`~repro.core.signal.BitSignal` named ``signal``
    toggling with the given period and duty cycle.  The first posedge
    occurs at ``start_time`` (default: time zero).
    """

    def __init__(
        self,
        name: str,
        period: SimTime,
        parent: Optional[Module] = None,
        duty_cycle: float = 0.5,
        start_time: SimTime = ZERO_TIME,
        posedge_first: bool = True,
    ):
        super().__init__(name, parent)
        if period.ticks <= 0:
            raise ValueError("clock period must be positive")
        if not 0.0 < duty_cycle < 1.0:
            raise ValueError("duty cycle must lie strictly between 0 and 1")
        self.period = period
        self.duty_cycle = duty_cycle
        self.start_time = start_time
        self.posedge_first = posedge_first
        self.signal = BitSignal(f"{name}.signal", initial=not posedge_first)
        high = SimTime.from_ticks(round(period.ticks * duty_cycle))
        self._first_width = high if posedge_first else period - high
        self._second_width = period - self._first_width
        self.thread(self._generate, name="generate")

    def default_event(self):
        return self.signal.default_event()

    def posedge_event(self):
        return self.signal.posedge_event()

    def negedge_event(self):
        return self.signal.negedge_event()

    def read(self) -> bool:
        return self.signal.read()

    def _generate(self):
        if self.start_time.ticks > 0:
            yield self.start_time
        signal = self.signal
        level = self.posedge_first
        first, second = self._first_width, self._second_width
        while True:
            signal.write(level)
            yield first
            signal.write(not level)
            yield second
