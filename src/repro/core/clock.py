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

    The kernel skips an edge that no process can observe (see
    :meth:`Kernel._skip_clock <repro.core.kernel.Kernel._skip_clock>`).
    Reads of the level, edge waits and ``signal.event()`` see what an
    edge-by-edge clock would show them, but ``kernel.activations``,
    ``kernel.delta_cycles``, the ``kernel.events_per_delta`` histogram
    and time callbacks count only the instants the kernel visits.  A
    clock with a static observer, such as an RTL process or a trace, is
    never skipped.
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
        high = SimTime.from_ticks(round(period.ticks * duty_cycle))
        if not 0 < high.ticks < period.ticks:
            raise ValueError(
                f"clock {name!r}: duty cycle {duty_cycle} of a {period} "
                "period leaves a phase shorter than one tick")
        self.period = period
        self.duty_cycle = duty_cycle
        self.start_time = start_time
        self.posedge_first = posedge_first
        self.signal = BitSignal(f"{name}.signal", initial=not posedge_first)
        #: how long the clock holds each level, indexed by the level
        self._hold = (period - high, high)
        #: the level the clock drives at its next edge, in a list: its
        #: item is cheaper to read and set on every edge than an
        #: attribute of an elaborated module
        self._next_level = [posedge_first]
        signal = self.signal
        self._events = (signal.default_event(), signal.posedge_event(),
                        signal.negedge_event())
        self.thread(self._generate, name="generate").clock = self

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
        write = self.signal.write
        low, high = self._hold
        next_level = self._next_level
        while True:
            # Read at every wake: skipping edges moves the clock on.
            level = next_level[0]
            next_level[0] = not level
            write(level)
            yield high if level else low

    # -- edge skipping (kernel-internal) ----------------------------------

    def _statically_observed(self) -> bool:
        return any(event._static_sensitive for event in self._events)

    def _observed(self) -> bool:
        changed, posedge, negedge = self._events
        return bool(changed._dynamic_waiters or posedge._dynamic_waiters
                    or negedge._dynamic_waiters)

    def _skip(self, ticks: int, target: int) -> int:
        """Skip the edges from the one due at ``ticks`` (``< target``)
        to the first at or after ``target``, and return that edge's
        time, the clock's next wake."""
        level = self._next_level[0]
        period = self.period.ticks
        # The edges a whole number of periods on drive the same level.
        ticks += (target - ticks) // period * period
        if ticks < target:
            hold = self._hold[level].ticks
            if ticks + hold < target:
                ticks += period
            else:
                ticks += hold
                level = not level
        self._next_level[0] = level
        # The edge before drove the other level; no process saw it.
        self.signal.set_initial(not level)
        return ticks
