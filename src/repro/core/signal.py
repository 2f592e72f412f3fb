"""Primitive channels: signals with evaluate/update semantics.

A write to a :class:`Signal` does not take effect until the update phase of
the current delta cycle, so every process reading the signal within one
evaluation phase observes the same value — the SystemC determinism rule.
"""

from __future__ import annotations

from typing import Generic, Optional, TypeVar

from .events import Event
from .kernel import Kernel

T = TypeVar("T")


class Signal(Generic[T]):
    """A single-driver signal carrying a value of any equality-comparable type."""

    def __init__(self, name: str = "signal", initial: T = 0):
        self.name = name
        self._current: T = initial
        self._next: T = initial
        #: the kernel a pending update is queued on (None: no update
        #: pending); a write seen by a *different* kernel (a fresh
        #: Simulator after an old one) must queue again.
        self._requested_kernel = None
        self._changed_event = Event(f"{name}.value_changed")
        #: Delta count at which the value last changed (for ``event()``).
        self._change_delta = -1
        self._change_ticks = -1

    def set_initial(self, value: T) -> None:
        """Assign the value directly, with no update phase and no event:
        the pre-simulation value, or the level that clock edges no
        process observed leave (see :class:`~repro.core.clock.Clock`)."""
        self._current = value
        self._next = value

    # -- access -------------------------------------------------------------

    def read(self) -> T:
        return self._current

    @property
    def value(self) -> T:
        return self._current

    def write(self, value: T) -> None:
        self._next = value
        kernel = Kernel._current
        if kernel is None:
            # Pre-simulation write: apply directly (initialization value).
            self._current = value
        elif self._requested_kernel is not kernel:
            self._requested_kernel = kernel
            kernel._update_queue.append(self)

    def default_event(self) -> Event:
        return self._changed_event

    def value_changed_event(self) -> Event:
        return self._changed_event

    def event(self) -> bool:
        """True if the signal changed value in the immediately preceding
        update phase at the current time."""
        kernel = Kernel.current()
        if kernel is None:
            return False
        return self._change_ticks == kernel.now_ticks and \
            self._change_delta == kernel.delta_count

    # -- kernel interface -----------------------------------------------------

    def _update(self, kernel: Kernel) -> None:
        self._requested_kernel = None
        if self._next != self._current:
            self._current = self._next
            self._change_delta = kernel.delta_count + 1
            self._change_ticks = kernel.now_ticks
            event = self._changed_event
            event._kernel = kernel
            kernel._delta_events.append(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, value={self._current!r})"


class BitSignal(Signal[bool]):
    """A boolean signal with positive/negative edge events."""

    def __init__(self, name: str = "bit", initial: bool = False):
        super().__init__(name, bool(initial))
        self._posedge = Event(f"{name}.posedge")
        self._negedge = Event(f"{name}.negedge")

    def posedge_event(self) -> Event:
        return self._posedge

    def negedge_event(self) -> Event:
        return self._negedge

    def write(self, value) -> None:
        Signal.write(self, bool(value))

    def _update(self, kernel: Kernel) -> None:
        self._requested_kernel = None
        value = self._next
        if value != self._current:
            self._current = value
            self._change_delta = kernel.delta_count + 1
            self._change_ticks = kernel.now_ticks
            changed = self._changed_event
            edge = self._posedge if value else self._negedge
            changed._kernel = edge._kernel = kernel
            # The value-changed event fires before the edge event.
            kernel._delta_events += (changed, edge)
