"""Simulation processes.

Two process kinds mirror SystemC:

* **method processes** — a plain callable invoked from the beginning on
  every trigger; static sensitivity only.
* **thread processes** — a generator resumed on every trigger.  The values
  a thread yields are its dynamic wait conditions: a :class:`SimTime`
  (wait for a duration), an :class:`Event`, or a tuple of events (wait for
  any of them).
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .errors import SimulationError
from .events import Event
from .time import SimTime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Kernel

METHOD = "method"
THREAD = "thread"


class Process:
    """A schedulable unit of behaviour owned by a module."""

    __slots__ = (
        "name",
        "kind",
        "func",
        "static_sensitivity",
        "dont_initialize",
        "_generator",
        "_terminated",
        "_waiting_events",
        "_timer_handle",
        "_queued",
        "last_trigger",
        "terminated_event",
        "clock",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        func: Callable,
        sensitivity: Sequence[Event] = (),
        dont_initialize: bool = False,
    ):
        if kind not in (METHOD, THREAD):
            raise ValueError(f"unknown process kind {kind!r}")
        self.name = name
        self.kind = kind
        self.func = func
        self.static_sensitivity = list(sensitivity)
        self.dont_initialize = dont_initialize
        self._generator = None
        self._terminated = False
        self._waiting_events: list[Event] = []
        self._timer_handle = None
        self._queued = False
        #: The event that most recently made this process runnable.
        self.last_trigger: Optional[Event] = None
        self.terminated_event = Event(f"{name}.terminated")
        #: The :class:`~repro.core.clock.Clock` whose edges this thread
        #: generates, else None; the kernel skips the edges of a clock
        #: that no process observes.
        self.clock = None

    # -- state ------------------------------------------------------------

    @property
    def terminated(self) -> bool:
        return self._terminated

    # -- execution (kernel-internal) ---------------------------------------

    def _run(self, kernel: "Kernel") -> None:
        if self._terminated:
            return
        if self.kind == METHOD:
            self.func()
            return
        generator = self._generator
        if generator is None:
            generator = self.func()
            if not inspect.isgenerator(generator):
                # A thread body with no yields: runs once to completion.
                self._finish(kernel)
                return
            self._generator = generator
        try:
            request = next(generator)
        except StopIteration:
            self._finish(kernel)
            return
        if isinstance(request, SimTime):
            self._timer_handle = kernel.schedule(
                self, kernel.now_ticks + request.ticks)
            return
        events = (request,) if isinstance(request, Event) \
            else self._wait_list(request)
        for event in events:
            event._kernel = kernel
            if self not in event._dynamic_waiters:
                event._dynamic_waiters.append(self)
            self._waiting_events.append(event)

    def _wait_list(self, request) -> list:
        """The events of a wait-any request (an iterable of events)."""
        if not isinstance(request, Iterable):
            raise SimulationError(
                f"process {self.name!r} yielded invalid wait condition "
                f"{request!r}; expected SimTime, Event, or iterable of "
                "Events"
            )
        events = list(request)
        if not events or not all(isinstance(e, Event) for e in events):
            raise SimulationError(
                f"process {self.name!r} yielded an invalid wait list"
            )
        return events

    def _finish(self, kernel: "Kernel") -> None:
        self._terminated = True
        self._generator = None
        self.terminated_event._attach_kernel(kernel)
        self.terminated_event.notify()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name!r}, {self.kind})"
