"""Events: the primitive synchronization objects of the DE kernel.

An event may be notified immediately (processes run in the current
evaluation phase), as a delta notification (processes run in the next delta
cycle), or at a future simulation time.  Following the SystemC rule, an
event carries at most one pending notification and an earlier notification
overrides a later one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .time import SimTime, ZERO_TIME

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Kernel
    from .process import Process

#: Sentinel for a pending delta notification.
_DELTA = "delta"


class Event:
    """A notifiable synchronization point.

    Processes become sensitive to an event either statically (listed in
    their sensitivity at registration) or dynamically (a thread process
    yields the event as a wait condition).
    """

    __slots__ = (
        "name",
        "_static_sensitive",
        "_dynamic_waiters",
        "_pending",
        "_timed_handle",
        "_kernel",
    )

    def __init__(self, name: str = ""):
        self.name = name
        self._static_sensitive: list["Process"] = []
        self._dynamic_waiters: list["Process"] = []
        #: None, the _DELTA sentinel, or an int tick count of a timed notify.
        self._pending = None
        self._timed_handle = None
        self._kernel: Optional["Kernel"] = None

    # -- wiring -----------------------------------------------------------

    def _attach_kernel(self, kernel: "Kernel") -> None:
        self._kernel = kernel

    def _resolve_kernel(self) -> "Kernel":
        if self._kernel is not None:
            return self._kernel
        from .kernel import Kernel

        kernel = Kernel.current()
        if kernel is None:
            raise RuntimeError(
                f"event {self.name!r} notified with no active kernel"
            )
        self._kernel = kernel
        return kernel

    def add_static(self, process: "Process") -> None:
        if process not in self._static_sensitive:
            self._static_sensitive.append(process)

    # -- notification -----------------------------------------------------

    def notify(self, delay: Optional[SimTime] = None) -> None:
        """Notify the event.

        ``notify()`` is a delta notification; ``notify(t)`` with ``t`` zero
        is also a delta notification; ``notify(t)`` with positive ``t``
        schedules a timed notification.  An earlier pending notification
        wins over a later request.
        """
        kernel = self._resolve_kernel()
        if delay is None or delay == ZERO_TIME:
            self._request_delta(kernel)
            return
        target = kernel.now_ticks + delay.ticks
        if self._pending == _DELTA:
            return  # delta is earlier than any timed notification
        if isinstance(self._pending, int) and self._pending <= target:
            return  # an earlier timed notification is already pending
        self._cancel_timed(kernel)
        self._pending = target
        self._timed_handle = kernel.schedule(self, target)

    def notify_immediate(self) -> None:
        """Trigger sensitive processes in the current evaluation phase.

        Like SystemC's immediate ``notify()``, this first cancels any
        pending delta or timed notification of the event.
        """
        kernel = self._resolve_kernel()
        self.cancel()
        self._fire(kernel)

    def cancel(self) -> None:
        """Cancel any pending (delta or timed) notification."""
        if self._kernel is None:
            self._pending = None
            return
        if self._pending == _DELTA:
            deltas = self._kernel._delta_events
            if self in deltas:
                deltas.remove(self)
        else:
            self._cancel_timed(self._kernel)
        self._pending = None

    def _request_delta(self, kernel: "Kernel") -> None:
        if self._pending == _DELTA:
            return
        self._cancel_timed(kernel)
        self._pending = _DELTA
        kernel._delta_events.append(self)

    def _cancel_timed(self, kernel: "Kernel") -> None:
        if self._timed_handle is not None:
            kernel.cancel_timed(self._timed_handle)
            self._timed_handle = None

    # -- firing (kernel-internal) ------------------------------------------

    def _fire(self, kernel: "Kernel") -> None:
        """Deliver the notification: make sensitive processes runnable.

        Static processes are queued before dynamic waiters, each once
        per evaluation phase (see :meth:`Kernel.make_runnable`); a
        waiter also drops its other waits (the rest of a wait-any list
        and any pending wake-up).
        """
        self._pending = None
        self._timed_handle = None
        processes = self._static_sensitive
        waiters = self._dynamic_waiters
        if waiters:
            self._dynamic_waiters = []
            for process in waiters:
                for event in process._waiting_events:
                    if event is not self and \
                            process in event._dynamic_waiters:
                        event._dynamic_waiters.remove(process)
                process._waiting_events.clear()
                if process._timer_handle is not None:
                    kernel.cancel_timed(process._timer_handle)
                    process._timer_handle = None
            processes = processes + waiters
        runnable = kernel._runnable
        for process in processes:
            if not (process._queued or process._terminated):
                process._queued = True
                process.last_trigger = self
                runnable.append(process)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.name!r})"
