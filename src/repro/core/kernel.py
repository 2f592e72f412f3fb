"""The discrete-event simulation kernel.

Implements the SystemC 2.0 scheduler loop the paper builds on ([10]):

1. **Evaluation** — run every runnable process.  Processes may write
   primitive channels (requesting updates), notify events, and spawn
   immediate notifications that extend the current evaluation phase.
2. **Update** — apply all requested channel updates.
3. **Delta notification** — fire pending delta notifications; processes
   sensitive to them become runnable.  If any did, go to 1 (next delta
   cycle at the same simulation time).
4. **Time advance** — otherwise advance simulation time to the earliest
   timed notification and fire it.  A clock edge that no process can
   observe is skipped instead (see :meth:`Kernel._skip_clock`).

The kernel is deliberately independent of any analog extension: the AMS
layers (`repro.tdf`, `repro.sync`) attach to it only through ordinary
processes and events, exactly as the paper requires of SystemC-AMS.
"""

from __future__ import annotations

import time as _time
from heapq import heappop, heappush
from typing import Callable, Optional

from .errors import SimulationError
from .events import Event
from .process import Process
from .time import SimTime


class Kernel:
    """Delta-cycle discrete-event scheduler.

    :class:`Event`, :class:`Process` and the signals of this package
    append to the runnable, update and delta queues directly, which
    keeps one process activation to a few Python calls.  A process is
    queued at most once per evaluation phase: its ``_queued`` flag is
    set when it is appended and cleared for a whole batch before any
    of the batch runs.  Timed notifications and thread wake-ups are
    heap entries ``[ticks, seq, target]`` (see :meth:`schedule`).
    """

    _current: Optional["Kernel"] = None

    def __init__(self):
        self.now_ticks = 0
        self.delta_count = 0
        #: Total number of process activations (a cost metric for E8).
        self.activation_count = 0
        self._runnable: list[Process] = []
        self._update_queue: list = []
        self._delta_events: list[Event] = []
        self._timed: list[list] = []
        self._seq = 0
        self._processes: list[Process] = []
        #: generator thread -> Clock, for every clock that no process
        #: is statically sensitive to (see :meth:`_skip_clock`)
        self._skippable_clocks: dict = {}
        self._initialized = False
        self._stop_requested = False
        self._time_callbacks: list[Callable[[int], None]] = []
        #: end tick of the current :meth:`run` call (None = unbounded).
        #: Block-executing TDF clusters read this to clamp how many
        #: periods they may batch without overrunning the run boundary.
        self.run_limit_ticks: Optional[int] = None
        #: Telemetry hub (see :mod:`repro.observe`); ``None`` keeps the
        #: scheduler loop on its unguarded path.
        self.telemetry = None
        self._h_events_per_delta = None
        self._fine_tracer = None
        Kernel._current = self

    def install_telemetry(self, telemetry) -> None:
        """Attach a :class:`repro.observe.Telemetry` hub.

        Pre-binds the per-delta dispatch histogram so the scheduler
        loop never resolves metric names; ``"fine"`` detail additionally
        records one ``kernel.delta`` span per delta cycle.
        """
        self.telemetry = telemetry
        if telemetry is None:
            self._h_events_per_delta = None
            self._fine_tracer = None
            return
        self._h_events_per_delta = telemetry.metrics.histogram(
            "kernel.events_per_delta")
        self._fine_tracer = telemetry.tracer if telemetry.fine else None

    # -- global context -----------------------------------------------------

    @classmethod
    def current(cls) -> Optional["Kernel"]:
        return cls._current

    @property
    def now(self) -> SimTime:
        return SimTime.from_ticks(self.now_ticks)

    # -- registration --------------------------------------------------------

    def register_process(self, process: Process) -> None:
        self._processes.append(process)
        for event in process.static_sensitivity:
            event._attach_kernel(self)
            event.add_static(process)
        if self._initialized:
            self._find_skippable_clocks()

    def add_time_callback(self, callback: Callable[[int], None]) -> None:
        """Invoke ``callback(now_ticks)`` after every time advance.

        A skipped clock edge is not one (see :meth:`_skip_clock`)."""
        self._time_callbacks.append(callback)

    # -- scheduling interface used by Event / Process ------------------------

    def make_runnable(self, process: Process,
                      trigger: Optional[Event] = None) -> None:
        """Queue ``process`` to run unless it is queued or terminated."""
        if not (process._queued or process._terminated):
            process._queued = True
            process.last_trigger = trigger
            self._runnable.append(process)

    def schedule(self, target, ticks: int) -> list:
        """Fire the event, or wake the thread process, ``target`` at
        ``ticks``; returns the handle :meth:`cancel_timed` takes.

        The entry is a list so that it can be cancelled (or a skipped
        clock's wake moved) in place; the heap orders entries in C on
        ``(ticks, seq)``, and ``seq`` is unique, so entries due at one
        instant keep scheduling order.
        """
        self._seq += 1
        entry = [ticks, self._seq, target]
        heappush(self._timed, entry)
        return entry

    @staticmethod
    def cancel_timed(entry: list) -> None:
        entry[2] = None

    def stop(self) -> None:
        """Request the simulation to halt at the end of the current delta."""
        self._stop_requested = True

    # -- the scheduler loop ----------------------------------------------------

    def initialize(self) -> None:
        """Run the initialization phase: every process runs once, except
        those marked ``dont_initialize``."""
        if self._initialized:
            return
        self._initialized = True
        self._find_skippable_clocks()
        for process in self._processes:
            if not process.dont_initialize:
                self.make_runnable(process)
        self._settle_current_time()

    def run(self, duration: Optional[SimTime] = None) -> SimTime:
        """Run the simulation for ``duration`` (or until no activity).

        Returns the simulation time at which the run stopped.
        """
        # Signals queue their updates on the current kernel, which is
        # the running one even when another simulator was built since.
        Kernel._current = self
        limit = None if duration is None else self.now_ticks + duration.ticks
        # Published before initialization: the first cluster period runs
        # during initialize() and must already see the run boundary.
        self.run_limit_ticks = limit
        self.initialize()
        timed = self._timed
        skippable = self._skippable_clocks
        while not self._stop_requested:
            ticks = self.next_activity_ticks()
            if ticks is None:
                break
            if limit is not None and ticks > limit:
                self.now_ticks = limit
                break
            if skippable and timed[0][2] in skippable \
                    and self._skip_clock(limit):
                continue
            if ticks < self.now_ticks:
                raise SimulationError(
                    "scheduler attempted to move time backwards")
            self.now_ticks = ticks
            for callback in self._time_callbacks:
                callback(ticks)
            # Every entry due now, in (ticks, seq) order; cancelled
            # entries are skipped, not treated as the instant's end.
            while timed and timed[0][0] == ticks:
                target = heappop(timed)[2]
                if target is None:
                    continue
                if isinstance(target, Event):
                    target._fire(self)
                else:
                    target._timer_handle = None
                    self.make_runnable(target)
            self._settle_current_time()
        if limit is not None and not self._stop_requested:
            self.now_ticks = max(self.now_ticks, limit)
        self._stop_requested = False
        return self.now

    def pending_activity(self) -> bool:
        """True if any timed notification remains scheduled."""
        return any(entry[2] is not None for entry in self._timed)

    def next_activity_ticks(self) -> Optional[int]:
        timed = self._timed
        while timed and timed[0][2] is None:
            heappop(timed)
        return timed[0][0] if timed else None

    # -- internals ----------------------------------------------------------

    def _find_skippable_clocks(self) -> None:
        # Updated in place: run() holds the dict.
        skippable = self._skippable_clocks
        skippable.clear()
        for process in self._processes:
            clock = process.clock
            if clock is not None and not clock._statically_observed():
                skippable[process] = clock

    def _skip_clock(self, limit: Optional[int]) -> bool:
        """Skip the earliest timed entry, the wake of a clock with no
        static observer, when only that edge is due: no process waits
        on the clock and no other entry shares the instant.

        The clock moves to its first edge at or after the next other
        entry, or past ``limit`` if that comes first; its signal takes
        the level the skipped edges leave, with no event.  This is
        exact: no process runs at a skipped instant, later reads see
        the level and ``event()`` the edges would have left, and the
        moved wake sorts after every entry already due at its instant,
        as the wake scheduled at the previous edge would.  An unbounded
        run with nothing else scheduled keeps stepping edge by edge.
        Returns whether the entry moved.
        """
        timed = self._timed
        entry = timed[0]
        clock = self._skippable_clocks[entry[2]]
        if clock._observed():
            return False
        heappop(timed)
        target = self.next_activity_ticks()
        if limit is not None and (target is None or target > limit):
            target = limit + 1
        if target is None or target == entry[0]:
            heappush(timed, entry)
            return False
        # The handle the thread holds stays valid: move the entry itself.
        self._seq += 1
        entry[0] = clock._skip(entry[0], target)
        entry[1] = self._seq
        heappush(timed, entry)
        return True

    def _settle_current_time(self) -> None:
        """Run delta cycles until the current time has no more activity."""
        histogram = self._h_events_per_delta
        fine = self._fine_tracer
        while True:
            if not (self._runnable or self._update_queue or self._delta_events):
                return
            if fine is not None:
                delta_start = _time.perf_counter()
            dispatched = 0
            # Evaluation phase.
            while self._runnable:
                batch, self._runnable = self._runnable, []
                for process in batch:
                    process._queued = False
                count = len(batch)
                dispatched += count
                self.activation_count += count
                for process in batch:
                    process._run(self)
                if self._stop_requested:
                    return
            # Update phase.
            updates, self._update_queue = self._update_queue, []
            for channel in updates:
                channel._update(self)
            # Delta notification phase.
            deltas, self._delta_events = self._delta_events, []
            for event in deltas:
                event._fire(self)
            self.delta_count += 1
            if histogram is not None:
                histogram.observe(dispatched)
                if fine is not None:
                    fine.complete(
                        "kernel.delta", delta_start,
                        _time.perf_counter() - delta_start,
                        track="kernel",
                        attrs={"t_ticks": self.now_ticks,
                               "dispatched": dispatched})
