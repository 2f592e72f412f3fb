"""TDF modules and DE converter ports.

A :class:`TdfModule` encapsulates behaviour executed at a fixed timestep
under static dataflow semantics — the paper's "continuous behaviour
encapsulated in static dataflow modules".  Subclasses override:

* :meth:`set_attributes` — declare rates, delays, and timesteps;
* :meth:`initialize` — runs once after cluster elaboration, before t=0;
* :meth:`processing` — runs once per activation.

Converter ports bridge the DE kernel:

* :class:`TdfDeIn` samples a DE signal at cluster-period boundaries;
* :class:`TdfDeOut` writes TDF samples onto a DE signal at the correct
  simulation times.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..core.errors import SynchronizationError
from ..core.events import Event
from ..core.module import Module
from ..core.port import InPort, OutPort
from ..core.time import FEMTO, SimTime, ZERO_TIME
from .signal import TdfPortBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import TdfCluster


class TdfModule(Module):
    """Base class for timed-dataflow modules."""

    #: Set True on subclasses whose ``processing`` has side effects the
    #: cluster may not run ahead of kernel time (e.g. poking DE-visible
    #: state outside converter ports).  Disables period batching for the
    #: whole cluster; block fusion within one period is unaffected.
    batch_unsafe = False

    #: Telemetry hub shared by the owning cluster (set during cluster
    #: elaboration; ``None`` = observability off).
    _telemetry = None

    def __init__(self, name: str, parent: Optional[Module] = None):
        super().__init__(name, parent)
        self._activation_index = 0
        self._cluster: Optional["TdfCluster"] = None
        #: module timestep, assigned by timestep propagation.
        self.timestep: Optional[SimTime] = None
        self.requested_timestep: Optional[SimTime] = None
        self.activation_count = 0

    # -- user API -----------------------------------------------------------------

    def set_attributes(self) -> None:
        """Override to declare rates, delays, and timesteps."""

    def initialize(self) -> None:
        """Override for pre-simulation setup (timesteps are known here)."""

    def processing(self) -> None:
        """Override: the per-activation behaviour."""
        raise NotImplementedError

    def processing_block(self, n: int) -> None:
        """Override to process ``n`` consecutive activations at once.

        A block-capable implementation must be *observationally
        identical* to ``n`` sequential :meth:`processing` calls — same
        output samples bit-for-bit, same internal state afterwards.  Use
        :meth:`TdfIn.read_block` / :meth:`TdfOut.write_block` for port
        I/O and :meth:`activation_times` for the activation instants.
        Modules that do not override this run sample-at-a-time inside
        the compiled schedule.
        """
        raise NotImplementedError

    def set_timestep(self, timestep: SimTime) -> None:
        """Request this module's activation period."""
        self.requested_timestep = timestep

    @property
    def local_time(self) -> SimTime:
        """Time of the current activation (may run ahead of kernel time)."""
        if self._cluster is None or self.timestep is None:
            return ZERO_TIME
        return SimTime.from_ticks(
            self._cluster.epoch_ticks
            + self.activation_count * self.timestep.ticks
        )

    # -- block-mode helpers ----------------------------------------------------

    def supports_block(self) -> bool:
        """True when the subclass overrides :meth:`processing_block`."""
        return (type(self).processing_block
                is not TdfModule.processing_block)

    def activation_times(self, n: int):
        """``local_time.to_seconds()`` of the next ``n`` activations.

        Bit-identical to evaluating :attr:`local_time` per activation:
        the tick arithmetic stays exact-integer and the single
        femtosecond scaling matches ``SimTime.to_seconds``.
        """
        epoch = self._cluster.epoch_ticks if self._cluster else 0
        ts = self.timestep.ticks if self.timestep else 0
        ticks = epoch + (self.activation_count
                         + np.arange(n, dtype=np.int64)) * ts
        return ticks * FEMTO

    def sample_times(self, n: int, rate: int):
        """Per-sample times for ``n`` activations of a rate-``rate`` port.

        Matches the scalar idiom ``local_time.to_seconds() + k * step``
        (with ``step = timestep.to_seconds() / rate``) bit-for-bit: the
        per-activation base time and the ``k * step`` offset are computed
        and added in the same order.
        """
        base = self.activation_times(n)
        if rate == 1:
            return base
        step = self.timestep.to_seconds() / rate
        offsets = np.arange(rate) * step
        return (base[:, None] + offsets[None, :]).ravel()

    def de_coupled(self) -> bool:
        """True when the module touches the DE world directly.

        Covers converter ports and raw DE ports held as attributes
        (e.g. a TDF module reading an ``InPort`` each activation).
        Such modules pin their cluster to one-period-at-a-time
        execution so DE-side values stay synchronized.
        """
        if self.converter_ports():
            return True
        return any(isinstance(v, (InPort, OutPort))
                   for v in vars(self).values())

    # -- framework plumbing -----------------------------------------------------------

    def tdf_ports(self) -> list[TdfPortBase]:
        return [v for v in vars(self).values()
                if isinstance(v, TdfPortBase)]

    def converter_ports(self) -> list:
        return [v for v in vars(self).values()
                if isinstance(v, (TdfDeIn, TdfDeOut))]

    def ams_elaborate(self, simulator) -> None:
        from .cluster import TdfRegistry

        registry = simulator.tdf_registry
        if registry is None:
            registry = TdfRegistry()
            simulator.tdf_registry = registry
            simulator.add_elaboration_finalizer(registry.finalize)
        registry.add_module(self)
        for port in self.tdf_ports():
            port.module = self
        for port in self.converter_ports():
            port.module = self

    def _activate(self) -> None:
        self.processing()
        self._activation_index += 1
        self.activation_count += 1

    def _activate_block(self, n: int) -> None:
        self.processing_block(n)
        self._activation_index += n
        self.activation_count += n

    def _scalar_fallback(self, n: int) -> None:
        """Run ``processing()`` ``n`` times from inside
        ``processing_block`` (for parameterizations a vectorized path
        cannot reproduce bit-exactly, e.g. data-dependent RNG draws).
        Temporarily advances the activation counters so per-activation
        port indexing and ``local_time`` stay correct; ``_activate_block``
        applies the real increment afterwards.
        """
        for _ in range(n):
            self.processing()
            self._activation_index += 1
            self.activation_count += 1
        self._activation_index -= n
        self.activation_count -= n

    def stats(self) -> dict:
        """Effort counters under their ``metrics_snapshot`` names (see
        :meth:`repro.ct.TransientSolver.stats`); a module that embeds a
        solver reports it here."""
        return {}

    # -- checkpoint hooks -------------------------------------------------------

    def checkpoint_state(self):
        """Override to contribute extra picklable state to checkpoints
        (e.g. an embedded CT solver's ``state_dict``)."""
        return None

    def restore_state(self, data) -> None:
        """Override to reinstall :meth:`checkpoint_state` data."""


class TdfDeIn:
    """Converter port: reads a DE signal into the TDF world.

    The value is sampled when the owning cluster wakes (once per cluster
    period); all activations within that period observe the sample — the
    fixed-timestep SDF<->DE synchronization of the paper's Phase 1.
    """

    def __init__(self, name: str, initial_value=0.0):
        self.name = name
        self.module: Optional[TdfModule] = None
        self.port: InPort = InPort(f"{name}.de")
        self._sampled = initial_value

    def bind(self, signal) -> None:
        self.port.bind(signal)

    __call__ = bind

    def sample(self) -> None:
        """Latch the DE value (called by the cluster at period start)."""
        self._sampled = self.port.read()

    def read(self):
        return self._sampled

    def full_name(self) -> str:
        owner = self.module.full_name() if self.module else "?"
        return f"{owner}.{self.name}"


class TdfDeOut:
    """Converter port: writes TDF samples onto a DE signal.

    Samples written during a cluster period are replayed onto the DE
    signal at their sample times by a dedicated writer thread.

    The port must be its signal's only driver, as a :class:`Signal` is
    single-driver.  The signal then holds, at each sample's instant, the
    last sample replayed, and a sample equal to it (``!=``, the test a
    signal update applies) would change nothing and notify nothing:
    such samples are not replayed, so the kernel visits only the
    instants where the signal changes.
    """

    def __init__(self, name: str, rate: int = 1):
        self.name = name
        self.module: Optional[TdfModule] = None
        self.port: OutPort = OutPort(f"{name}.de")
        self.rate = rate
        #: per-period queue of (offset_ticks, value), filled by write();
        #: after a flush, the changes the writer thread replays.
        self._queue: list[tuple[int, object]] = []
        #: queued samples due at or after the next period start, in
        #: cluster-local ticks, kept for the flush of their own period.
        self._later: list[tuple[int, object]] = []
        self._ready = Event(f"{name}.samples_ready")

    def bind(self, signal) -> None:
        self.port.bind(signal)

    __call__ = bind

    def _timestep_ticks(self) -> int:
        if self.module is None or self.module.timestep is None:
            raise SynchronizationError(
                f"converter port {self.full_name()!r} used before "
                "cluster elaboration"
            )
        return self.module.timestep.ticks

    def write(self, value, sample: int = 0) -> None:
        timestep = self._timestep_ticks()
        if not 0 <= sample < self.rate:
            raise SynchronizationError(
                f"sample index {sample} out of range for rate {self.rate} "
                f"converter {self.full_name()!r}"
            )
        offset = (self.module._activation_index * timestep
                  + sample * (timestep // self.rate))
        self._queue.append((offset, value))

    def write_block(self, values) -> None:
        """Queue ``activations * rate`` samples for consecutive
        activations, laid out activation-major: the same items, at the
        same offsets, as repeated ``write(value, k)`` calls.  The items
        of ``values`` are queued as they are."""
        timestep = self._timestep_ticks()
        rate = self.rate
        if len(values) % rate:
            raise SynchronizationError(
                f"block write of {len(values)} samples is not a multiple "
                f"of rate {rate} on converter {self.full_name()!r}"
            )
        step = timestep // rate
        start = self.module._activation_index * timestep
        self._queue += zip(
            [start + index * timestep + k * step
             for index in range(len(values) // rate) for k in range(rate)],
            values)

    def write_at(self, local_ticks: int, value) -> None:
        """Queue a value at an explicit cluster-local time (in ticks).

        Used for sub-sample event timing (e.g. interpolated threshold
        crossings): the time need not align with any sample instant.
        A time after the current cluster period is replayed in the
        period it falls in.  A time before the current period's start
        has passed on the kernel and raises
        :class:`SynchronizationError`.
        """
        local_ticks = int(local_ticks)
        cluster = self.module._cluster if self.module else None
        if cluster is None or cluster.period is None:
            raise SynchronizationError(
                f"converter port {self.full_name()!r} used before "
                "cluster elaboration"
            )
        start = cluster.period_count * cluster.period.ticks
        if local_ticks < start:
            raise SynchronizationError(
                f"converter port {self.full_name()!r}: write_at "
                f"{SimTime.from_ticks(local_ticks)} lies before the "
                f"current period start {SimTime.from_ticks(start)}"
            )
        self._queue.append((local_ticks, value))

    def full_name(self) -> str:
        owner = self.module.full_name() if self.module else "?"
        return f"{owner}.{self.name}"

    # -- cluster plumbing ---------------------------------------------------------

    def make_writer_thread(self, kernel) -> None:
        """Install the DE process replaying queued samples each period."""
        from ..core.process import THREAD, Process

        def writer():
            while True:
                yield self._ready
                changes, self._queue = self._queue, []
                elapsed = 0
                for offset, value in changes:
                    if offset > elapsed:
                        yield SimTime.from_ticks(offset - elapsed)
                        elapsed = offset
                    self.port.write(value)

        # The thread must initialize (run once) so it parks on the
        # ready event before the first cluster period flushes samples.
        process = Process(f"{self.full_name()}.writer", THREAD, writer)
        kernel.register_process(process)

    def flush(self, period_base_ticks: int, next_base_ticks: int) -> None:
        """Hand the writer thread the changes a period's samples make.

        ``period_base_ticks`` and ``next_base_ticks`` are the
        cluster-local times of this period's start and of the next
        one's.  The samples due before the next start are taken in time
        order, the last one queued at each instant, and each is compared
        with the value the signal holds then: the last change kept, or
        the signal's value now.  Those that differ are rebased to the
        period start and the writer thread is woken to replay them; a
        period without a change does not wake it.  Later samples (a
        ``write_at`` past the period, such as a pipelined crossing) wait
        for the flush of the period they fall in: the writer never
        sleeps past the next start, so it is parked on the next
        notification when that comes.
        """
        if not (self._queue or self._later):
            return
        # One entry per instant, the last one queued, in time order.
        batch = sorted(dict(self._later + self._queue).items())
        held = self.port.resolve().read()
        changes, later = [], []
        for offset, value in batch:
            if offset >= next_base_ticks:
                later.append((offset, value))
            elif value != held:
                held = value
                changes.append((offset - period_base_ticks, value))
        self._later = later
        self._queue = changes
        if changes:
            self._ready.notify()
