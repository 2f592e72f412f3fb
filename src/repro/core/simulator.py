"""Simulation driver: elaboration plus run control.

The :class:`Simulator` walks a module hierarchy, checks port bindings,
registers processes with a fresh :class:`~repro.core.kernel.Kernel`, runs
the AMS elaboration hooks (cluster building, solver setup — see
`repro.sync`), and then drives the scheduler.
"""

from __future__ import annotations

import contextlib
import time as _time
from typing import Optional

from .errors import ElaborationError, SimulationError
from .kernel import Kernel
from .module import Module
from .time import SimTime
from .trace import Trace

#: Totals :meth:`Simulator.metrics_snapshot` always reports, zero when
#: nothing in the design counts them.
SNAPSHOT_TOTALS = (
    "tdf.periods", "tdf.activations",
    "solver.steps", "solver.rejected", "solver.newton_iterations",
    "solver.factorizations", "solver.refactorizations",
    "solver.expm_cache_hits", "ct.skipped_activations",
    "resilience.tier.primary", "resilience.tier.halved",
    "resilience.tier.bdf", "health.checked_steps", "health.violations",
)

#: Module counters the snapshot also reports per module, under
#: ``<name>[module=<full name>]``.
PER_MODULE_KEYS = frozenset((
    "solver.steps", "solver.rejected", "solver.segments",
    "solver.factorizations", "solver.refactorizations",
    "solver.expm_cache_hits",
))


class Simulator:
    """Owns one kernel and one elaborated design."""

    def __init__(self, top: Module, trace: Optional[Trace] = None, *,
                 tdf_block: bool = True, tdf_batch: int = 16,
                 tdf_compact_every: int = 64, verify: str = "off",
                 observe=None):
        self.top = top
        self.trace = trace
        self.kernel = Kernel()
        self._elaborated = False
        #: Telemetry hub (:mod:`repro.observe`): ``observe`` accepts
        #: ``None``/``False`` (off), ``True``/``"on"`` (spans+metrics),
        #: ``"metrics"`` (registry only), ``"fine"`` (per-delta /
        #: per-advance spans) or a ready :class:`repro.observe.Telemetry`.
        if observe is None or observe is False:
            self.telemetry = None
        else:
            from ..observe import Telemetry

            self.telemetry = Telemetry.coerce(observe)
            self.kernel.install_telemetry(self.telemetry)
        if verify not in ("off", "warn", "error"):
            raise ValueError(
                f"verify must be 'off', 'warn', or 'error'; got "
                f"{verify!r}")
        #: Static-verification mode applied at elaboration: ``"error"``
        #: refuses to elaborate a model with verification errors,
        #: ``"warn"`` logs findings and continues, ``"off"`` skips the
        #: verifier entirely.
        self.verify_mode = verify
        #: The last pre-elaboration report (``verify != "off"`` only).
        self.verification_report = None
        self._stopped = False
        self._finalizers: list = []
        #: TDF execution tuning, read by TdfRegistry.finalize:
        #: ``tdf_block`` compiles cluster schedules into fused
        #: ``processing_block`` runs (False = scalar reference mode);
        #: ``tdf_batch`` caps how many cluster periods a DE-decoupled
        #: cluster may execute per kernel wake-up; ``tdf_compact_every``
        #: is the signal-buffer compaction interval in periods.
        self.tdf_block = tdf_block
        self.tdf_batch = tdf_batch
        self.tdf_compact_every = tdf_compact_every
        #: the TDF layer's :class:`~repro.tdf.TdfRegistry`, created when
        #: the first TDF module elaborates (None in a pure-DE design).
        self.tdf_registry = None
        #: set by run(checkpoint_every=...); reusable for postmortems.
        self.checkpoint_manager = None

    def __reduce__(self):
        # Campaign workers (repro.campaign) must build their own
        # simulator from a ``build(params)`` factory; an elaborated
        # kernel holds process closures and heap state that cannot
        # survive a pickle round-trip.
        raise SimulationError(
            "Simulator objects cannot be pickled; pass a factory "
            "function to the worker process and construct the "
            "Simulator there (see repro.campaign)"
        )

    def add_elaboration_finalizer(self, callback) -> None:
        """Register a callback run after process registration.

        The AMS layers use this to build dataflow clusters and set up
        continuous-time solvers once the whole hierarchy is known.
        """
        self._finalizers.append(callback)

    def _phase_span(self, name: str):
        """Elaboration-phase span, or a no-op when telemetry is off."""
        if self.telemetry is None:
            return contextlib.nullcontext()
        return self.telemetry.tracer.span(name, track="elaborate")

    def elaborate(self, verify: Optional[str] = None) -> None:
        if self._elaborated:
            return
        if self.telemetry is None:
            self._elaborate_inner(verify)
            return
        with self.telemetry.ambient():
            with self._phase_span("elaborate"):
                self._elaborate_inner(verify)

    def _elaborate_inner(self, verify: Optional[str] = None) -> None:
        mode = self.verify_mode if verify is None else verify
        if mode not in ("off", "warn", "error"):
            raise ValueError(
                f"verify must be 'off', 'warn', or 'error'; got "
                f"{mode!r}")
        if mode != "off":
            # Static pre-flight: catch composition errors (rates,
            # schedules, MNA structure, sync) before paying for any
            # kernel or solver setup.
            from ..verify import verify_model

            with self._phase_span("elaborate.verify"):
                report = verify_model(self.top)
            self.verification_report = report
            if mode == "error":
                report.raise_if_errors()
            elif not report.clean():
                import logging

                logger = logging.getLogger("repro.verify")
                for diagnostic in report:
                    level = (logging.ERROR
                             if diagnostic.severity == "error"
                             else logging.WARNING
                             if diagnostic.severity == "warning"
                             else logging.INFO)
                    logger.log(level, "%s", diagnostic.format())
        modules = list(self.top.walk())
        names = [m.full_name() for m in modules]
        if len(set(names)) != len(names):
            raise ElaborationError("duplicate module names in hierarchy")
        # AMS hook: modules that participate in dataflow clusters or own
        # equation systems expose ``ams_elaborate(simulator)``.
        with self._phase_span("elaborate.hierarchy"):
            for module in modules:
                hook = getattr(module, "ams_elaborate", None)
                if callable(hook):
                    hook(self)
            for module in modules:
                module.check_bindings()
        from .module import resolve_sensitivity

        with self._phase_span("elaborate.processes"):
            for module in modules:
                for process in module._processes:
                    resolve_sensitivity(process)
                    self.kernel.register_process(process)
        # Cluster building + solver setup (registered by the AMS layers).
        with self._phase_span("elaborate.finalize"):
            for callback in self._finalizers:
                callback(self)
        if self.trace is not None:
            self.trace.attach(self.kernel)
        with self._phase_span("elaborate.init_hooks"):
            for module in modules:
                module.end_of_elaboration()
            for module in modules:
                module.start_of_simulation()
        self._elaborated = True

    def run(self, duration: Optional[SimTime] = None, *,
            checkpoint_every: Optional[SimTime] = None,
            checkpoint_manager=None) -> SimTime:
        """Elaborate on first call, then run for ``duration``.

        Once :meth:`stop` has been called the simulator latches: a
        further ``run()`` raises :class:`SimulationError` instead of
        silently resuming the stopped kernel.  Call :meth:`reset` first
        to make the resumption explicit.

        With ``checkpoint_every`` the run is split into segments and a
        checkpoint (see :mod:`repro.resilience.checkpoint`) is saved
        after each; ``checkpoint_manager`` supplies storage (an
        in-memory :class:`~repro.resilience.checkpoint.CheckpointManager`
        is created when omitted and exposed as
        ``self.checkpoint_manager``).
        """
        if self._stopped:
            raise SimulationError(
                "Simulator.run() called after stop(); call reset() "
                "to explicitly resume the stopped simulation"
            )
        self.elaborate()
        telemetry = self.telemetry
        if telemetry is None:
            return self._run_inner(duration, checkpoint_every,
                                   checkpoint_manager)
        # Span the whole run segment; the ambient hub lets free
        # functions (homotopy ladders) report without a simulator ref.
        # ``moc.de.seconds`` is the run wall time minus what the TDF
        # clusters (which include embedded CT/ELN solves) accounted for.
        metrics = telemetry.metrics
        tdf_counter = metrics.counter("moc.tdf.seconds")
        tdf_before = tdf_counter.value
        attrs = {} if duration is None \
            else {"duration_ticks": duration.ticks}
        with telemetry.ambient(), \
                telemetry.tracer.span("simulate.run", track="kernel",
                                      **attrs):
            start = _time.perf_counter()
            try:
                return self._run_inner(duration, checkpoint_every,
                                       checkpoint_manager)
            finally:
                elapsed = _time.perf_counter() - start
                de_seconds = elapsed - (tdf_counter.value - tdf_before)
                metrics.counter("moc.de.seconds").inc(
                    max(de_seconds, 0.0))
                metrics.counter("simulate.run.seconds").inc(elapsed)

    def _run_inner(self, duration, checkpoint_every,
                   checkpoint_manager) -> SimTime:
        if checkpoint_every is None:
            return self.kernel.run(duration)
        if duration is None:
            raise SimulationError(
                "checkpoint_every requires a finite run duration"
            )
        if checkpoint_every.ticks <= 0:
            raise SimulationError("checkpoint_every must be positive")
        if checkpoint_manager is None:
            from ..resilience.checkpoint import CheckpointManager

            checkpoint_manager = CheckpointManager()
        self.checkpoint_manager = checkpoint_manager
        end_ticks = self.kernel.now_ticks + duration.ticks
        while self.kernel.now_ticks < end_ticks and not self._stopped:
            chunk = min(checkpoint_every.ticks,
                        end_ticks - self.kernel.now_ticks)
            self.kernel.run(SimTime.from_ticks(chunk))
            checkpoint_manager.save(self.capture_checkpoint(),
                                    self.kernel.now.to_seconds())
        return self.kernel.now

    # -- checkpoint/restart (see repro.resilience.checkpoint) ---------------

    def _clusters(self) -> list:
        registry = self.tdf_registry
        return registry.clusters if registry is not None else []

    def capture_checkpoint(self) -> dict:
        """Picklable snapshot of the kernel clock and all TDF clusters."""
        return {
            "now_ticks": self.kernel.now_ticks,
            "clusters": [c.checkpoint_state() for c in self._clusters()],
        }

    def restore_checkpoint(self, payload: dict) -> SimTime:
        """Resume from a :meth:`capture_checkpoint` payload.

        Must be called on a *freshly built* simulator (same model
        factory, no prior :meth:`run`): the design is elaborated, the
        checkpointed cluster state is reinstalled, and the kernel clock
        is moved to the checkpoint time.  A subsequent ``run(d)``
        continues the simulation for ``d`` more.
        """
        if self.kernel._initialized:
            raise SimulationError(
                "restore_checkpoint requires a freshly built simulator "
                "(restore before the first run)"
            )
        self.elaborate()
        clusters = self._clusters()
        saved = payload["clusters"]
        if len(saved) != len(clusters):
            raise SimulationError(
                "checkpoint does not match the elaborated design "
                f"({len(saved)} saved clusters, {len(clusters)} built)"
            )
        for cluster, data in zip(clusters, saved):
            cluster.restore_state(data)
        self.kernel.now_ticks = int(payload["now_ticks"])
        return self.kernel.now

    # -- telemetry (see repro.observe) ---------------------------------------

    def metrics_snapshot(self) -> dict:
        """Flat ``{metric_key: number}`` harvest of the engine's state.

        Works with or without an installed telemetry hub.  Kernel
        counters come from the kernel; everything else is a fold over
        the ``stats()`` of every TDF cluster and module (an embedded
        solver reports through its module): the :data:`PER_MODULE_KEYS`
        are also keyed per module, and the :data:`SNAPSHOT_TOTALS` are
        summed and always present.  Live registry metrics (per-MoC and
        per-module wall time, histograms as ``.count/.sum/.p95``) are
        merged in when telemetry is enabled.  Campaign runs store this
        mapping on each :class:`~repro.campaign.records.RunRecord`.
        """
        snap: dict = {
            "kernel.delta_cycles": float(self.kernel.delta_count),
            "kernel.activations": float(self.kernel.activation_count),
            "kernel.now_ticks": float(self.kernel.now_ticks),
        }
        totals = dict.fromkeys(SNAPSHOT_TOTALS, 0.0)
        for cluster in self._clusters():
            for key, value in cluster.stats().items():
                totals[key] += value
            for module in cluster.modules:
                stats = module.stats()
                if not stats:
                    continue
                name = module.full_name()
                for key, value in stats.items():
                    if key in PER_MODULE_KEYS:
                        snap[f"{key}[module={name}]"] = float(value)
                    if key in totals:
                        totals[key] += value
        snap.update(totals)
        if self.telemetry is not None:
            snap.update(self.telemetry.metrics.scalars())
        return snap

    def export_telemetry(self, directory) -> dict:
        """Write ``trace.json`` / ``trace.jsonl`` / ``metrics.json``
        under ``directory`` (requires ``observe=`` at construction);
        the metrics dump includes :meth:`metrics_snapshot`."""
        if self.telemetry is None:
            raise SimulationError(
                "export_telemetry requires Simulator(observe=...)"
            )
        return self.telemetry.export(
            directory, extra_metrics=self.metrics_snapshot())

    @property
    def now(self) -> SimTime:
        return self.kernel.now

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has latched this simulator."""
        return self._stopped

    def stop(self) -> None:
        """Halt the kernel and latch the simulator (see :meth:`run`)."""
        self._stopped = True
        self.kernel.stop()

    def reset(self) -> None:
        """Clear the stop latch so :meth:`run` may resume.

        Module and signal state are preserved — this resumes the
        simulation from where :meth:`stop` halted it; it does not
        re-elaborate the design.
        """
        self._stopped = False
