"""TDF modules embedding continuous-time solvers.

These realize the paper's central synchronization scheme: "linear ODE
systems of equations can be solved using a fixed integration time step
that can be synchronized with the rate at which samples are handled by
the SDF model".  Each module owns a continuous-time solver advanced in
lockstep with its TDF activations:

* :class:`ElnTdfModule` — an electrical network with TDF-driven sources,
  TDF-sampled node voltages / branch currents, and DE-controlled
  switches;
* :class:`LsfTdfModule` — a linear signal-flow model with TDF terminals;
* :class:`NonlinearTdfModule` — a nonlinear DAE advanced by the adaptive
  Newton solver between sync points (Phase 2);
* :class:`SolverTdfModule` — any :class:`~repro.ct.TransientSolver`
  plug-in (Phase "coupling with existing continuous-time simulators").

The consistent initial state required by the paper is computed before
time zero: inputs take their initial port values and the solver performs
a DC solve.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.errors import ElaborationError, SynchronizationError
from ..core.module import Module
from ..core.port import InPort
from ..ct.linear import (
    LinearDae,
    SPARSE_AUTO_THRESHOLD,
    STEPPER_VARIANTS,
)
from ..ct.nonlinear import NonlinearSystem
from ..ct.solver_api import (
    LinearTransientSolver,
    NonlinearTransientSolver,
    TransientSolver,
    substep_counts,
    tick_interval,
)
from ..eln.components import Switch, Vsource, Isource
from ..eln.network import Network
from ..lsf.network import LsfNetwork, LsfSignal
from ..tdf.module import TdfModule
from ..tdf.signal import TdfIn, TdfOut
from .holders import InputHolder, held_values


class CtTdfModule(TdfModule):
    """Shared solver-lockstep machinery.

    Subclasses populate ``_inputs`` (port, holder) and ``_outputs``
    (port, extractor) and implement :meth:`_make_solver`.
    """

    #: MoC label used for telemetry (``moc.<moc>.seconds`` wall-time
    #: counters and solver span attributes).
    moc = "ct"

    def __init__(self, name: str, parent: Optional[Module] = None,
                 interpolate_inputs: bool = True,
                 resilient: bool = False,
                 resilient_options: Optional[dict] = None):
        super().__init__(name, parent)
        self._inputs: list[tuple[TdfIn, InputHolder]] = []
        self._outputs: list[tuple[TdfOut, Callable[[np.ndarray], float]]] = []
        self._solver: Optional[TransientSolver] = None
        self._interpolate = interpolate_inputs
        #: wrap the solver in a ResilientTransientSolver fallback chain.
        self.resilient = resilient
        self.resilient_options = dict(resilient_options or {})
        #: activations skipped by the settle-gating optimisation.
        self.skipped_activations = 0
        self.gating_enabled = False
        self.gating_tolerance = 0.0
        self._last_inputs: Optional[tuple] = None
        self._last_delta = np.inf
        #: pre-bound ``moc.<moc>.seconds`` counter (None = telemetry off).
        self._m_solver_seconds = None

    # -- public wiring ----------------------------------------------------------

    def enable_gating(self, tolerance: float = 1e-12) -> None:
        """Enable virtual-clock activation gating (Bonnerud [2]):

        when every input sample is unchanged and the state moved less
        than ``tolerance`` in the previous step, the solver advance is
        skipped and the previous outputs are re-emitted.
        """
        self.gating_enabled = True
        self.gating_tolerance = tolerance

    # -- TdfModule hooks ------------------------------------------------------------

    def initialize(self) -> None:
        for port, holder in self._inputs:
            holder.value = holder._previous = port.initial_value
        solver = self._make_solver()
        if self.resilient:
            from ..resilience.fallback import ResilientTransientSolver

            solver = ResilientTransientSolver(
                solver, **self.resilient_options
            )
        telemetry = self._telemetry
        if telemetry is not None:
            self._m_solver_seconds = telemetry.metrics.counter(
                f"moc.{self.moc}.seconds")
            if hasattr(solver, "tier_counts"):
                solver.telemetry = telemetry
                solver.monitor.telemetry = telemetry
        self._solver = solver
        solver.initialize(0.0, self._initial_state())

    def stats(self) -> dict:
        """The solver's :meth:`~repro.ct.TransientSolver.stats` plus the
        activations gating skipped; empty before elaboration."""
        if self._solver is None:
            return {}
        stats = self._solver.stats()
        stats["ct.skipped_activations"] = self.skipped_activations
        return stats

    def processing(self) -> None:
        solver = self._solver
        if solver is None:
            raise SynchronizationError(
                f"{self.full_name()!r} activated before initialization"
            )
        samples = tuple(port.read() for port, _h in self._inputs)
        state = self._advance_one(self.local_time.to_seconds(), samples,
                                  first=self._activation_index == 0)
        self._emit(state)

    def processing_block(self, n: int) -> None:
        """Batch the port I/O and, where the window path applies, the
        solver steps of ``n`` activations.

        Every port is read / written once per block.  The steps run
        in one :meth:`_advance_window` call when :meth:`_window_rows`
        allows it, otherwise through the exact scalar per-activation
        core.
        """
        if self._solver is None:
            raise SynchronizationError(
                f"{self.full_name()!r} activated before initialization"
            )
        if not all(port.block_readable() for port, _h in self._inputs):
            self._scalar_fallback(n)
            return
        times = self.activation_times(n)
        columns = [port.read_block(n) for port, _h in self._inputs]
        outs = np.empty((len(self._outputs), n))
        base = self._activation_index
        start = 0
        if base == 0 and n > 0:
            # The consistent-initialization special case stays scalar.
            samples = tuple(float(col[0]) for col in columns)
            state = self._advance_one(float(times[0]), samples,
                                      first=True)
            for slot, (_port, extract) in enumerate(self._outputs):
                outs[slot, 0] = extract(state)
            start = 1
        if start < n:
            states = None
            rows = self._window_rows()
            if rows is not None:
                states = self._advance_window(
                    times[start:], [col[start:] for col in columns], rows
                )
            if states is not None:
                for slot, (_port, extract) in enumerate(self._outputs):
                    column = self._extract_column(extract, states)
                    if column is None:
                        for a in range(n - start):
                            outs[slot, start + a] = extract(states[a])
                    else:
                        outs[slot, start:] = column
            else:
                for a in range(start, n):
                    samples = tuple(float(col[a]) for col in columns)
                    state = self._advance_one(float(times[a]), samples,
                                              first=False)
                    for slot, (_port, extract) in enumerate(self._outputs):
                        outs[slot, a] = extract(state)
        for slot, (port, _extract) in enumerate(self._outputs):
            port.write_block(outs[slot])

    def _advance_one(self, t_now: float, samples: tuple,
                     first: bool) -> np.ndarray:
        """Latch one activation's inputs, advance the solver, and return
        the state to emit (shared by the scalar and block paths)."""
        solver = self._solver
        if first:
            # First activation: latch the t=0 input samples, snap the
            # algebraic unknowns to them (consistent initialization;
            # differential states keep their quiescent values), and
            # emit the resulting state.
            for (port, holder), value in zip(self._inputs, samples):
                holder.push(value, 0.0, 0.0)
            self._snap()
            return solver.state
        t_prev = solver.time
        for (port, holder), value in zip(self._inputs, samples):
            holder.push(value, t_prev, t_now)
        if self._should_skip(samples):
            self.skipped_activations += 1
            # Time marches on even when gated (unwrap a resilient chain).
            getattr(solver, "primary", solver)._t = t_now
            if hasattr(solver, "_t_good"):
                solver._t_good = t_now
            return solver.state
        before = np.array(solver.state, copy=True)
        seconds = self._m_solver_seconds
        if seconds is None:
            state = solver.advance_to(t_now)
        else:
            advance_start = _time.perf_counter()
            state = solver.advance_to(t_now)
            advance_elapsed = _time.perf_counter() - advance_start
            seconds.inc(advance_elapsed)
            telemetry = self._telemetry
            if telemetry.fine:
                telemetry.tracer.complete(
                    "solver.advance", advance_start, advance_elapsed,
                    track=f"solver.{self.name}",
                    attrs={"moc": self.moc, "t": t_now})
        self._last_delta = float(np.max(np.abs(state - before))) \
            if state.size else 0.0
        self._last_inputs = samples
        return state

    # -- window fast path --------------------------------------------------------

    def _window_rows(self):
        """The source-row layout if the window fast path applies.

        The path requires the plain built-in linear solver with no
        per-step observers: no health monitor, no gating, and no
        fine-grained telemetry (which traces each ``advance_to``).
        Internal substepping (``h_internal``) is replayed by the
        window itself.  The returned value is the stamp-order
        ``(row, waveform, scale)`` layout attached by the network
        assemblers, or None.
        """
        if self.gating_enabled:
            return None
        solver = self._solver
        if not isinstance(solver, LinearTransientSolver):
            return None
        if solver.monitor is not None:
            return None
        telemetry = self._telemetry
        if telemetry is not None and telemetry.fine:
            return None
        source = getattr(solver.system, "source", None)
        return getattr(source, "rows", None)

    def _advance_window(self, times, columns, rows):
        """Advance a whole block of activations in one solver call.

        Expands every activation into exactly the internal steps
        ``advance_to`` takes (:func:`~repro.ct.solver_api.substep_counts`
        of them, each the :func:`~repro.ct.solver_api.tick_interval`
        divided by the count), pre-evaluates every
        source row at each step's start and end instants (replaying the
        ``InputHolder`` hold/interpolation arithmetic vectorized,
        bit-for-bit) and hands the solver one ``advance_window`` call.
        Returns the state after each activation, or None when the
        window cannot be formed (non-monotonic times).
        """
        solver = self._solver
        count = len(times)
        t_prev = np.empty(count)
        t_prev[0] = solver.time
        t_prev[1:] = times[:-1]
        if not np.all(times > t_prev):
            return None
        intervals = tick_interval(t_prev, times)
        need_now = (solver.variant == "expm"
                    or solver.method == "trapezoidal")
        if solver.h_internal is None:
            # One step per activation: no expansion.
            owner = last = None
            starts, h_values, targets = t_prev, intervals, times
        else:
            substeps = substep_counts(t_prev, times, solver.h_internal)
            last = np.cumsum(substeps) - 1
            owner = np.repeat(np.arange(count), substeps)
            k = np.arange(len(owner)) - (last + 1 - substeps)[owner]
            h_values = (intervals / substeps)[owner]
            starts = t_prev[owner] + k * h_values
        # The scalar step evaluates sources at start + h, which may
        # differ from the target time by one ULP; replicate literally.
        ends = starts + h_values
        if owner is not None:
            targets = ends.copy()
            targets[last] = times
        # Per-holder sample columns at the step end/start instants,
        # matched to source rows by holder identity.
        holder_columns: dict[int, tuple] = {}
        for (_port, holder), col in zip(self._inputs, columns):
            prev = np.empty(count)
            prev[0] = holder.value
            prev[1:] = col[:-1]
            if not holder.interpolate:
                next_col = now_col = col if owner is None else col[owner]
            elif owner is None:
                next_col = held_values(ends, t_prev, times, prev, col)
                now_col = prev
            else:
                t0, t1 = t_prev[owner], times[owner]
                prev, value = prev[owner], col[owner]
                next_col = held_values(ends, t0, t1, prev, value)
                now_col = held_values(starts, t0, t1, prev, value) \
                    if need_now else None
            holder_columns[id(holder)] = (next_col, now_col)
        steps = len(h_values)
        n = solver.system.n
        b_next = np.zeros((steps, n))
        b_now = np.zeros((steps, n)) if need_now else None
        for row, waveform, scale in rows:
            pair = holder_columns.get(id(waveform))
            if pair is not None:
                nxt, now = pair
            elif callable(waveform):
                # Arbitrary Python waveform: evaluate per step at the
                # exact scalar instants.
                nxt = np.empty(steps)
                for j in range(steps):
                    nxt[j] = waveform(float(ends[j]))
                now = None
                if need_now:
                    now = np.empty(steps)
                    for j in range(steps):
                        now[j] = waveform(float(starts[j]))
            else:
                nxt = now = np.full(steps, float(waveform))
            if scale == 1.0:
                b_next[:, row] += nxt
                if need_now:
                    b_now[:, row] += now
            else:
                b_next[:, row] += scale * nxt
                if need_now:
                    b_now[:, row] += scale * now
        x_before = np.array(solver.state, copy=True)
        seconds = self._m_solver_seconds
        if seconds is None:
            states = solver.advance_window(targets, h_values,
                                           b_next, b_now)
        else:
            advance_start = _time.perf_counter()
            states = solver.advance_window(targets, h_values,
                                           b_next, b_now)
            seconds.inc(_time.perf_counter() - advance_start)
        if last is not None:
            states = states[last]
        # Leave holders, gating memory and delta exactly as the last
        # scalar activation would have (checkpoint parity).
        for (_port, holder), col in zip(self._inputs, columns):
            if count >= 2:
                holder.value = float(col[-2])
            holder.push(float(col[-1]), float(t_prev[-1]), float(times[-1]))
        self._last_inputs = tuple(float(col[-1]) for col in columns)
        before = states[-2] if count >= 2 else x_before
        self._last_delta = float(np.max(np.abs(states[-1] - before))) \
            if states[-1].size else 0.0
        return states

    def _extract_column(self, extract, states):
        """Vectorized counterpart of ``extract(state)`` over a window of
        states, or None when only the scalar extractor exists."""
        return None

    # -- internals -----------------------------------------------------------------

    def _snap(self) -> None:
        """Re-solve algebraic unknowns against the current inputs."""
        snap = getattr(self._solver, "snap_algebraic", None)
        if snap is not None and self.timestep is not None:
            snap(self.timestep.to_seconds())

    def _should_skip(self, samples: tuple) -> bool:
        return (
            self.gating_enabled
            and self._last_inputs == samples
            and self._last_delta <= self.gating_tolerance
        )

    def _emit(self, state: np.ndarray) -> None:
        for port, extract in self._outputs:
            port.write(extract(state))

    def _make_solver(self) -> TransientSolver:
        raise NotImplementedError

    def _initial_state(self) -> Optional[np.ndarray]:
        """The consistent initial state the solver starts from; None
        lets the solver compute its own DC operating point."""
        return None

    def _install_solver(self, primary: TransientSolver) -> None:
        """Adopt a rebuilt primary, preserving a resilient wrapper."""
        from ..resilience.fallback import ResilientTransientSolver

        if isinstance(self._solver, ResilientTransientSolver):
            self._solver.replace_primary(primary)
        else:
            self._solver = primary

    # -- checkpoint hooks -------------------------------------------------------

    def checkpoint_state(self):
        return {
            "solver": (self._solver.state_dict()
                       if self._solver is not None else None),
            "holders": [
                (holder.value, holder._previous, holder._t0, holder._t1)
                for _port, holder in self._inputs
            ],
            "skipped_activations": self.skipped_activations,
            "last_inputs": self._last_inputs,
            "last_delta": self._last_delta,
        }

    def restore_state(self, data) -> None:
        if data is None:
            return
        if data["solver"] is not None and self._solver is not None:
            self._solver.load_state_dict(data["solver"])
        for (_port, holder), values in zip(self._inputs, data["holders"]):
            (holder.value, holder._previous,
             holder._t0, holder._t1) = values
        self.skipped_activations = int(data["skipped_activations"])
        self._last_inputs = data["last_inputs"]
        self._last_delta = data["last_delta"]


def _checked_oversample(name: str, oversample) -> int:
    """The internal steps per activation of a linear CT module: a whole
    number of at least one (a fraction would round up silently)."""
    if isinstance(oversample, bool) \
            or not isinstance(oversample, (int, np.integer)) \
            or oversample < 1:
        raise ElaborationError(
            f"{name!r}: oversample must be an integer >= 1, "
            f"got {oversample!r}"
        )
    return int(oversample)


class ElnTdfModule(CtTdfModule):
    """An electrical linear network embedded in the TDF world.

    Build the network first, then declare terminals::

        net = Network()
        net.add(Vsource("Vin", "in", "0"))   # value supplied by TDF
        net.add(Resistor("R1", "in", "out", 1e3))
        net.add(Capacitor("C1", "out", "0", 1e-6))
        mod = ElnTdfModule("rc", net, parent=top)
        vin = mod.drive_voltage("Vin")       # returns a TdfIn
        vout = mod.sample_voltage("out")     # returns a TdfOut

    DE-controlled switches are declared with :meth:`bind_switch`; a
    toggle re-assembles the network (a new iteration matrix) while the
    state vector carries over, since the unknown set is unchanged.
    """

    moc = "eln"

    def __init__(self, name: str, network: Network,
                 parent: Optional[Module] = None,
                 method: str = "trapezoidal",
                 oversample: int = 1,
                 interpolate_inputs: bool = True,
                 resilient: bool = False,
                 resilient_options: Optional[dict] = None,
                 solver_variant: str = "auto"):
        super().__init__(name, parent, interpolate_inputs,
                         resilient, resilient_options)
        if solver_variant not in STEPPER_VARIANTS:
            raise ElaborationError(
                f"{name!r}: unknown solver_variant {solver_variant!r}; "
                f"expected one of {sorted(STEPPER_VARIANTS)}"
            )
        self.network = network
        self.method = method
        self.solver_variant = solver_variant
        self.oversample = _checked_oversample(name, oversample)
        self._driven: dict[str, InputHolder] = {}
        self._switch_bindings: list[tuple[Switch, InPort]] = []
        self._switch_states: list[bool] = []
        self._index = None
        self.rebuild_count = 0

    # -- terminal declaration ----------------------------------------------------

    def drive_voltage(self, source_name: str,
                      initial: float = 0.0) -> TdfIn:
        """Drive the named Vsource from a TDF input port."""
        return self._drive(source_name, Vsource, initial)

    def drive_current(self, source_name: str,
                      initial: float = 0.0) -> TdfIn:
        """Drive the named Isource from a TDF input port."""
        return self._drive(source_name, Isource, initial)

    def _drive(self, source_name: str, kind, initial: float) -> TdfIn:
        component = self._find(source_name)
        if not isinstance(component, kind):
            raise ElaborationError(
                f"{source_name!r} is a {type(component).__name__}, "
                f"expected {kind.__name__}"
            )
        holder = InputHolder(initial, self._interpolate)
        component.waveform = holder
        port = TdfIn(f"in_{source_name}")
        port.initial_value = initial
        port.module = self
        setattr(self, f"in_{source_name}", port)
        self._inputs.append((port, holder))
        self._driven[source_name] = holder
        return port

    def sample_voltage(self, node: str, reference: str = "0") -> TdfOut:
        """Sample ``v(node) - v(reference)`` onto a TDF output port."""
        port = TdfOut(f"v_{node}")
        port.module = self
        setattr(self, f"v_{node}", port)
        # The extractor is finalized once the index exists.
        self._outputs.append(
            (port, _DeferredVoltage(self, node, reference))
        )
        return port

    def sample_current(self, component_name: str) -> TdfOut:
        """Sample a branch current onto a TDF output port."""
        port = TdfOut(f"i_{component_name}")
        port.module = self
        setattr(self, f"i_{component_name}", port)
        self._outputs.append(
            (port, _DeferredCurrent(self, component_name))
        )
        return port

    def bind_switch(self, switch_name: str, de_signal) -> None:
        """Control the named switch from a DE boolean signal."""
        component = self._find(switch_name)
        if not isinstance(component, Switch):
            raise ElaborationError(
                f"{switch_name!r} is not a Switch"
            )
        port = InPort(f"{self.name}.sw_{switch_name}")
        port.bind(de_signal)
        self._switch_bindings.append((component, port))

    def _find(self, name: str):
        for component in self.network.components:
            if component.name == name:
                return component
        raise ElaborationError(
            f"no component named {name!r} in network "
            f"{self.network.name!r}"
        )

    # -- solver management -------------------------------------------------------------

    def _assemble(self):
        """Assemble the network, sparse when the variant asks for it
        (or auto-selects it from the system size)."""
        sparse = self.solver_variant == "sparse" or (
            self.solver_variant == "auto"
            and self.network.system_size() >= SPARSE_AUTO_THRESHOLD
        )
        return self.network.assemble(sparse=sparse)

    def _make_solver(self) -> TransientSolver:
        self._apply_switches()
        dae, self._index = self._assemble()
        h_internal = None
        if self.timestep is not None and self.oversample > 1:
            h_internal = self.timestep.to_seconds() / self.oversample
        return LinearTransientSolver(dae, h_internal=h_internal,
                                     method=self.method,
                                     variant=self.solver_variant)

    def _apply_switches(self) -> bool:
        changed = False
        states = []
        for switch, port in self._switch_bindings:
            value = bool(port.read())
            if switch.set_closed(value):
                changed = True
            states.append(value)
        self._switch_states = states
        return changed

    def _restamp(self) -> None:
        """Re-assemble after a switch toggle and refactorize in place.

        A toggle is value-only (the unknown layout and stamp pattern
        are unchanged), so the built-in linear solver keeps its time
        and state and only the matrices/factorization are replaced —
        one refactorization, not a solver rebuild.  Non-linear or
        plug-in primaries fall back to the full rebuild.
        """
        primary = getattr(self._solver, "primary", self._solver)
        if isinstance(primary, LinearTransientSolver):
            dae, self._index = self._assemble()
            primary.rebind(dae)
            if primary is not self._solver:
                note = getattr(self._solver, "note_system_change", None)
                if note is not None:
                    note()
        else:
            old_state = np.array(self._solver.state, copy=True)
            old_time = self._solver.time
            self._install_solver(self._make_solver())
            self._solver.initialize(old_time, x0=old_state)

    def processing(self) -> None:
        if self._switch_bindings and self._apply_switches():
            # Topology-preserving re-stamp: carry the state vector over.
            self._restamp()
            # The new topology changes the algebraic solution: snap it
            # while the differential states carry over continuously.
            self._snap()
            self.rebuild_count += 1
        super().processing()

    def processing_block(self, n: int) -> None:
        if self._switch_bindings:
            # The DE-controlled switch check must run per activation.
            self._scalar_fallback(n)
            return
        super().processing_block(n)

    def de_coupled(self) -> bool:
        # Switch-control InPorts live inside a list, invisible to the
        # attribute scan of the base implementation.
        return bool(self._switch_bindings) or super().de_coupled()

    @property
    def index(self):
        if self._index is None:
            raise SynchronizationError(
                f"{self.full_name()!r}: network index not built yet"
            )
        return self._index

    def checkpoint_state(self):
        data = super().checkpoint_state()
        data["switch_closed"] = [sw.closed
                                 for sw, _p in self._switch_bindings]
        data["switch_states"] = list(self._switch_states)
        data["rebuild_count"] = self.rebuild_count
        return data

    def restore_state(self, data) -> None:
        if data is None:
            return
        changed = False
        for (switch, _port), closed in zip(self._switch_bindings,
                                           data["switch_closed"]):
            if switch.closed != closed:
                switch.closed = closed
                changed = True
        if changed:
            # Re-stamp the iteration matrices for the checkpointed
            # topology before the solver state is loaded below.
            self._restamp()
        self._switch_states = list(data["switch_states"])
        self.rebuild_count = int(data["rebuild_count"])
        super().restore_state(data)

    def _extract_column(self, extract, states):
        index = self._index
        if index is None:
            return None
        if isinstance(extract, _DeferredVoltage):
            column = index.voltage_series(states, extract.node)
            if extract.reference != "0":
                column = column - index.voltage_series(
                    states, extract.reference)
            return column
        if isinstance(extract, _DeferredCurrent):
            return index.current_series(states, extract.component)
        return None


class _DeferredVoltage:
    """Output extractor resolving its MNA index lazily."""

    def __init__(self, module: ElnTdfModule, node: str, reference: str):
        self.module = module
        self.node = node
        self.reference = reference

    def __call__(self, state: np.ndarray) -> float:
        index = self.module.index
        value = index.voltage(state, self.node)
        if self.reference != "0":
            value -= index.voltage(state, self.reference)
        return value


class _DeferredCurrent:
    def __init__(self, module: ElnTdfModule, component: str):
        self.module = module
        self.component = component

    def __call__(self, state: np.ndarray) -> float:
        return self.module.index.current(state, self.component)


class LsfTdfModule(CtTdfModule):
    """A linear signal-flow model embedded in the TDF world.

    Declared LSF input signals are overridden by TDF samples; declared
    LSF output signals are sampled onto TDF ports.
    """

    moc = "lsf"

    def __init__(self, name: str, network: LsfNetwork,
                 parent: Optional[Module] = None,
                 method: str = "trapezoidal",
                 oversample: int = 1,
                 interpolate_inputs: bool = True,
                 resilient: bool = False,
                 resilient_options: Optional[dict] = None,
                 solver_variant: str = "auto"):
        super().__init__(name, parent, interpolate_inputs,
                         resilient, resilient_options)
        if solver_variant not in STEPPER_VARIANTS:
            raise ElaborationError(
                f"{name!r}: unknown solver_variant {solver_variant!r}; "
                f"expected one of {sorted(STEPPER_VARIANTS)}"
            )
        self.network = network
        self.method = method
        self.solver_variant = solver_variant
        self.oversample = _checked_oversample(name, oversample)
        self._lsf_inputs: list[tuple[LsfSignal, InputHolder]] = []
        self._lsf_index = None

    def drive(self, signal: LsfSignal, initial: float = 0.0) -> TdfIn:
        """Drive an LSF signal from a TDF input port.

        The signal must be driven by an :class:`LsfSource` block whose
        waveform will be replaced by the TDF sample stream.
        """
        from ..lsf.blocks import LsfSource

        if not isinstance(signal.driver, LsfSource):
            raise ElaborationError(
                f"LSF signal {signal.name!r} must be driven by an "
                "LsfSource to accept TDF samples"
            )
        holder = InputHolder(initial, self._interpolate)
        signal.driver.waveform = holder
        port = TdfIn(f"in_{signal.name}")
        port.initial_value = initial
        port.module = self
        setattr(self, f"in_{signal.name}", port)
        self._inputs.append((port, holder))
        self._lsf_inputs.append((signal, holder))
        return port

    def sample(self, signal: LsfSignal) -> TdfOut:
        """Sample an LSF signal onto a TDF output port."""
        port = TdfOut(f"out_{signal.name}")
        port.module = self
        setattr(self, f"out_{signal.name}", port)
        self._outputs.append((port, _DeferredLsfSignal(self, signal)))
        return port

    def _make_solver(self) -> TransientSolver:
        dae, self._lsf_index = self.network.assemble()
        h_internal = None
        if self.timestep is not None and self.oversample > 1:
            h_internal = self.timestep.to_seconds() / self.oversample
        return LinearTransientSolver(dae, h_internal=h_internal,
                                     method=self.method,
                                     variant=self.solver_variant)

    def _initial_state(self) -> np.ndarray:
        # Integrator outputs start at their declared initial values,
        # which a DC solve of the singular G cannot give.
        return self._lsf_index.initial_state()

    @property
    def lsf_index(self):
        if self._lsf_index is None:
            raise SynchronizationError(
                f"{self.full_name()!r}: LSF index not built yet"
            )
        return self._lsf_index

    def _extract_column(self, extract, states):
        index = self._lsf_index
        if index is None or not isinstance(extract, _DeferredLsfSignal):
            return None
        return states[:, index.signal_index(extract.signal)]


class _DeferredLsfSignal:
    def __init__(self, module: LsfTdfModule, signal: LsfSignal):
        self.module = module
        self.signal = signal

    def __call__(self, state: np.ndarray) -> float:
        return float(state[self.module.lsf_index.signal_index(self.signal)])


class NonlinearTdfModule(CtTdfModule):
    """A nonlinear DAE embedded in the TDF world (Phase 2).

    The system's source terms read :class:`InputHolder` objects created
    by :meth:`add_input`; outputs are arbitrary state extractors.  The
    adaptive solver takes variable internal steps between activations
    (lockstep synchronization, no backtracking across the boundary).
    """

    def __init__(self, name: str, system: NonlinearSystem,
                 parent: Optional[Module] = None,
                 abstol: float = 1e-8, reltol: float = 1e-5,
                 interpolate_inputs: bool = True,
                 resilient: bool = False,
                 resilient_options: Optional[dict] = None):
        super().__init__(name, parent, interpolate_inputs,
                         resilient, resilient_options)
        self.system = system
        self.abstol = abstol
        self.reltol = reltol

    def add_input(self, name: str, initial: float = 0.0) -> InputHolder:
        """Create an input: returns the holder for the system to read;
        the TDF port is available as ``self.in_<name>``."""
        holder = InputHolder(initial, self._interpolate)
        port = TdfIn(f"in_{name}")
        port.initial_value = initial
        port.module = self
        setattr(self, f"in_{name}", port)
        self._inputs.append((port, holder))
        return holder

    def add_output(self, name: str,
                   extract: Callable[[np.ndarray], float]) -> TdfOut:
        port = TdfOut(f"out_{name}")
        port.module = self
        setattr(self, f"out_{name}", port)
        self._outputs.append((port, extract))
        return port

    def _make_solver(self) -> TransientSolver:
        return NonlinearTransientSolver(
            self.system, abstol=self.abstol, reltol=self.reltol,
        )

    @property
    def internal_steps(self) -> int:
        return self.stats().get("solver.steps", 0)


class SolverTdfModule(CtTdfModule):
    """Embed *any* :class:`~repro.ct.TransientSolver` (the plug-in API).

    Inputs are holders the external solver's model reads; outputs are
    state extractors.  This demonstrates the paper's open architecture:
    the synchronization layer is solver-agnostic.
    """

    def __init__(self, name: str, solver: TransientSolver,
                 parent: Optional[Module] = None,
                 interpolate_inputs: bool = True,
                 resilient: bool = False,
                 resilient_options: Optional[dict] = None):
        super().__init__(name, parent, interpolate_inputs,
                         resilient, resilient_options)
        self._external_solver = solver

    def add_input(self, name: str, initial: float = 0.0) -> InputHolder:
        holder = InputHolder(initial, self._interpolate)
        port = TdfIn(f"in_{name}")
        port.initial_value = initial
        port.module = self
        setattr(self, f"in_{name}", port)
        self._inputs.append((port, holder))
        return holder

    def add_output(self, name: str,
                   extract: Callable[[np.ndarray], float]) -> TdfOut:
        port = TdfOut(f"out_{name}")
        port.module = self
        setattr(self, f"out_{name}", port)
        self._outputs.append((port, extract))
        return port

    def _make_solver(self) -> TransientSolver:
        return self._external_solver
