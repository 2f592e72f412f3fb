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
from typing import Callable, Optional

import numpy as np

from ..core.errors import ElaborationError, SolverError, SynchronizationError
from ..core.module import Module
from ..core.port import InPort
from ..ct.linear import SPARSE_AUTO_THRESHOLD, STEPPER_VARIANTS
from ..ct.nonlinear import NonlinearSystem
from ..ct.solver_api import (
    LinearTransientSolver,
    NonlinearTransientSolver,
    TransientSolver,
)
from ..eln.components import Switch, Vsource, Isource
from ..eln.network import GROUND, Network
from ..lsf.network import LsfSignal
from ..tdf.module import TdfModule
from ..tdf.signal import TdfIn, TdfOut
from .holders import InputHolder


class _Column:
    """An ELN or LSF output: unknown ``plus`` minus unknown ``minus``
    (None reads as zero, i.e. ground) of one state, or elementwise of a
    block of states, one row each.

    ``resolve()`` gives the pair once the module's network index exists
    (:meth:`bind`, at initialization).
    """

    def __init__(self, resolve: Callable[[], tuple]):
        self.resolve = resolve
        self.plus = self.minus = None

    def bind(self) -> None:
        self.plus, self.minus = self.resolve()

    def __call__(self, states):
        by_column = states.T
        value = 0.0 if self.plus is None else by_column[self.plus]
        return value if self.minus is None else value - by_column[self.minus]


def _rows(columns, count: int) -> list:
    """Per-activation sample tuples (Python floats) of ``count``
    activations' block columns."""
    return list(zip(*(column.tolist() for column in columns))) \
        or [()] * count


def _largest_change(state: np.ndarray, before: np.ndarray) -> float:
    """How far a step moved the state, for activation gating."""
    return float(np.max(np.abs(state - before))) if state.size else 0.0


class CtTdfModule(TdfModule):
    """Shared solver-lockstep machinery.

    Subclasses declare terminals with :meth:`_add_input` (a port and the
    :class:`InputHolder` the solver's sources read) and
    :meth:`_add_output` (a port and a state extractor), and implement
    :meth:`_make_solver`.

    Every activation runs one of two strategies, scalar and block
    activations alike, each call timed by :meth:`_advance`:

    * per activation (:meth:`_step_each`): latch the holders, then one
      ``advance_to``; any solver, gating and the consistent
      initialization of the first activation.  It is the reference the
      window is tested against;
    * window (:meth:`_step_window`): one ``advance_window`` call for a
      block's activations, in block runs of the built-in linear solver
      holding the module's input holders.

    The built-in linear solver (a resilient module's primary tier
    included) holds the input holders from :meth:`initialize` on when
    every source row is a holder or a constant
    (:meth:`~repro.ct.LinearTransientSolver.hold_inputs`): each
    activation of either strategy then steps through one cached
    operator, dense, sparse or expm.  A section with a time-waveform
    source row steps per activation, in block runs too.
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
        #: how far the last step moved the state (gating memory), or
        #: the ``(state, state before)`` pair it is computed from when
        #: first read (:meth:`_state_change`)
        self._last_delta: float | tuple = np.inf
        #: pre-bound ``moc.<moc>.seconds`` counter (None = telemetry off).
        self._m_solver_seconds = None
        #: block runs take the window strategy (set at initialize)
        self._windowed = False

    # -- public wiring ----------------------------------------------------------

    def enable_gating(self, tolerance: float = 1e-12) -> None:
        """Enable virtual-clock activation gating (Bonnerud [2]):

        when every input sample is unchanged and the state moved less
        than ``tolerance`` in the previous step, the solver advance is
        skipped and the previous outputs are re-emitted.
        """
        self.gating_enabled = True
        self.gating_tolerance = tolerance

    def _add_input(self, name: str, holder: InputHolder,
                   initial: float) -> TdfIn:
        """Declare the TDF input ``name`` feeding ``holder``."""
        port = TdfIn(name)
        port.initial_value = initial
        port.module = self
        setattr(self, name, port)
        self._inputs.append((port, holder))
        return port

    def _add_output(self, name: str, extract) -> TdfOut:
        """Declare the TDF output ``name`` sampling ``extract(state)``."""
        port = TdfOut(name)
        port.module = self
        setattr(self, name, port)
        self._outputs.append((port, extract))
        return port

    # -- TdfModule hooks ------------------------------------------------------------

    def initialize(self) -> None:
        for port, holder in self._inputs:
            holder.reset(port.initial_value)
        solver = self._make_solver()
        for _port, extract in self._outputs:
            if isinstance(extract, _Column):
                extract.bind()
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
        primary = getattr(solver, "primary", solver)
        held = isinstance(primary, LinearTransientSolver) \
            and primary.hold_inputs([holder for _port, holder in self._inputs])
        # a resilient wrapper steps per activation, its primary included
        self._windowed = held and primary is solver
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
        samples = tuple(port.read() for port, _holder in self._inputs)
        state = self._advance(self._step_each,
                              (self.local_time.to_seconds(),),
                              (samples,))[0]
        for port, extract in self._outputs:
            port.write(extract(state))

    def processing_block(self, n: int) -> None:
        """Batch the port I/O and, where a window applies, the solver
        steps of ``n`` activations.

        Windows need the built-in linear solver holding the input
        holders (recorded at :meth:`initialize`) and no gating: gating's
        skip test for an activation needs the state change of the one
        before, which a window only knows after it has stepped.
        """
        if not all([port.block_readable() for port, _holder in self._inputs]):
            self._scalar_fallback(n)
            return
        times = self.activation_times(n)
        columns = [port.read_block(n) for port, _holder in self._inputs]
        if self._windowed and not self.gating_enabled:
            states = self._advance(self._step_window, times, columns)
        else:
            states = self._advance(self._step_each, times,
                                   _rows(columns, n))
        outs = np.empty((len(self._outputs), n))
        for slot, (port, extract) in enumerate(self._outputs):
            outs[slot] = extract(states) if isinstance(extract, _Column) \
                else [extract(state) for state in states]
            port.write_block(outs[slot])

    # -- the two strategies ---------------------------------------------------

    def _advance(self, strategy, times, inputs) -> np.ndarray:
        """One strategy call: one activation's or one window's states.

        The one timing site: ``moc.<moc>.seconds``, plus one
        ``solver.advance`` span per call at fine telemetry.
        """
        if self._solver is None:
            raise SynchronizationError(
                f"{self.full_name()!r} activated before initialization"
            )
        seconds = self._m_solver_seconds
        if seconds is None:
            return strategy(times, inputs)
        start = _time.perf_counter()
        states = strategy(times, inputs)
        elapsed = _time.perf_counter() - start
        seconds.inc(elapsed)
        telemetry = self._telemetry
        if telemetry.fine:
            telemetry.tracer.complete(
                "solver.advance", start, elapsed,
                track=f"solver.{self.name}",
                attrs={"moc": self.moc, "t": float(times[-1])})
        return states

    def _step_each(self, times, rows) -> np.ndarray:
        """Per-activation strategy: ``rows[a]`` holds activation ``a``'s
        input samples.

        The first activation latches the t=0 samples and snaps the
        algebraic unknowns to them (consistent initialization;
        differential states keep their quiescent values).  Each state is
        copied out before the next ``advance_to``, since a plug-in
        solver may reuse its state buffer.
        """
        solver = self._solver
        states = np.empty((len(times), solver.state.size))
        for a, (t_now, samples) in enumerate(zip(times, rows)):
            if self._activation_index + a == 0:
                for (_port, holder), value in zip(self._inputs, samples):
                    holder.push(value, 0.0, 0.0)
                self._snap()
                states[a] = solver.state
                continue
            t_prev = solver.time
            for (_port, holder), value in zip(self._inputs, samples):
                holder.push(value, t_prev, t_now)
            if (self.gating_enabled and self._last_inputs == samples
                    and self._state_change() <= self.gating_tolerance):
                self.skipped_activations += 1
                solver.skip_to(t_now)
                states[a] = solver.state
                continue
            before = np.array(solver.state, copy=True)
            states[a] = solver.advance_to(t_now)
            self._last_delta = states[a], before
            self._last_inputs = samples
        return states

    def _step_window(self, times, columns) -> np.ndarray:
        """Window strategy: ``columns[i]`` holds input ``i``'s samples.

        One ``advance_window`` call steps the solver's
        :meth:`~repro.ct.LinearTransientSolver.held_window` of the
        activations, each from its input vector.  Holders and the
        gating memory end as the last activation's ``advance_to`` would
        leave them (checkpoint parity).  The first activation's
        consistent initialization, and a window the solver cannot
        hold, run per activation.
        """
        solver = self._solver
        head = None
        if self._activation_index == 0:
            # The consistent initialization runs per activation; its
            # snap leaves the solver time alone.
            head = self._step_each(times[:1], _rows(
                [column[:1] for column in columns], 1))
            if len(times) == 1:
                return head
            times = times[1:]
            columns = [column[1:] for column in columns]
        window = solver.held_window(times, columns)
        if window is None:
            states = self._step_each(times, _rows(columns, len(times)))
        else:
            before = solver.state
            t_prev = solver.time if len(times) == 1 else float(times[-2])
            states = solver.advance_window(window)
            for (_port, holder), column in zip(self._inputs, columns):
                holder.push_all(column, t_prev, float(times[-1]))
            self._last_inputs = tuple([float(column[-1])
                                       for column in columns])
            self._last_delta = (states[-1],
                                states[-2] if len(states) >= 2 else before)
        return states if head is None else np.concatenate([head, states])

    # -- internals -----------------------------------------------------------------

    def _state_change(self) -> float:
        """The gating memory, computed from its pair on first read."""
        if isinstance(self._last_delta, tuple):
            self._last_delta = _largest_change(*self._last_delta)
        return self._last_delta

    def _snap(self) -> None:
        """Re-solve algebraic unknowns against the current inputs."""
        snap = getattr(self._solver, "snap_algebraic", None)
        if snap is not None and self.timestep is not None:
            snap(self.timestep.to_seconds())

    def _make_solver(self) -> TransientSolver:
        raise NotImplementedError

    def _initial_state(self) -> Optional[np.ndarray]:
        """The consistent initial state the solver starts from; None
        lets the solver compute its own DC operating point."""
        return None

    # -- checkpoint hooks -------------------------------------------------------

    def checkpoint_state(self):
        return {
            "solver": (self._solver.state_dict()
                       if self._solver is not None else None),
            "holders": [holder.state() for _port, holder in self._inputs],
            "skipped_activations": self.skipped_activations,
            "last_inputs": self._last_inputs,
            "last_delta": self._state_change(),
        }

    def restore_state(self, data) -> None:
        if data is None:
            return
        if data["solver"] is not None and self._solver is not None:
            self._solver.load_state_dict(data["solver"])
        for (_port, holder), state in zip(self._inputs, data["holders"]):
            holder.load_state(state)
        self.skipped_activations = int(data["skipped_activations"])
        self._last_inputs = data["last_inputs"]
        self._last_delta = data["last_delta"]


class _LinearTdfModule(CtTdfModule):
    """An ELN or LSF network stepped by the built-in linear solver,
    ``oversample`` internal steps per activation."""

    def __init__(self, name: str, network,
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
        # a whole number of at least one (a fraction would round up
        # silently)
        if isinstance(oversample, bool) \
                or not isinstance(oversample, (int, np.integer)) \
                or oversample < 1:
            raise ElaborationError(
                f"{name!r}: oversample must be an integer >= 1, "
                f"got {oversample!r}"
            )
        self.network = network
        self.method = method
        self.solver_variant = solver_variant
        self.oversample = int(oversample)
        self._index = None

    @property
    def index(self):
        """The assembled network's index (its unknowns by name)."""
        if self._index is None:
            raise SynchronizationError(
                f"{self.full_name()!r}: network index not built yet"
            )
        return self._index

    def _assemble(self):
        """``(dae, index)`` of the network."""
        raise NotImplementedError

    def _make_solver(self) -> TransientSolver:
        dae, self._index = self._assemble()
        h_internal = None
        if self.timestep is not None and self.oversample > 1:
            h_internal = self.timestep.to_seconds() / self.oversample
        return LinearTransientSolver(dae, h_internal=h_internal,
                                     method=self.method,
                                     variant=self.solver_variant)


class ElnTdfModule(_LinearTdfModule):
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
        super().__init__(name, network, parent, method, oversample,
                         interpolate_inputs, resilient, resilient_options,
                         solver_variant)
        self._switch_bindings: list[tuple[Switch, InPort]] = []
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
        component.waveform = holder = InputHolder(initial, self._interpolate)
        return self._add_input(f"in_{source_name}", holder, initial)

    def sample_voltage(self, node: str, reference: str = GROUND) -> TdfOut:
        """Sample ``v(node) - v(reference)`` onto a TDF output port."""
        def columns():
            nodes = self.index.node_index
            return tuple(None if name == GROUND else nodes[name]
                         for name in (node, reference))

        return self._add_output(f"v_{node}", _Column(columns))

    def sample_current(self, component_name: str) -> TdfOut:
        """Sample a branch current onto a TDF output port."""
        def columns():
            currents = self.index.current_index
            if component_name not in currents:
                raise SolverError(
                    f"component {component_name!r} has no branch-current "
                    "unknown; only voltage sources, inductors and probes "
                    "do"
                )
            return currents[component_name], None

        return self._add_output(f"i_{component_name}", _Column(columns))

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
        return super()._make_solver()

    def _apply_switches(self) -> bool:
        changed = False
        for switch, port in self._switch_bindings:
            if switch.set_closed(bool(port.read())):
                changed = True
        return changed

    def _restamp(self) -> None:
        """Re-assemble after a switch toggle and refactorize in place.

        A toggle is value-only (the unknown layout and stamp pattern
        are unchanged), so the linear solver keeps its time and state
        and only the matrices/factorization are replaced — one
        refactorization, not a solver rebuild.
        """
        primary = getattr(self._solver, "primary", self._solver)
        dae, self._index = self._assemble()
        primary.rebind(dae)
        if primary is not self._solver:
            self._solver.note_system_change()

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

    def checkpoint_state(self):
        data = super().checkpoint_state()
        data["switch_closed"] = [sw.closed
                                 for sw, _p in self._switch_bindings]
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
        self.rebuild_count = int(data["rebuild_count"])
        super().restore_state(data)


class LsfTdfModule(_LinearTdfModule):
    """A linear signal-flow model (an :class:`~repro.lsf.LsfNetwork`)
    embedded in the TDF world.

    Declared LSF input signals are overridden by TDF samples; declared
    LSF output signals are sampled onto TDF ports.
    """

    moc = "lsf"

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
        signal.driver.waveform = holder = InputHolder(initial,
                                                      self._interpolate)
        return self._add_input(f"in_{signal.name}", holder, initial)

    def sample(self, signal: LsfSignal) -> TdfOut:
        """Sample an LSF signal onto a TDF output port."""
        return self._add_output(f"out_{signal.name}", _Column(
            lambda: (self.lsf_index.signal_index(signal), None)))

    def _assemble(self):
        return self.network.assemble()

    def _initial_state(self) -> np.ndarray:
        # Integrator outputs start at their declared initial values,
        # which a DC solve of the singular G cannot give.
        return self._index.initial_state()

    lsf_index = _LinearTdfModule.index


class SolverTdfModule(CtTdfModule):
    """Embed *any* :class:`~repro.ct.TransientSolver` (the plug-in API).

    Inputs are holders the external solver's model reads; outputs are
    state extractors.  This demonstrates the paper's open architecture:
    the synchronization layer is solver-agnostic.
    """

    def __init__(self, name: str, solver: Optional[TransientSolver],
                 parent: Optional[Module] = None,
                 interpolate_inputs: bool = True,
                 resilient: bool = False,
                 resilient_options: Optional[dict] = None):
        super().__init__(name, parent, interpolate_inputs,
                         resilient, resilient_options)
        self._external_solver = solver

    def add_input(self, name: str, initial: float = 0.0) -> InputHolder:
        """Create an input: returns the holder for the model to read;
        the TDF port is available as ``self.in_<name>``."""
        holder = InputHolder(initial, self._interpolate)
        self._add_input(f"in_{name}", holder, initial)
        return holder

    def add_output(self, name: str,
                   extract: Callable[[np.ndarray], float]) -> TdfOut:
        """Sample ``extract(state)`` onto ``self.out_<name>``."""
        return self._add_output(f"out_{name}", extract)

    def _make_solver(self) -> TransientSolver:
        return self._external_solver


class NonlinearTdfModule(SolverTdfModule):
    """A nonlinear DAE embedded in the TDF world (Phase 2).

    The system's source terms read :class:`InputHolder` objects created
    by :meth:`add_input`; outputs are arbitrary state extractors.  The
    adaptive solver, built at initialization, takes variable internal
    steps between activations (lockstep synchronization, no
    backtracking across the boundary).
    """

    def __init__(self, name: str, system: NonlinearSystem,
                 parent: Optional[Module] = None,
                 abstol: float = 1e-8, reltol: float = 1e-5,
                 interpolate_inputs: bool = True,
                 resilient: bool = False,
                 resilient_options: Optional[dict] = None):
        super().__init__(name, None, parent, interpolate_inputs,
                         resilient, resilient_options)
        self.system = system
        self.abstol = abstol
        self.reltol = reltol

    def _make_solver(self) -> TransientSolver:
        return NonlinearTransientSolver(
            self.system, abstol=self.abstol, reltol=self.reltol,
        )

    @property
    def internal_steps(self) -> int:
        return self.stats().get("solver.steps", 0)
